"""Shared test utilities: cubes as rectangles, a tree's kept cells and a
tree of unsplit roots over a rectangle, lattice-snapped coverage
instances, the exact successor box, the all-fraction coverage reference
and the raster sampling oracle, the permuted diagonal affine maps whose
image of a box is a box, the one-batch Monte Carlo falsifier, the
Minkowski gauge of polytopic C-sets (scipy's ``linprog`` checks that a
row set bounds one) and a contraction grid in fractions,
the linear-scan and KD-tree nearest-neighbour references, the reference
synthesizer (the paper's loop, plain and slow), and plain references for
the dataset CSV writer and reader.

Instances are built on a coarse lattice so every covered or uncovered
region is a union of full lattice cells, and covers that merely touch the
query (zero-volume contact, where the exact classifier and a point-sampling
oracle legitimately differ) are resampled away.  The result: geometric
margins all exceed the raster cell, so oracle agreement must be exact.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import count, product

import numpy as np
import orjson

from pinvset.dataset import EmptyDatasetError, MalformedRowError, NonFiniteSampleError
from pinvset.geometry import CoverageClass, DimensionMismatchError, GEOM_TOL, Rect
from pinvset.tree import Label, PartitionTree
from pinvset.verify import METHOD_MONTE_CARLO, Certificate, _start_points, _TreeMembership

LATTICE_PITCH = 0.25
RASTER_CELL = LATTICE_PITCH / 8.0


def cube(center, radius) -> Rect:
    """The closed max-norm ball ``center ± radius`` as a rectangle."""
    return tuple(c - radius for c in center), tuple(c + radius for c in center)


def kept_cells(tree) -> list[Rect]:
    """The cells of the tree's included leaves, in leaf order, read from
    the node table: the union the tree's coverage walk answers for."""
    nodes = tree.nodes
    return [
        (nodes.lo[i], nodes.hi[i])
        for i in tree.iter_leaves()
        if nodes.label[i] == Label.INCLUDED
    ]


def listed(column):
    """An array column as its ``tolist()``, any other as it is, so that ==
    compares columns value for value."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def node_columns(nodes) -> dict:
    """Every column of a node table by name, as ``listed`` gives it."""
    return {f.name: listed(getattr(nodes, f.name)) for f in fields(nodes)}


def roots_tree(lo, hi, count: int) -> PartitionTree:
    """A tree of ``count`` unsplit included roots over the rectangle
    ``lo..hi``, read through ``PartitionTree.from_columns`` as a result file
    is.  Every sample sits at ``lo`` and maps to itself."""
    return PartitionTree.from_columns(
        (lo, hi),
        parent=[-1] * count,
        sample_index=[0] * count,
        sample_x=[tuple(lo)] * count,
        sample_xp=[tuple(lo)] * count,
        label=[Label.INCLUDED] * count,
    )


def in_cells(cells: list[Rect], point) -> bool:
    """Whether a point lies in one of the closed cells widened by GEOM_TOL,
    compared as ``PartitionTree.overlapping`` compares a point probe."""
    return any(
        all(l <= v + GEOM_TOL and v <= h + GEOM_TOL for l, h, v in zip(lo, hi, point))
        for lo, hi in cells
    )


def _lattice_cube(rng: np.random.Generator, n: int, min_cells: int, max_cells: int, span: int) -> Rect:
    w = int(rng.integers(min_cells, max_cells + 1))
    lo = [int(rng.integers(-span, span - w + 1)) for _ in range(n)]
    center = tuple((l + w / 2.0) * LATTICE_PITCH for l in lo)
    return cube(center, w * LATTICE_PITCH / 2.0)


def _touches_without_overlap(query: Rect, cover: Rect) -> bool:
    (qlo, qhi), (clo, chi) = query, cover
    overlaps = [min(qh, ch) - max(ql, cl) for ql, qh, cl, ch in zip(qlo, qhi, clo, chi)]
    return min(overlaps) == 0.0


def margin_separated_instance(rng: np.random.Generator, n: int) -> tuple[Rect, list[Rect]]:
    """A query cube and a cover union whose boundaries never just touch."""
    query = _lattice_cube(rng, n, 2, 4, span=4)
    covers = []
    for _ in range(int(rng.integers(1, 9))):
        while True:
            cover = _lattice_cube(rng, n, 1, 4, span=5)
            if not _touches_without_overlap(query, cover):
                covers.append(cover)
                break
    return query, covers


def _fraction_rect(obj) -> tuple[list[Fraction], list[Fraction]]:
    lo, hi = obj
    return [Fraction(c) for c in lo], [Fraction(c) for c in hi]


def exact_successor(x_plus, lipschitz: float, radius: float) -> tuple[tuple, tuple]:
    """The exact successor box, the cube of radius ``lipschitz * radius``
    around ``x_plus``, its corners as fractions of the stored floats (which
    compare exactly with floats): the box ``successor_corners`` must hold."""
    reach = Fraction(lipschitz) * Fraction(radius)
    center = [Fraction(c) for c in x_plus]
    return tuple([c - reach for c in center]), tuple([c + reach for c in center])


def exact_coverage(query, union) -> CoverageClass:
    """The verdict of a closed query against a union of closed boxes, in
    fractions; the partition tree is tested against it.  The query and
    each member of the union are a ``(lo, hi)`` corner pair, whose corners
    (floats or fractions) are taken as exact.  The query is
    cut at every face inside it, and each piece is covered when one box
    holds it.  As in the tree, a query without interior is never covered."""
    qlo, qhi = _fraction_rect(query)
    boxes = [_fraction_rect(b) for b in union]
    meets = [
        (lo, hi) for lo, hi in boxes
        if all(l <= qh and ql <= h for l, h, ql, qh in zip(lo, hi, qlo, qhi))
    ]
    if not meets:
        return CoverageClass.DISJOINT
    if not all(a < b for a, b in zip(qlo, qhi)):
        return CoverageClass.PARTIAL
    axes = []
    for d, (a, b) in enumerate(zip(qlo, qhi)):
        cuts = sorted({c for lo, hi in meets for c in (lo[d], hi[d]) if a < c < b})
        axes.append(list(zip([a, *cuts], [*cuts, b])))
    for piece in product(*axes):
        if not any(
            all(l <= a and b <= h for l, h, (a, b) in zip(lo, hi, piece)) for lo, hi in meets
        ):
            return CoverageClass.PARTIAL
    return CoverageClass.FULLY_COVERED


@dataclass
class RefCell:
    """One cell of ``reference_synthesize``: its parent (-1 for a root), its
    target center and radius, corners, sample, ball radius and label."""

    parent: int
    center: tuple
    r_target: float
    lo: tuple
    hi: tuple
    sample: int
    radius: float
    label: Label = Label.INCLUDED
    children: list[int] | None = None


def reference_synthesize(
    x, x_plus, domain: Rect, lipschitz: float, tau: float, batch: bool
) -> tuple[list[RefCell], int]:
    """The synthesis loop as the paper states it, kept slow and plain: the
    cells in creation order and the sweep count.

    The roots are the equal cubes that tile the domain, last axis fastest.
    A cell's sample is its nearest by a linear scan of max-norm distances,
    lowest index on ties, and its ball radius is fl(r_target + d), stepped
    to the next float above the largest rounded corner distance when that
    ball misses the cell (decided in fractions).  Each sweep takes the
    included leaves in depth-first order, then the children of their splits,
    first in first out.  A leaf's successor box, the exact ``x⁺ ± L·r``, is
    classified against the included leaf cells by ``exact_coverage``:
    covered, it stays; partial, it splits while its children's radius is at
    least ``tau`` (child s is centred at ``c + (r/2)·s`` and cut at ``c``);
    otherwise it is retired, EXCLUDED when disjoint and UNKNOWN when
    partial.  Sequential mode retires at once; batch mode at the end of the
    sweep.  The loop stops at the first sweep that changes nothing."""
    x = [tuple(map(float, p)) for p in x]
    x_plus = [tuple(map(float, p)) for p in x_plus]
    cells: list[RefCell] = []

    def add(parent, center, r_target, lo, hi):
        dists = [max(abs(v - c) for v, c in zip(p, center)) for p in x]
        sample = dists.index(min(dists))
        xs = x[sample]
        radius = r_target + dists[sample]
        axes = list(zip(xs, lo, hi))
        reach = max(max(Fraction(v) - Fraction(l), Fraction(h) - Fraction(v)) for v, l, h in axes)
        if reach > radius:  # the ball misses part of the cell
            radius = math.nextafter(max(max(v - l, h - v) for v, l, h in axes), math.inf)
        cells.append(RefCell(parent, center, r_target, lo, hi, sample, radius))
        return len(cells) - 1

    def divide(i):
        cell = cells[i]
        half = cell.r_target / 2.0
        cell.children = [
            add(i, tuple(c + half * sd for c, sd in zip(cell.center, s)),
                half,
                tuple(l if sd < 0 else c for l, c, sd in zip(cell.lo, cell.center, s)),
                tuple(c if sd < 0 else h for h, c, sd in zip(cell.hi, cell.center, s)))
            for s in product((-1.0, 1.0), repeat=len(cell.center))
        ]
        return cell.children

    def included_leaves(ids):
        for i in ids:
            if cells[i].children:
                yield from included_leaves(cells[i].children)
            elif cells[i].label is Label.INCLUDED:
                yield i

    lo, hi = domain
    side = min(b - a for a, b in zip(lo, hi))
    r0 = side / 2.0
    axes = [[a + (2 * k + 1) * r0 for k in range(round((b - a) / side))] for a, b in zip(lo, hi)]
    roots = [
        add(-1, center, r0, tuple(c - r0 for c in center), tuple(c + r0 for c in center))
        for center in product(*axes)
    ]
    for sweep in count(1):
        queue = list(included_leaves(roots))
        retired, divisions = [], 0
        while queue:
            i = queue.pop(0)
            cell = cells[i]
            reach = Fraction(lipschitz) * Fraction(cell.radius)
            center = [Fraction(c) for c in x_plus[cell.sample]]
            successor = ([c - reach for c in center], [c + reach for c in center])
            union = [(cells[j].lo, cells[j].hi) for j in included_leaves(roots)]
            verdict = exact_coverage(successor, union)
            if verdict is CoverageClass.FULLY_COVERED:
                continue
            if verdict is CoverageClass.PARTIAL and cell.r_target / 2.0 >= tau:
                queue += divide(i)
                divisions += 1
                continue
            label = Label.EXCLUDED if verdict is CoverageClass.DISJOINT else Label.UNKNOWN
            retired.append((i, label))
            if not batch:
                cell.label = label
        for i, label in retired:
            cells[i].label = label
        if not (divisions or retired):
            return cells, sweep


@dataclass(frozen=True)
class PermutedDiagonal:
    """The map f(x) = P·diag(a)·x + b: output axis i is
    ``a[perm[i]] * x[perm[i]] + b[i]``, whose max-norm Lipschitz constant
    is max|a_i|.  With a and b multiples of 1/16 of magnitude below 2 and
    states multiples of 2^-20 in [-1, 1] (``states``), every x⁺ and every
    corner of the image of a dyadic cell is an exact float."""

    perm: tuple[int, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]

    @property
    def lipschitz(self) -> float:
        return max(map(abs, self.a))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        perm = list(self.perm)
        return x[:, perm] * np.array(self.a)[perm] + np.array(self.b)

    def image(self, lo, hi) -> tuple[tuple, tuple]:
        """The exact image of the box [lo, hi], a box."""
        ends = [
            sorted((self.a[j] * lo[j] + b, self.a[j] * hi[j] + b))
            for j, b in zip(self.perm, self.b)
        ]
        return tuple(e[0] for e in ends), tuple(e[1] for e in ends)

    @staticmethod
    def states(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
        """m uniform states in [-1, 1]^n, rounded to multiples of 2^-20."""
        return np.round(rng.uniform(-1.0, 1.0, size=(m, n)) * 2.0 ** 20) / 2.0 ** 20


def reference_monte_carlo(
    tree: PartitionTree, oracle, samples: int, horizon: int, seed: int
) -> Certificate:
    """The Monte Carlo falsifier as one batch: the same start points rolled
    forward all at once, every iterate judged by the membership test's full
    path (no one-lookup shortcut), failing at the first step that loses a
    point, at its least index."""
    member = _TreeMembership(tree)
    start = pts = _start_points(tree, samples, np.random.default_rng(seed))
    for step in range(1, horizon + 1):
        pts = oracle.map_points(pts)
        ok = member._settle(pts.T)
        if not ok.all():
            j = int(np.argmin(ok))
            failure = {"step": step, "start": start[j].tolist(), "state": pts[j].tolist()}
            return Certificate(False, samples, failure, METHOD_MONTE_CARLO)
    return Certificate(True, samples, None, METHOD_MONTE_CARLO)


@dataclass
class RasterReport:
    covered_fraction: float
    verdict: CoverageClass


def raster_coverage(query: Rect, union: list[Rect], cell: float) -> RasterReport:
    """Sampling oracle: covered fraction of a point grid over the query box.

    The grid uses at most ``cell`` pitch per axis (cell centers), so a
    covered or uncovered region thicker than the pitch cannot be missed;
    verdicts within one cell of a boundary are advisory only, the exact
    classifier is authoritative.
    """
    lo, hi = query
    half = min(h - l for l, h in zip(lo, hi)) / 2.0
    if cell <= 0.0 or cell > half:
        raise ValueError(
            f"raster cell must lie in (0, query half-width]; got {cell} "
            f"for half-width {half}"
        )
    axes = []
    for l, h in zip(lo, hi):
        k = max(1, int(math.ceil((h - l) / cell - 1e-12)))
        pitch = (h - l) / k
        axes.append(l + (np.arange(k) + 0.5) * pitch)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    covered = np.zeros(len(pts), dtype=bool)
    for blo, bhi in union:
        inside = np.ones(len(pts), dtype=bool)
        for d in range(len(lo)):
            inside &= (pts[:, d] >= blo[d] - GEOM_TOL) & (pts[:, d] <= bhi[d] + GEOM_TOL)
        covered |= inside
    hits = int(covered.sum())
    fraction = hits / len(pts)
    if hits == len(pts):
        verdict = CoverageClass.FULLY_COVERED
    elif hits == 0:
        verdict = CoverageClass.DISJOINT
    else:
        verdict = CoverageClass.PARTIAL
    return RasterReport(fraction, verdict)


def chebyshev(a, b) -> float:
    """Max-norm distance between two points."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"points of dim {len(a)} and {len(b)}")
    return max(abs(x - y) for x, y in zip(a, b))


def nearest_linear(dataset, q) -> tuple[int, float]:
    """The nearest sample to q by a linear scan, with ``Dataset.nearest``'s
    exact tie rule: the lowest index."""
    if len(q) != dataset.dim:
        raise DimensionMismatchError(
            f"query dim {len(q)} does not match dataset dim {dataset.dim}"
        )
    best_d = math.inf
    best_i = -1
    for j, x in enumerate(dataset.x.tolist()):
        d = chebyshev(q, x)
        if d < best_d:
            best_d = d
            best_i = j
    return best_i, best_d


def nearest_kdtree(dataset, qs) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm nearest neighbours of a batch by ``scipy.spatial.cKDTree``,
    with ``Dataset.nearest``'s tie rule: the two nearest distances expose a
    tie, and a tied query takes the lowest index among every sample at
    exactly that distance."""
    from scipy.spatial import cKDTree

    tree = cKDTree(dataset.x, balanced_tree=False, compact_nodes=False)
    qs = np.asarray(qs, dtype=float)
    dist, idx = tree.query(qs, k=2, p=math.inf)
    best, idx = dist[:, 0], idx[:, 0]
    tied = np.flatnonzero(dist[:, 1] == best)
    if len(tied):
        balls = tree.query_ball_point(qs[tied], best[tied], p=math.inf)
        idx[tied] = [min(ball) for ball in balls]
    return idx, best


class CSetInvalidError(ValueError):
    """Row set does not describe a compact set with the origin interior."""


@dataclass(frozen=True)
class PolytopeCSet:
    """Compact convex polytope with the origin interior: {x : rows @ x <= 1}.

    Compactness is equivalent to the rows positively spanning R^n (the
    recession cone {d : rows @ d <= 0} must be trivial); this is checked at
    construction with 2n small LPs, one per signed coordinate direction.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        from scipy.optimize import linprog

        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise CSetInvalidError("rows must be a nonempty 2-D array")
        object.__setattr__(self, "rows", rows)
        n = rows.shape[1]
        for d in range(n):
            for sign in (1.0, -1.0):
                c = np.zeros(n)
                c[d] = -sign  # linprog minimizes; we want max of sign * e_d
                res = linprog(
                    c,
                    A_ub=rows,
                    b_ub=np.zeros(rows.shape[0]),
                    bounds=[(-1.0, 1.0)] * n,
                    method="highs",
                )
                if not res.success:
                    raise CSetInvalidError(f"recession LP failed: {res.message}")
                if -res.fun > 1e-9:
                    raise CSetInvalidError(
                        "rows do not positively span: unbounded direction "
                        f"found along coordinate {d}"
                    )

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def unit_max_ball(n: int) -> PolytopeCSet:
    """The unit max-norm ball as a C-set (rows +-e_i)."""
    return PolytopeCSet(np.vstack((np.eye(n), -np.eye(n))))


def gauge(cset: PolytopeCSet, x) -> float:
    """Minkowski gauge: the least lambda >= 0 with x in lambda * S.

    For an H-represented C-set this is ``max(0, max_i h_i . x)`` exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != cset.dim:
        raise DimensionMismatchError(
            f"point dim {x.shape[-1]} does not match set dim {cset.dim}"
        )
    return float(max(0.0, float(np.max(cset.rows @ x))))


def gauge_many(cset: PolytopeCSet, pts: np.ndarray) -> np.ndarray:
    """Gauge of each row of an (N, n) array."""
    pts = np.asarray(pts, dtype=float)
    return np.maximum(0.0, (pts @ cset.rows.T).max(axis=1))


def gauge_unit_max(cset: PolytopeCSet) -> float:
    """Largest gauge value over the unit max-norm ball.

    Each row functional h . u is maximized over ||u||_inf <= 1 at
    u = sign(h) with value ||h||_1, so the maximum is max_i ||h_i||_1.
    """
    return float(np.abs(cset.rows).sum(axis=1).max())


def successor_gauge_bound(
    cset: PolytopeCSet, contraction: float, lipschitz: float, radius: float
) -> float:
    """Certified gauge bound over the successor box of a ball inside the set.

    If the set contracts by factor ``contraction`` per step and the ball of
    ``radius`` sits inside it, every point of the Lipschitz successor box
    has gauge at most ``contraction + lipschitz * radius * gauge_unit_max``.
    """
    return contraction + lipschitz * radius * gauge_unit_max(cset)


def max_certified_radius(
    cset: PolytopeCSet, contraction: float, lipschitz: float, rho: float
) -> float:
    """Largest ball radius whose successor box stays inside ``rho * S``."""
    return (rho - contraction) / (lipschitz * gauge_unit_max(cset))


def contraction_window(
    cset: PolytopeCSet, contraction: float, lipschitz: float, radius: float
) -> tuple[float, float] | None:
    """Admissible scalings rho for a radius-r covering of ``rho * S``.

    Balls of this radius centered inside ``rho * S`` stay inside S and
    their successor boxes stay inside ``rho * S`` precisely when rho lies in
    ``[contraction + L * u * r, 1 - r * u]`` with u the unit-ball gauge
    maximum; an empty interval means the radius is too coarse.
    """
    u = gauge_unit_max(cset)
    lo = contraction + lipschitz * u * radius
    hi = 1.0 - radius * u
    if lo > hi:
        return None
    return (lo, hi)


def contraction_grid(rho: Fraction, tau: Fraction, lam: Fraction, lips: Fraction):
    """The cells of side 2·tau that tile [-rho, rho]^2, and each cell's
    successor box under the map x -> lam·x with Lipschitz bound lips:
    lam·c ± lips·tau around the cell's center c.  Every corner is a
    fraction, so ``exact_coverage`` decides on the exact geometry."""
    per_axis = rho / tau
    assert per_axis.denominator == 1, "2·rho must be a whole number of cells"
    faces = [-rho + 2 * k * tau for k in range(int(per_axis) + 1)]
    cells = [
        ((faces[i], faces[j]), (faces[i + 1], faces[j + 1]))
        for i in range(len(faces) - 1)
        for j in range(len(faces) - 1)
    ]
    reach = lips * tau
    successors = [
        (
            tuple(lam * (a + b) / 2 - reach for a, b in zip(lo, hi)),
            tuple(lam * (a + b) / 2 + reach for a, b in zip(lo, hi)),
        )
        for lo, hi in cells
    ]
    return cells, successors


def reference_csv_rows(rows: np.ndarray) -> bytes:
    """The CSV body of an (M, 2n) array formatted in one ``orjson`` call:
    each float as its shortest round-trip decimal, one row a line."""
    if not len(rows):
        return b""
    body = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)
    return body[2:-2].replace(b"],[", b"\n") + b"\n"


def _meta_value(raw: str):
    """An integer in orjson's range [-2^63, 2^64) spelled in plain decimal,
    else a finite float that ``json.dumps`` spells as ``raw``, else the text
    as written."""
    if re.fullmatch(r"0|-?[1-9][0-9]*", raw):
        # 20 characters hold 2^64 - 1 and -2^63; int() refuses 4301 digits.
        return int(raw) if len(raw) <= 20 and -(2 ** 63) <= int(raw) < 2 ** 64 else raw
    try:
        value = float(raw)
    except ValueError:
        return raw
    return value if math.isfinite(value) and json.dumps(value) == raw else raw


def _cells(content: str) -> list[float] | None:
    try:
        return [float(c) for c in content.split(",")]
    except ValueError:
        return None


def reference_load(text: str, path) -> tuple[list[list[float]], dict]:
    """The rows and metadata of a dataset CSV, read line by line in plain
    Python; a bad file raises the error class ``load_dataset`` raises, with
    the same ``path:line``.

    A line ends at \\n, \\r\\n or \\r.  A line whose first non-blank
    character is '#' is a comment, and its ``key=value`` tokens are
    metadata.  A line's content is its text before any '#', stripped of
    blanks; a line without content is skipped.  The first content line is
    a header when one of its cells is not a number.  The first data row
    fixes an even column count; every data row must hold that many numbers,
    and only then must every number be finite."""
    metadata = {}
    content = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        stripped = line.strip(" \t\f\v")
        if stripped.startswith("#"):
            for token in stripped[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    metadata[key] = _meta_value(value)
        body = line.split("#")[0].strip(" \t\f\v")
        if body:
            content.append((lineno, body))
    if content and _cells(content[0][1]) is None:
        content = content[1:]  # header
    if not content:
        raise EmptyDatasetError(f"{path}: no data rows")
    cols = len(content[0][1].split(","))
    if cols % 2:
        raise MalformedRowError(f"{path}:{content[0][0]}: odd column count {cols}")
    rows = []
    for lineno, body in content:
        row = _cells(body)
        if row is None:
            raise MalformedRowError(f"{path}:{lineno}: non-numeric cell")
        if len(row) != cols:
            raise MalformedRowError(f"{path}:{lineno}: {len(row)} columns")
        rows.append(row)
    for (lineno, _), row in zip(content, rows):
        if not all(map(math.isfinite, row)):
            raise NonFiniteSampleError(f"{path}:{lineno}: non-finite value")
    return rows, metadata
