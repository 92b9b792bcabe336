"""Independent certification of synthesized sets.

``check_fixpoint`` re-derives every active leaf's successor box from the
stored sample data and re-classifies it against the final union using only
the geometry primitives; it never looks at any synthesis bookkeeping, so a
certificate obtained from a deserialized result file stands on its own.
Its cover index is the result's own partition tree
(``PartitionTree.overlapping``): the certificate first checks that every
split tiles its parent exactly and re-derives the subtree counters from the
leaf labels, and only then lets the tree answer overlap queries.

``raster_coverage`` is a brute-force sampling oracle used to cross-validate
the exact classifier, and ``monte_carlo_invariance`` is a falsifier that
rolls true trajectories forward; only the exact check constitutes the
deterministic guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SystemOracle
from .geometry import (
    Box,
    BoxList,
    CoverageClass,
    GEOM_TOL,
    chebyshev,
    uncovered_fragments,
)
from .synthesis import ConfigError, SynthConfig, SynthResult

METHOD_EXACT = "exact-coverage"
METHOD_RASTER = "raster"
METHOD_MONTE_CARLO = "monte-carlo"


@dataclass
class Certificate:
    passed: bool
    checked_leaves: int
    first_failure: dict | None
    method: str


@dataclass
class RasterReport:
    covered_fraction: float
    verdict: CoverageClass


def check_fixpoint(
    result: SynthResult,
    config: SynthConfig | None = None,
) -> Certificate:
    """Exact re-certification of the final set.

    The recorded config must be valid (a finite positive Lipschitz bound
    and resolution floor).  The tree's cells must tile exactly (every split
    makes its parent's 2^n dyadic halves, in sign-vector order), every
    included leaf's sample ball must still contain its cell
    (``r >= r_target + dist``), and the sample's successor box of radius
    ``L * r`` must be fully covered by the union of included leaf cells.
    An empty union passes vacuously.  Raises when the supplied config
    disagrees with the one recorded in the result.
    """
    try:
        result.config.validate()
    except ConfigError as exc:
        return Certificate(False, 0, {"reason": f"invalid config: {exc}"}, METHOD_EXACT)
    if config is not None and config.lipschitz != result.config.lipschitz:
        raise ValueError(
            f"Lipschitz bound mismatch: result has {result.config.lipschitz}, "
            f"caller supplied {config.lipschitz}"
        )
    lipschitz = result.config.lipschitz
    tree = result.tree
    # The tree is the cover index below.  Its coarse answers stand for the
    # union of included leaves only if every split tiles its parent and the
    # subtree counters come from the leaf labels.
    untiled = tree.first_untiled()
    if untiled is not None:
        return Certificate(
            False,
            0,
            {"node": untiled, "reason": "children do not tile their parent"},
            METHOD_EXACT,
        )
    tree.recount()
    nodes = tree.nodes
    checked = 0
    for i in tree.active_leaves():
        checked += 1
        if nodes.radius[i] + GEOM_TOL < nodes.target_radius[i] + chebyshev(
            nodes.target_center[i], nodes.sample_x[i]
        ):
            return Certificate(
                False,
                checked,
                {"leaf": i, "reason": "sample ball does not contain the cell"},
                METHOD_EXACT,
            )
        # The successor box's rectangle, as Box(sample_xp, L * r).rect().
        r = lipschitz * nodes.radius[i]
        xp = nodes.sample_xp[i]
        succ = (tuple([c - r for c in xp]), tuple([c + r for c in xp]))
        leftovers = uncovered_fragments(succ, tree, limit=1)
        if leftovers:
            return Certificate(
                False,
                checked,
                {
                    "leaf": i,
                    "fragment": [list(leftovers[0][0]), list(leftovers[0][1])],
                },
                METHOD_EXACT,
            )
    return Certificate(True, checked, None, METHOD_EXACT)


def raster_coverage(query: Box, union: BoxList, cell: float) -> RasterReport:
    """Sampling oracle: covered fraction of a point grid over the query box.

    The grid uses at most ``cell`` pitch per axis (cell centers), so a
    covered or uncovered region thicker than the pitch cannot be missed;
    verdicts within one cell of a boundary are advisory only, the exact
    classifier is authoritative.
    """
    if cell <= 0.0 or cell > query.radius:
        raise ValueError(
            f"raster cell must lie in (0, query radius]; got {cell} "
            f"for radius {query.radius}"
        )
    lo, hi = query.rect()
    axes = []
    for l, h in zip(lo, hi):
        k = max(1, int(math.ceil((h - l) / cell - 1e-12)))
        pitch = (h - l) / k
        axes.append(l + (np.arange(k) + 0.5) * pitch)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    covered = np.zeros(len(pts), dtype=bool)
    for b in union:
        blo, bhi = b.rect()
        inside = np.ones(len(pts), dtype=bool)
        for d in range(query.dim):
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


class _UnionMembership:
    """Vectorized membership test for a box union.

    Rasterizes the union onto a uniform bitmap at the finest box side;
    cells fully inside some box are certain hits, untouched cells certain
    misses, and partially covered edge cells fall back to an exact scan of
    the boxes.
    Dyadic tilings align exactly, so their bitmaps have no uncertain cells.
    """

    def __init__(self, boxes: BoxList, max_cells: int = 1 << 22):
        self.boxes = boxes
        self.dim = boxes[0].dim
        glo, ghi = boxes.bounding_rect()
        self._glo = np.array(glo)
        self._ghi = np.array(ghi)
        pitch = min(2.0 * b.radius for b in boxes)
        if pitch <= 0.0:
            pitch = max(max(h - l for l, h in zip(glo, ghi)), 1.0)
        per_dim_cap = max(2, int(round(max_cells ** (1.0 / self.dim))))
        for l, h in zip(glo, ghi):
            if (h - l) / pitch > per_dim_cap:
                pitch = (h - l) / per_dim_cap
        self._pitch = pitch
        shape = tuple(
            max(1, int(math.ceil((h - l) / pitch - 1e-9))) for l, h in zip(glo, ghi)
        )
        self._shape = shape
        covered = np.zeros(shape, dtype=bool)
        uncertain = np.zeros(shape, dtype=bool)
        snap = 1e-9
        for b in boxes:
            lo, hi = b.rect()
            full = []
            touch = []
            for d in range(self.dim):
                a = (lo[d] - glo[d]) / pitch
                bb = (hi[d] - glo[d]) / pitch
                full.append(
                    slice(
                        max(0, int(math.ceil(a - snap))),
                        min(shape[d], int(math.floor(bb + snap))),
                    )
                )
                touch.append(
                    slice(
                        max(0, int(math.floor(a + snap))),
                        min(shape[d], int(math.ceil(bb - snap))),
                    )
                )
            covered[tuple(full)] = True
            region = np.zeros(shape, dtype=bool)
            region[tuple(touch)] = True
            region[tuple(full)] = False
            uncertain |= region
        self._covered = covered
        self._uncertain = uncertain & ~covered
        self._exact = boxes if self._uncertain.any() else None

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        inside_bbox = np.all(
            (pts >= self._glo - GEOM_TOL) & (pts <= self._ghi + GEOM_TOL), axis=1
        )
        idx = np.floor((pts - self._glo) / self._pitch).astype(np.int64)
        np.clip(idx, 0, np.array(self._shape) - 1, out=idx)
        keys = tuple(idx[:, d] for d in range(self.dim))
        result = self._covered[keys] & inside_bbox
        if self._exact is not None:
            maybe = self._uncertain[keys] & inside_bbox & ~result
            for j in np.nonzero(maybe)[0]:
                if self._exact.contains_point(tuple(pts[j])):
                    result[j] = True
        return result


def monte_carlo_invariance(
    pi_set: BoxList,
    oracle: SystemOracle,
    samples: int = 100_000,
    horizon: int = 50,
    seed: int = 0,
) -> Certificate:
    """Trajectory falsifier: roll the true map forward from points of the set.

    Draws points uniformly from the union (rejection over its bounding
    box), iterates the oracle ``horizon`` steps, and fails at the first
    iterate that leaves the union.  Passing is evidence, not proof; the
    exact coverage check is the guarantee.
    """
    if pi_set.is_empty:
        raise ValueError("cannot sample trajectories from an empty set")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    member = _UnionMembership(pi_set)
    rng = np.random.default_rng(seed)
    glo, ghi = pi_set.bounding_rect()
    lo = np.array(glo)
    hi = np.array(ghi)
    pts = np.empty((0, pi_set[0].dim))
    while len(pts) < samples:
        batch = rng.uniform(lo, hi, size=(max(samples, 4 * (samples - len(pts))), len(lo)))
        accepted = batch[member.contains(batch)]
        pts = np.vstack((pts, accepted))
    pts = pts[:samples]
    start = pts.copy()
    for step in range(1, horizon + 1):
        pts = oracle.map_points(pts)
        ok = member.contains(pts)
        if not ok.all():
            j = int(np.argmin(ok))
            return Certificate(
                False,
                samples,
                {
                    "step": step,
                    "start": list(map(float, start[j])),
                    "state": list(map(float, pts[j])),
                },
                METHOD_MONTE_CARLO,
            )
    return Certificate(True, samples, None, METHOD_MONTE_CARLO)
