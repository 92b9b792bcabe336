"""Axis-aligned box algebra in the max norm.

A ``Box`` is a closed max-norm ball: a hypercube given by a center and a
half-width.  Intersections and subtraction fragments are general axis-aligned
hyperrectangles, carried as ``(lo, hi)`` corner-tuple pairs so the hot loops
stay allocation-light.

All sets are closed: boundary contact counts as membership and as
intersection.  Coverage of a box by a ``BoxList`` is decided by fragment
subtraction with the slack ``GEOM_TOL``, never by sampling, so an exactly
tiled union classifies as fully covering; it is the independent reference
for the partition tree, which decides coverage with no tolerance
(``PartitionTree.classify``).

A successor box is built once, by ``successor_rect``: its float corners, a
proven bound on their rounding and, on demand, its exact corners as
fractions.  ``balls_contain_cells`` decides exactly whether a sample ball
contains a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# Absolute slack of the BoxList reference, of ``PartitionTree.overlapping``,
# of Monte Carlo membership and of ``new_tree``'s overlap check.  The sweep
# and the certificate use none.
GEOM_TOL = 1e-12

Vec = tuple[float, ...]
Rect = tuple[Vec, Vec]


class DimensionMismatchError(ValueError):
    """Operands live in different state-space dimensions."""


class CoverageClass(Enum):
    """How a query box relates to a union of cover boxes."""

    FULLY_COVERED = "fully-covered"
    DISJOINT = "disjoint"
    PARTIAL = "partial"


@dataclass(frozen=True, slots=True)
class Box:
    """Closed max-norm ball: ``{y : max_i |center_i - y_i| <= radius}``."""

    center: Vec
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"box center must be finite, got {self.center}")
        if not self.radius >= 0.0:  # NaN fails too
            raise ValueError(f"box radius must be nonnegative, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def rect(self) -> Rect:
        r = self.radius
        return (
            tuple(c - r for c in self.center),
            tuple(c + r for c in self.center),
        )

    def volume(self) -> float:
        return (2.0 * self.radius) ** self.dim

    def contains_point(self, y: Sequence[float]) -> bool:
        if len(y) != self.dim:
            raise DimensionMismatchError(
                f"point has dim {len(y)}, box has dim {self.dim}"
            )
        r = self.radius + GEOM_TOL
        return all(abs(c - v) <= r for c, v in zip(self.center, y))


@dataclass(frozen=True, slots=True)
class BoxList:
    """Ordered union of boxes; may be empty (the empty set)."""

    boxes: tuple[Box, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        dims = {b.dim for b in self.boxes}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed box dimensions {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes)

    def __getitem__(self, i: int) -> Box:
        return self.boxes[i]

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def volume(self) -> float:
        # Assumes pairwise-disjoint interiors, which holds for tree tilings.
        return math.fsum(b.volume() for b in self.boxes)

    def contains_point(self, y: Sequence[float]) -> bool:
        return any(b.contains_point(y) for b in self.boxes)

    def overlapping(self, qlo: Vec, qhi: Vec) -> list[Rect]:
        if self.boxes and (len(qlo) != self.boxes[0].dim or len(qhi) != len(qlo)):
            raise DimensionMismatchError(
                f"probe of dim {len(qlo)} does not match union dim {self.boxes[0].dim}"
            )
        out = []
        for b in self.boxes:
            lo, hi = b.rect()
            if rects_intersect(lo, hi, qlo, qhi):
                out.append((lo, hi))
        return out


class Successor(NamedTuple):
    """The rectangle ``x_plus ± L·r`` of a successor box, from ``successor_rect``.

    ``lo`` and ``hi`` are its corners rounded to floats; each lies within
    ``slack`` of the exact corner of the stored floats ``x_plus``,
    ``lipschitz`` and ``radius``, which ``exact()`` returns as fractions.
    """

    lo: Vec
    hi: Vec
    slack: float
    x_plus: Vec
    lipschitz: float
    radius: float

    def exact(self) -> tuple[tuple, tuple]:
        from fractions import Fraction

        reach = Fraction(self.lipschitz) * Fraction(self.radius)
        center = [Fraction(c) for c in self.x_plus]
        return tuple([c - reach for c in center]), tuple([c + reach for c in center])


def successor_rect(x_plus: Vec, lipschitz: float, r: float) -> Successor:
    """The rectangle of the successor box ``Box(x_plus, lipschitz * r)``.

    With u = 2^-53, p = fl(L·r) is within u·L·r + 2^-1075 of L·r, and
    fl(x ∓ p) within u·|x ∓ p| of x ∓ p; so each corner is within
    2^-52·(max|x| + 2p) + 2^-1074 of the exact one.  ``slack`` is twice
    that, which also absorbs the rounding of ``corner ± slack``.
    """
    reach = lipschitz * r
    return Successor(
        tuple([c - reach for c in x_plus]),
        tuple([c + reach for c in x_plus]),
        (max(map(abs, x_plus)) + 2.0 * reach) * 2.0 ** -51 + 2.0 ** -1073,
        x_plus,
        lipschitz,
        r,
    )


def as_rect(obj: Box | Rect) -> Rect:
    if isinstance(obj, Box):
        return obj.rect()
    lo, hi = obj
    return tuple(map(float, lo)), tuple(map(float, hi))


def rect_volume(rect: Rect) -> float:
    lo, hi = rect
    v = 1.0
    for a, b in zip(lo, hi):
        w = b - a
        if w <= 0.0:
            return 0.0
        v *= w
    return v


def rects_intersect(alo: Vec, ahi: Vec, blo: Vec, bhi: Vec) -> bool:
    """Closed intersection test; boundary contact counts."""
    for al, ah, bl, bh in zip(alo, ahi, blo, bhi):
        if (al if al > bl else bl) > (ah if ah < bh else bh) + GEOM_TOL:
            return False
    return True


def _overlap_positive(alo: Vec, ahi: Vec, blo: Vec, bhi: Vec) -> bool:
    """True when the overlap has positive width in every dimension; both
    rectangles must have the same dimension."""
    tol = GEOM_TOL
    for d in range(len(alo)):
        ah = ahi[d]
        bh = bhi[d]
        al = alo[d]
        bl = blo[d]
        if (ah if ah < bh else bh) - (al if al > bl else bl) <= tol:
            return False
    return True


def box_intersect(a: Box | Rect, b: Box | Rect) -> Rect | None:
    """Coordinatewise intersection, or None when empty.

    The result is a hyperrectangle, not generally a cube.  Contact along a
    face returns the degenerate (zero-width) rectangle, consistent with the
    closed-set convention.
    """
    alo, ahi = as_rect(a)
    blo, bhi = as_rect(b)
    if len(alo) != len(blo):
        raise DimensionMismatchError(
            f"cannot intersect boxes of dim {len(alo)} and {len(blo)}"
        )
    lo = tuple(max(x, y) for x, y in zip(alo, blo))
    hi = tuple(min(x, y) for x, y in zip(ahi, bhi))
    for a_, b_ in zip(lo, hi):
        if a_ > b_ + GEOM_TOL:
            return None
    return lo, hi


def box_subtract(query: Box | Rect, cover: Box | Rect) -> list[Rect]:
    """Decompose ``query \\ cover`` into disjoint hyperrectangles.

    Coordinate sweep: at most two fragments per dimension, fragments have
    pairwise-disjoint interiors, and their total volume equals
    ``vol(query) - vol(query & cover)``.  A cover that removes no volume
    (disjoint or face contact only) returns the query unchanged.  Fragments
    thinner than ``GEOM_TOL`` in any dimension are dropped.
    """
    qlo, qhi = as_rect(query)
    clo, chi = as_rect(cover)
    if len(qlo) != len(clo):
        raise DimensionMismatchError(
            f"cannot subtract boxes of dim {len(clo)} from dim {len(qlo)}"
        )
    if not _overlap_positive(qlo, qhi, clo, chi):
        return [(qlo, qhi)]
    return _cut(qlo, qhi, clo, chi)


def _cut(qlo: Vec, qhi: Vec, clo: Vec, chi: Vec) -> list[Rect]:
    """The coordinate sweep of ``box_subtract`` on corner tuples whose
    overlap is already known to be positive."""
    tol = GEOM_TOL
    lo = list(qlo)
    hi = list(qhi)
    pieces: list[Rect] = []
    for d in range(len(lo)):
        c = clo[d]
        if c > lo[d] + tol:
            phi = hi.copy()
            phi[d] = c
            if all(b - a > tol for a, b in zip(lo, phi)):
                pieces.append((tuple(lo), tuple(phi)))
            lo[d] = c
        c = chi[d]
        if c < hi[d] - tol:
            plo = lo.copy()
            plo[d] = c
            if all(b - a > tol for a, b in zip(plo, hi)):
                pieces.append((tuple(plo), tuple(hi)))
            hi[d] = c
    # The remaining core [lo, hi] is query & cover and is discarded.
    return pieces


def _escaping(qlo: Vec, qhi: Vec, covers: list[Rect]) -> Iterator[Rect]:
    """Fragments of the query that survive every cover, depth-first.

    Each fragment meets the covers in list order and is cut only by the
    next cover that removes volume from it, so a consumer that stops at the
    first escaping fragment does no further subtraction.
    """
    ncov = len(covers)
    stack: list[tuple[Vec, Vec, int]] = [(qlo, qhi, 0)]
    while stack:
        flo, fhi, i = stack.pop()
        while i < ncov:
            clo, chi = covers[i]
            if _overlap_positive(flo, fhi, clo, chi):
                break
            i += 1
        else:
            yield flo, fhi
            continue
        i += 1
        stack.extend([(plo, phi, i) for plo, phi in _cut(flo, fhi, clo, chi)])


def classify_coverage(query: Box | Rect | Successor, union) -> CoverageClass:
    """Three-way classification of a box against a union of boxes.

    FULLY_COVERED: the query minus all cover boxes has zero volume.
    DISJOINT: no cover box meets the query, not even along a boundary.
    PARTIAL: otherwise.

    The union is the partition tree, which decides exactly in one walk
    (``PartitionTree.classify``; a ``Successor`` query is for it), or a
    ``BoxList``, the reference: the first fragment of the query that
    escapes every cover settles the verdict as PARTIAL, running out of
    fragments settles FULLY_COVERED, and overlaps thinner than
    ``GEOM_TOL`` do not count.
    """
    if not isinstance(union, BoxList):
        return union.classify(query)
    qlo, qhi = as_rect(query)
    covers = union.overlapping(qlo, qhi)
    if not covers:
        return CoverageClass.DISJOINT
    if next(_escaping(qlo, qhi, covers), None) is not None:
        return CoverageClass.PARTIAL
    return CoverageClass.FULLY_COVERED


def uncovered_fragments(
    query: Box | Rect | Successor, union, limit: int | None = None
) -> list[Rect]:
    """Fragments of the query left uncovered by the union (possibly none),
    at most ``limit`` of them.  A ``BoxList`` lists them by subtraction;
    the partition tree names one, cut from the first gap its walk finds."""
    if not isinstance(union, BoxList):
        fragment = union.uncovered(query)
        return [] if fragment is None or limit == 0 else [fragment]
    qlo, qhi = as_rect(query)
    return list(islice(_escaping(qlo, qhi, union.overlapping(qlo, qhi)), limit))


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b as the rounded sum and its exact error (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def balls_contain_cells(radius, lo, hi, sample) -> np.ndarray:
    """Row by row, exactly whether the sample ball ``[x - r, x + r]``
    contains the cell ``[lo, hi]``: ``r >= x - lo`` and ``r >= hi - x`` on
    every axis, which for a cell ``c ± r_target`` is
    ``r >= r_target + max_d |c_d - x_d|``.

    Each difference is carried as its rounded value and its exact error.
    Rounding is monotone, so r decides against the rounded value unless the
    two are equal, and then the sign of the error does.
    """
    r = np.asarray(radius, dtype=float)[:, None]
    x = np.asarray(sample, dtype=float)
    held = np.ones(len(r), dtype=bool)
    for a, b in ((x, -np.asarray(lo, dtype=float)), (np.asarray(hi, dtype=float), -x)):
        d, err = _two_sum(a, b)
        held &= ((r > d) | ((r == d) & (err <= 0.0))).all(axis=1)
    return held


def successor_box(pair, r: float, lipschitz: float) -> Box:
    """Over-approximation of the one-step image of the ball around a sample.

    For a map with max-norm Lipschitz bound L, every state within r of the
    sampled state maps within L*r of the sampled successor, so the image of
    the radius-r ball lies inside the radius ``L*r`` ball at ``x_plus``.
    """
    if lipschitz <= 0.0:
        raise ValueError(f"Lipschitz bound must be positive, got {lipschitz}")
    if r < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {r}")
    return Box(pair.x_plus, lipschitz * r)


def chebyshev(a: Sequence[float], b: Sequence[float]) -> float:
    """Max-norm distance between two points."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"points of dim {len(a)} and {len(b)}")
    return max(abs(x - y) for x, y in zip(a, b))


def rect_to_cubes(lo: Sequence[float], hi: Sequence[float]) -> BoxList:
    """Tile an axis-aligned rectangle with equal cubes.

    Every side must be an integer multiple of the shortest side, to within
    a relative 1e-9; otherwise the rectangle has no equal-cube tiling and a
    ValueError is raised.  A cube yields a single box.
    """
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    if len(lo) != len(hi):
        raise DimensionMismatchError("corner dimensions differ")
    widths = [b - a for a, b in zip(lo, hi)]
    if any(w <= 0 for w in widths):
        raise ValueError(f"degenerate domain rectangle {lo}..{hi}")
    side = min(widths)
    counts = []
    for w in widths:
        k = w / side
        ki = round(k)
        if ki < 1 or abs(k - ki) > 1e-9:
            raise ValueError(
                "domain is not tileable by equal cubes: "
                f"side ratio {k} is not an integer"
            )
        counts.append(ki)
    radius = side / 2.0
    boxes = []
    idx = [0] * len(lo)
    while True:
        center = tuple(lo[d] + (2 * idx[d] + 1) * radius for d in range(len(lo)))
        boxes.append(Box(center, radius))
        d = len(lo) - 1
        while d >= 0:
            idx[d] += 1
            if idx[d] < counts[d]:
                break
            idx[d] = 0
            d -= 1
        if d < 0:
            break
    return BoxList(tuple(boxes))

