"""Axis-aligned boxes in the max norm.

Every box is a ``Rect``: an axis-aligned rectangle carried as its
``(lo, hi)`` corners, each a sequence of floats.  The domain is one such
rectangle, and ``rect_to_cubes`` is the only code that cuts it into the
equal cubes that become the partition tree's roots.

All sets are closed: boundary contact counts as membership and as
intersection.  Whether a box is covered by the kept cells is decided by
the partition tree alone, in one walk that compares corners and takes no
tolerance (``PartitionTree.classify``); ``classify_coverage`` and
``uncovered_fragments`` are its entry points.

A successor box ``x⁺ ± L·r`` is classified by a float box that holds
it: ``successor_corners`` is the only code that rounds it, for many boxes
in one array pass, and rounds each corner outward by a proven bound.  A
verdict of FULLY_COVERED or DISJOINT on that box holds for the exact box
it contains; only a box whose exact corner lies within that bound of a
cell face may read PARTIAL where the exact box would not.
``balls_contain_cells`` decides exactly whether a sample ball contains a
cell.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

# Absolute slack of ``PartitionTree.overlapping``, its one user, which
# decides Monte Carlo membership.  No coverage decision uses it.
GEOM_TOL = 1e-12

# Most cubes ``rect_to_cubes`` tiles a domain with; each is a root of the
# partition tree.
MAX_DOMAIN_CUBES = 1 << 16

# Rows per block of ``successor_corners``: its arrays and Python lists of
# corners for a whole wave of the sweep would add to the peak memory of
# ``synth``.
_CORNER_ROWS = 256

# Rows per block of ``balls_contain_cells``.  It carries each difference
# with its rounding error, in several arrays the size of a block; blocks keep
# those off the peak memory of loading a result, where every node is checked.
_BALL_ROWS = 4096

Vec = tuple[float, ...]
Rect = tuple[Vec, Vec]


class DimensionMismatchError(ValueError):
    """Operands live in different state-space dimensions."""


class CoverageClass(Enum):
    """How a query box relates to a union of cover boxes."""

    FULLY_COVERED = "fully-covered"
    DISJOINT = "disjoint"
    PARTIAL = "partial"


def successor_corners(
    x_plus: Sequence[Vec], lipschitz: float, radius: Sequence[float]
) -> Iterator[tuple[list[float], list[float]]]:
    """For each row j, a float box ``(lo, hi)`` that holds the successor
    box of ``x_plus[j]``, ``lipschitz`` and ``radius[j]``: each corner
    rounded, then moved outward by a bound on its rounding error, as lists
    of Python floats.  Computed in array passes over blocks of rows.

    Rounding bound: with u = 2^-53, p = fl(L·r) is within u·L·r + 2^-1075
    of L·r, and fl(x ∓ p) within u·|x ∓ p| of x ∓ p; so each rounded corner
    is within 2^-52·(max|x| + 2p) + 2^-1074 of the exact one.  The slack
    s = (max|x| + 2p)·2^-51 + 2^-1073 is twice that, which also absorbs the
    rounding of ``fl(x - p) - s`` and ``fl(x + p) + s``: the box holds the
    exact one.  Where s is not finite, it is (-inf, inf) on every axis.

    Policy: coverage is decided on this box, exactly and once.  Whatever
    covers it covers the exact box, and whatever misses it misses the exact
    box, so FULLY_COVERED and DISJOINT are sound; a box whose exact corner
    lies within 2s of a cell face may read PARTIAL where the exact box
    would not.
    """
    for j in range(0, len(radius), _CORNER_ROWS):
        rows = x_plus[j:j + _CORNER_ROWS]
        x = np.fromiter(chain.from_iterable(rows), float, len(rows) * len(rows[0]))
        x = x.reshape(len(rows), -1)
        with np.errstate(over="ignore"):
            reach = lipschitz * np.array(radius[j:j + _CORNER_ROWS], dtype=float)
            s = ((np.abs(x).max(axis=1) + 2.0 * reach) * 2.0 ** -51 + 2.0 ** -1073)[:, None]
            lo = (x - reach[:, None]) - s
            hi = (x + reach[:, None]) + s
        yield from zip(lo.tolist(), hi.tolist())


def classify_coverage(query: Rect, tree) -> CoverageClass:
    """Three-way classification of a box against the included cells of a
    partition tree, decided exactly in one walk (``PartitionTree.classify``).

    FULLY_COVERED: the query minus the included cells has zero volume.
    DISJOINT: no included cell meets the query, not even along a boundary.
    PARTIAL: otherwise.
    """
    return tree.classify(query)


def uncovered_fragments(query: Rect, tree) -> list[Rect]:
    """A fragment of the query that no included cell covers, cut from the
    first gap the tree's walk finds, as a one-item list; empty when the
    query is covered."""
    fragment = tree.uncovered(query)
    return [] if fragment is None else [fragment]


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
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    held = np.ones(len(r), dtype=bool)
    for j in range(0, len(r), _BALL_ROWS):
        rows = slice(j, j + _BALL_ROWS)
        for a, b in ((x[rows], -lo[rows]), (hi[rows], -x[rows])):
            d, err = _two_sum(a, b)
            held[rows] &= ((r[rows] > d) | ((r[rows] == d) & (err <= 0.0))).all(axis=1)
    return held


def rect_to_cubes(lo: Sequence[float], hi: Sequence[float]) -> tuple[np.ndarray, float]:
    """Tile an axis-aligned rectangle with equal cubes: their centers as a
    ``(k, n)`` array, last axis fastest, and their radius.

    The cubes' side is the rectangle's shortest side.  Their faces,
    ``center ± radius``, must tile the rectangle exactly in floating point:
    on each axis consecutive cubes share a face, and the outer faces are
    ``lo`` and ``hi``.  Otherwise a ValueError names the axis and the two
    faces that differ, since the sliver between them would belong to no
    root cell.  A cube yields a single center.  A corner that is not
    finite, a volume that is not a finite float (the tree's volume sums the
    cells' volumes) or a tiling of more than ``MAX_DOMAIN_CUBES`` cubes is
    refused with a ValueError before any cube is built.  The partition tree
    takes no other root set (``new_tree``, ``PartitionTree.from_columns``).
    """
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    if len(lo) != len(hi):
        raise DimensionMismatchError("corner dimensions differ")
    for name, corner in (("lower", lo), ("upper", hi)):
        if not all(map(math.isfinite, corner)):
            raise ValueError(f"domain {name} corner {corner} is not finite")
    widths = [b - a for a, b in zip(lo, hi)]
    if any(w <= 0 for w in widths):
        raise ValueError(f"degenerate domain rectangle {lo}..{hi}")
    if not math.isfinite(math.prod(widths)):
        raise ValueError(f"the volume of domain rectangle {lo}..{hi} is not a finite float")
    side = min(widths)
    ratios = [w / side for w in widths]
    if not math.prod(ratios) <= MAX_DOMAIN_CUBES:  # also refuses inf and nan
        raise ValueError(
            f"domain rectangle {lo}..{hi} needs more than {MAX_DOMAIN_CUBES} "
            f"cubes of side {side!r}"
        )
    radius = side / 2.0
    axes = []
    for d, (a, b, r) in enumerate(zip(lo, hi, ratios)):
        centers = [a + (2 * k + 1) * radius for k in range(round(r))]
        faces = [a, *(f for c in centers for f in (c - radius, c + radius)), b]
        for x, y in zip(faces[::2], faces[1::2]):
            if x != y:
                raise ValueError(
                    f"domain is not tileable by equal cubes: on axis {d}, "
                    f"faces {x!r} and {y!r} differ"
                )
        axes.append(centers)
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, len(lo)), radius
