"""Axis-aligned boxes in the max norm.

Every box is a ``Rect``: an axis-aligned rectangle carried as its
``(lo, hi)`` corner tuples.  The domain is one such rectangle, and
``rect_to_cubes`` is the only code that cuts it into the equal cubes that
become the partition tree's roots.

All sets are closed: boundary contact counts as membership and as
intersection.  Whether a box is covered by the kept cells is decided by
the partition tree alone, in one walk that compares corners and takes no
tolerance (``PartitionTree.classify``); ``classify_coverage`` and
``uncovered_fragments`` are its entry points.

A successor box is built once, by ``successor_rect``: its float corners, a
proven bound on their rounding and, on demand, its exact corners as
fractions.  ``successor_corners`` gives the same corners and bound for many
boxes in one array pass, widened as ``PartitionTree.classify`` widens them.
``balls_contain_cells`` decides exactly whether a sample ball contains a
cell.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# Absolute slack of ``PartitionTree.overlapping`` and of Monte Carlo
# membership.  No coverage decision uses it.
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
    """The rectangle of the successor box: the cube of radius ``lipschitz * r``
    around ``x_plus``.

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


def successor_corners(
    x_plus: Sequence[Vec], lipschitz: float, radius: Sequence[float]
) -> Iterator[tuple[float, list[float], list[float], list[float], list[float]]]:
    """``successor_rect(x_plus[j], lipschitz, radius[j])`` for each row j,
    as ``PartitionTree.classify`` widens it: the slack and the intervals
    [l0, l1] of the low corner and [h0, h1] of the high corner (each
    ``corner ∓ slack``), as Python floats.  Computed in array passes over
    blocks of rows, bit-equal to the scalar code: the same IEEE operations
    in the same order.  Where the slack is not finite, the widened corners
    settle nothing, and the caller takes the scalar path."""
    for j in range(0, len(radius), _CORNER_ROWS):
        rows = x_plus[j:j + _CORNER_ROWS]
        x = np.fromiter(chain.from_iterable(rows), float, len(rows) * len(rows[0]))
        x = x.reshape(len(rows), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            reach = lipschitz * np.array(radius[j:j + _CORNER_ROWS], dtype=float)
            lo = x - reach[:, None]
            hi = x + reach[:, None]
            slack = (np.abs(x).max(axis=1) + 2.0 * reach) * 2.0 ** -51 + 2.0 ** -1073
            s = slack[:, None]
            corners = (lo - s, lo + s, hi - s, hi + s)
        yield from zip(slack.tolist(), *(c.tolist() for c in corners))


def as_rect(obj: Rect) -> Rect:
    lo, hi = obj
    return tuple(map(float, lo)), tuple(map(float, hi))


def classify_coverage(query: Rect | Successor, tree) -> CoverageClass:
    """Three-way classification of a box against the included cells of a
    partition tree, decided exactly in one walk (``PartitionTree.classify``).

    FULLY_COVERED: the query minus the included cells has zero volume.
    DISJOINT: no included cell meets the query, not even along a boundary.
    PARTIAL: otherwise.
    """
    return tree.classify(query)


def uncovered_fragments(query: Rect | Successor, tree) -> list[Rect]:
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
