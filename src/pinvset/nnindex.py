"""The exact max-norm nearest-neighbour index behind ``Dataset.nearest``.

``CellIndex`` answers with the sample a linear scan finds: the lowest index
among every sample at the least distance ``max_d |x_d - q_d|``, computed
in floating point.  It is numpy only: no pinvset module
imports scipy.  ``Dataset`` imports
this module on its first query, so commands that ask for no neighbour
never load it.

The index is an implicit 2^n-tree of cells (a quadtree in the plane;
Bentley, Weide & Yao 1980 for cells, Friedman, Bentley & Finkel 1977 for
pruning by bounding boxes).  The samples are
sorted by the Morton code of their leaf cell, so the cells of every level
are runs of that order, and each cell keeps the bounding box of its own
samples.  A batch of queries is answered level by level, vectorised over
the batch: a greedy descent into the child with the nearest box gives
each query an upper bound ``U`` (the distance to a real sample), and a
second descent keeps every cell whose box lies within ``U``.  Every sample
at distance ``U`` or less is then compared, so the lowest index among the
tied samples comes straight out of the comparison.

Why it is exact: a cell's lower bound is ``max_d max(lo_d - q_d, q_d -
hi_d)``, computed with the same rounded subtraction as the distance, and
``lo``/``hi`` are real sample coordinates.  Rounding is monotone and
symmetric, so for a sample ``x`` of the cell ``fl(lo_d - q_d) <= fl(x_d -
q_d)`` and ``fl(q_d - hi_d) <= -fl(x_d - q_d)``: the bound never exceeds
the computed distance of any of the cell's samples.  A pruned cell holds
no sample at distance ``U`` or less.  How samples are keyed into cells
affects the speed only, never the answer, and no rounding margin is
needed.  A query far from the data stays cheap: the greedy descent finds
a sample near the data's face, and boxes prune the rest of it.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# The NN index splits a cell only while its children would hold at least
# this many samples on average.
_LEAF_SAMPLES = 2

# (query, cell) pairs that one pass of the NN index budgets for: a block
# of queries is small enough that each query's child slots and largest
# leaf fit in it.
_BLOCK_PAIRS = 1 << 18


def _spread_bits(n: int) -> np.ndarray:
    """For every byte value, the value with its bit b moved to bit b * n."""
    byte = np.arange(256, dtype=np.uint64)
    table = np.zeros(256, dtype=np.uint64)
    for b in range(8):
        table |= (byte >> np.uint64(b) & np.uint64(1)) << np.uint64(b * n)
    return table


def _runs(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``starts[i] + j`` with ``0 <= j < counts[i]``, in order of i,
    and the i of each."""
    ends = np.cumsum(counts)
    rows = np.repeat(np.arange(len(counts)), counts)
    return np.arange(ends[-1]) - (ends - counts - starts)[rows], rows


def _gaps(lo: list, hi: list, cells: np.ndarray, q: list) -> np.ndarray:
    """Per pair, ``max_d max(lo_d - q_d, q_d - hi_d)`` for the box of cell
    ``cells[i]`` and the query coordinates ``q[d][i]``: a lower bound on
    the distance from the query to every sample of the cell."""
    return reduce(np.maximum, (
        np.maximum(l[cells] - c, c - h[cells]) for l, h, c in zip(lo, hi, q)
    ))


def _distances(cols: list, samples: np.ndarray, q: list) -> np.ndarray:
    """Per pair, ``max_d |x_d - q_d|`` for sample ``samples[i]`` and the
    query coordinates ``q[d][i]``."""
    return reduce(np.maximum, (np.abs(x[samples] - c) for x, c in zip(cols, q)))


class CellIndex:
    """Exact max-norm nearest neighbors over an implicit 2^n-tree of cells.

    The tree has ``depth`` levels below its root, as many as leave at
    least ``_LEAF_SAMPLES`` samples per leaf on average.  A sample's leaf
    is found by cutting the data's bounding box into 2^depth equal slabs
    per axis, and the samples are sorted by the Morton code of their leaf,
    so each cell of any level is a run of that order.  Each level stores
    the bounding boxes of its non-empty cells, with one empty box at the
    end (lower corner +inf, upper -inf), and each cell above the leaves its
    2^n child slots; an empty child points at the empty box, whose lower
    bound is +inf (``query`` refuses queries at no finite distance).  The
    module docstring says why the answer is exact.
    """

    def __init__(self, x: np.ndarray):
        m, n = x.shape
        depth = 0
        while depth < 63 // n and m >> n * (depth + 1) >= _LEAF_SAMPLES:
            depth += 1
        self.fan = 1 << n if depth else 0  # child slots per cell; one leaf has none
        side = 1 << depth
        spread = _spread_bits(n)
        self.cols = [x[:, d] for d in range(n)]
        self.lo = np.array([col.min() for col in self.cols])
        self.hi = np.array([col.max() for col in self.cols])
        code = np.zeros(m, dtype=np.uint64)
        for d, (col, lo, span) in enumerate(zip(self.cols, self.lo, self.hi - self.lo)):
            key = np.zeros(m, dtype=np.uint64)
            if 0.0 < span < math.inf:
                key = np.minimum(np.floor((col - lo) / span * side), side - 1).astype(np.uint64)
            for b in range(0, depth, 8):
                code |= spread[key >> np.uint64(b) & np.uint64(255)] << np.uint64(b * n + n - 1 - d)
        self.order = np.argsort(code, kind="stable")
        code = code[self.order]
        self.start = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        self.count = np.diff(np.r_[self.start, m])
        code = code[self.start]
        lo, hi = [], []
        for col in self.cols:
            ordered = col[self.order]
            lo.append(np.minimum.reduceat(ordered, self.start))
            hi.append(np.maximum.reduceat(ordered, self.start))
        # levels[l]: the boxes of the cells at depth l + 1, and the child
        # slots of the cells at depth l (the root is cell 0 at depth 0).
        self.levels = []
        for _ in range(depth):
            up = code >> np.uint64(n)
            new = np.r_[True, up[1:] != up[:-1]]
            child = np.full((int(new.sum()), self.fan), len(code))
            slot = (code & np.uint64(self.fan - 1)).astype(np.intp)
            child[np.cumsum(new) - 1, slot] = np.arange(len(code))
            self.levels.append((
                [np.append(a, math.inf) for a in lo],
                [np.append(a, -math.inf) for a in hi],
                child.ravel(),
            ))
            first = np.flatnonzero(new)
            lo = [np.minimum.reduceat(a, first) for a in lo]
            hi = [np.maximum.reduceat(a, first) for a in hi]
            code = up[first]
        self.levels.reverse()

    def query(self, qs: np.ndarray) -> np.ndarray:
        """Indices of the nearest samples to a (k, n) batch."""
        if not len(qs):
            return np.zeros(0, dtype=np.intp)
        q = np.ascontiguousarray(qs.T)
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.maximum(q.max(axis=1), self.hi) - np.minimum(q.min(axis=1), self.lo)
        if not np.isfinite(reach).all():
            raise ValueError("queries must be finite, with finite distances to the samples")
        size = max(_BLOCK_PAIRS // (self.fan + int(self.count.max())), 1)
        starts = range(0, len(qs), size)
        return np.concatenate([self._block(list(q[:, s:s + size])) for s in starts])

    def _bound(self, q: list) -> np.ndarray:
        """Per query, an upper bound on its nearest distance: the distance
        to the nearest sample of the leaf reached by stepping, level by
        level, into the child whose box is nearest."""
        k = len(q[0])
        cells = np.zeros(k, dtype=np.intp)
        slots = np.arange(self.fan)
        fanned = [np.repeat(c, self.fan) for c in q]
        for lo, hi, child in self.levels:
            kids = child[cells[:, None] * self.fan + slots]
            gaps = _gaps(lo, hi, kids.ravel(), fanned).reshape(k, self.fan)
            cells = kids[np.arange(k), gaps.argmin(axis=1)]
        counts = self.count[cells]
        ranks, rows = _runs(self.start[cells], counts)
        dist = _distances(self.cols, self.order[ranks], [c[rows] for c in q])
        return np.minimum.reduceat(dist, np.cumsum(counts) - counts)

    def _block(self, q: list) -> np.ndarray:
        """``query`` for queries given as n coordinate columns."""
        bound = self._bound(q)
        rows = np.arange(len(q[0]))
        cells = np.zeros_like(rows)
        slots = np.arange(self.fan)
        for lo, hi, child in self.levels:
            cells = child[cells[:, None] * self.fan + slots].ravel()
            rows = np.repeat(rows, self.fan)
            near = _gaps(lo, hi, cells, [c[rows] for c in q]) <= bound[rows]
            cells, rows = cells[near], rows[near]
        # Every query keeps the cells of its nearest samples, and rows
        # stays sorted, so each query's pairs form one run.
        ranks, pairs = _runs(self.start[cells], self.count[cells])
        rows, samples = rows[pairs], self.order[ranks]
        dist = _distances(self.cols, samples, [c[rows] for c in q])
        first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        best = np.minimum.reduceat(dist, first)
        tied = np.where(dist == best[rows], samples, len(self.order))
        return np.minimum.reduceat(tied, first)
