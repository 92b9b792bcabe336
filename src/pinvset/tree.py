"""Dyadic subdivision tree over the state constraint set, stored as columns.

A node is a row number: row i of each column of ``PartitionTree.nodes``
holds node i's target box (the partition cell), the sample pair nearest to
its target center, the radius ``r = r_target + dist`` of the
sample-centered ball that contains the cell (``ball_radii``), its parent,
its first child (-1 for a leaf) and its label.  A split appends its 2^n
children after every existing node as one contiguous block in sign-vector
order.  Leaves carry a membership label with respect to the live candidate
set; interior nodes are purely structural.

One rule says how a column is stored: a list where the walks read it one
node at a time, a numpy array otherwise.  The lists are the corners
``lo``/``hi`` (tuples), the parent, the first child and the status, where
a list index is the cheapest read.  The arrays are the target center and
radius, the sample pair, its index, the ball radius and the label, read a
wave or a leaf set at a time and grown once per wave.  The walk needs no
center: a split cell's center is the low corner of its last child, the one
of sign vector (+1, ..., +1).  A single label is read as a Python int: a
numpy scalar compared with a ``Label`` costs many times more.

The roots are the cubes ``rect_to_cubes`` cuts from one rectangle,
``root_bounds``, whose faces tile it exactly; a root's corners ``lo``/``hi``
are its ``center ± radius``.  One rule, ``PartitionTree._split``, makes
every other cell, cutting its parent at the parent's center, so the
children tile their parent exactly in floating point, whatever the roots.
``new_tree``, ``divide`` and ``from_columns`` make no other cells: a tree
is a tiling by construction, in memory and when loaded.  So the result
file stores ``root_bounds`` and the parent column, not the cells or the
radii: ``from_columns`` derives every cell from them, and its radius too.

A node's status says whether all (True), none (False) or some (None) of
the leaves below it are INCLUDED, so that a coverage walk (``classify``)
settles a True or False subtree at its root instead of walking its leaves;
it compares corners only and needs no tolerance.  A split changes no
status, and a relabeling stops at the first ancestor that keeps its own.
``recount`` re-derives the statuses from the leaf labels alone, for trees
from a file and for the verifier, which trusts no bookkeeping.

The tree is a single-writer structure: divisions and relabelings must be
serialized.  Read-only traversals (leaf enumeration, coverage probes) are
safe to run concurrently with each other, not with writes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .dataset import Dataset
from .geometry import (
    CoverageClass,
    DimensionMismatchError,
    GEOM_TOL,
    Rect,
    Vec,
    balls_contain_cells,
    rect_to_cubes,
)


def _slab(dim: int, axis: int, a: float, b: float) -> Rect:
    """The region a < x[axis] < b, as corners with infinite bounds elsewhere."""
    lo, hi = [-math.inf] * dim, [math.inf] * dim
    lo[axis], hi[axis] = a, b
    return tuple(lo), tuple(hi)


class Label(IntEnum):
    INCLUDED = 1
    EXCLUDED = 0
    UNKNOWN = -1


class TreeStructureError(ValueError):
    """Operation applied to a node whose role does not permit it."""


class LabelTransitionError(ValueError):
    """Attempted relabeling that would re-activate a retired leaf."""


@dataclass
class Nodes:
    """The node table: row i of each column is node i.  The vector columns
    are C-contiguous (k, n) float64 arrays, ``target_radius`` and ``radius``
    (k,) float64 arrays, ``sample_index`` a (k,) int64 array and ``label``
    a (k,) int8 array of ``Label`` values; the rest are lists (see the
    module docstring)."""

    parent: list[int]
    first_child: list[int]
    target_center: np.ndarray
    target_radius: np.ndarray
    lo: list[Vec]
    hi: list[Vec]
    sample_index: np.ndarray
    sample_x: np.ndarray
    sample_xp: np.ndarray
    radius: np.ndarray
    label: np.ndarray
    status: list[bool | None]  # all / no / some leaves included

    @classmethod
    def empty(cls, dim: int) -> Nodes:
        vectors = np.empty((0, dim))
        return cls(
            parent=[], first_child=[], target_center=vectors, target_radius=np.empty(0),
            lo=[], hi=[], sample_index=np.empty(0, dtype=np.int64), sample_x=vectors,
            sample_xp=vectors, radius=np.empty(0), label=np.empty(0, dtype=np.int8),
            status=[],
        )

    def __len__(self) -> int:
        return len(self.parent)


def _rows(a: np.ndarray) -> list[Vec]:
    """The rows of a (k, n) array as tuples of floats, built column-wise:
    about twice as fast as a tuple of each row of ``a.tolist()``."""
    return list(zip(*a.T.tolist()))


def _first_children(parents: list[int], fanout: int) -> np.ndarray:
    """Each node's first child (-1 for a leaf), from the parent column.  A
    parent must be an earlier node (-1 for a root), and the children of a
    node one contiguous block of ``fanout`` nodes, as ``divide`` makes.  A
    fault is named where a scan in node order would first meet it."""
    count = len(parents)
    try:
        par = np.array(parents, dtype=np.int64)
    except OverflowError:  # a parent past 64 bits, which is no earlier node either
        par = np.array([p if -1 <= p < count else count for p in parents], dtype=np.int64)
    stray = (par != -1) & ((par < 0) | (par >= np.arange(count)))  # not an earlier node
    kids = np.flatnonzero((par != -1) & ~stray)
    first = np.full(count, count, dtype=np.int64)
    np.minimum.at(first, par[kids], kids)
    # A child after its parent's first must follow a sibling, within the block.
    offset = kids - first[par[kids]]
    loose = kids[(offset > 0) & ((par[kids - 1] != par[kids]) | (offset >= fanout))]
    i = min(np.flatnonzero(stray)[:1].tolist() + loose[:1].tolist(), default=None)
    if i is not None:
        reason = (
            "which is not an earlier node" if stray[i]
            else f"whose children are not one contiguous block of {fanout} nodes"
        )
        raise TreeStructureError(f"node {i} has parent {parents[i]}, {reason}")
    first[first == count] = -1
    split = np.flatnonzero(first >= 0)
    last = first[split] + (fanout - 1)
    short = split[(last >= count) | (par[np.minimum(last, count - 1)] != split)]
    if len(short):
        raise TreeStructureError(f"node {short[0]} has fewer than {fanout} children")
    return first


def ball_radii(first: int, target_radius, centers, lo, hi, samples) -> np.ndarray:
    """The ball radii of nodes ``first``, ``first + 1``, ...: the rounded
    ``r_target + max_d |c_d - x_d|`` of each cell and its sample; where that
    ball misses part of the cell, the next float above the largest rounded
    corner distance (nextafter(fl(v)) >= v, so one step up suffices).  A
    radius that is not finite is refused, naming its node."""
    with np.errstate(over="ignore", invalid="ignore"):
        radius = target_radius + np.abs(samples - centers).max(axis=1)
        held = balls_contain_cells(radius, lo, hi, samples)
        if not held.all():
            reach = np.maximum(samples - lo, hi - samples).max(axis=1)
            radius = np.where(held, radius, np.nextafter(np.maximum(radius, reach), np.inf))
    bad = np.flatnonzero(~np.isfinite(radius))
    if len(bad):
        raise ValueError(f"node {first + bad[0]} has a ball radius that is not finite")
    return radius


class PartitionTree:
    """Subdivision tree; nodes are numbered in creation order."""

    def __init__(self, root_bounds: Rect):
        lo, hi = root_bounds
        self.root_bounds: Rect = (tuple(map(float, lo)), tuple(map(float, hi)))
        self.dim = len(lo)
        self.nodes = Nodes.empty(self.dim)
        self.roots: list[int] = []
        self.fanout = 1 << self.dim

    @cached_property
    def _signs(self) -> np.ndarray:
        """The 2^n sign vectors, in the order a split lays out its children;
        built on first use, so a tree without splits never holds 2^n rows."""
        return np.array(list(product((-1.0, 1.0), repeat=self.dim)))

    def _split(
        self, centers: np.ndarray, radii: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The split rule, for (k, n) cells: child s of a cell has target
        center ``c + (r/2)·s`` and radius ``r/2``, and is cut at the cell's
        center (on each axis the low half spans [lo, c], the high [c, hi]).
        Returns the children's centers, radii and corners, one row per
        child; cell j's children are rows j·2^n onward, in sign-vector order."""
        n, signs = self.dim, self._signs
        half = radii / 2.0
        low = signs < 0.0
        return (
            (centers[:, None] + half[:, None, None] * signs).reshape(-1, n),
            np.repeat(half, self.fanout),
            np.where(low, lo[:, None], centers[:, None]).reshape(-1, n),
            np.where(low, centers[:, None], hi[:, None]).reshape(-1, n),
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_columns(cls, root_bounds: Rect, **columns) -> PartitionTree:
        """A tree over the rectangle ``root_bounds`` from the stored columns
        of its node table: the list ``parent``, and ``sample_index``,
        ``sample_x``, ``sample_xp`` and ``label``, stored as arrays of the
        ``Nodes`` types (with no copy when they already are).
        Every cell and radius is derived as
        ``new_tree`` and ``divide`` make it: the roots, in node order, are
        the cubes ``rect_to_cubes`` cuts from ``root_bounds`` (a tree with
        another number of roots is refused), every other node is the half of
        its parent that ``_split`` makes, and ``ball_radii`` gives the radii.
        The first children and the statuses are derived too; see
        ``_first_children`` for the layout the parent column must have.  A
        split node labelled other than INCLUDED is refused."""
        try:
            root_centers, root_radius = rect_to_cubes(*root_bounds)
        except ValueError as exc:
            raise ValueError(f"root_bounds: {exc}") from None
        tree = cls(root_bounds)
        parent = columns["parent"]
        label = np.ascontiguousarray(columns["label"], dtype=np.int8)
        first = _first_children(parent, tree.fanout)
        # ``divide`` splits only INCLUDED leaves, and ``set_label`` relabels
        # only leaves.
        split = np.flatnonzero((first >= 0) & (label != Label.INCLUDED))
        if len(split):
            i = int(split[0])
            raise TreeStructureError(f"node {i} is split but {Label(int(label[i])).name}")
        tree.roots = roots = [i for i, p in enumerate(parent) if p == -1]
        if len(roots) != len(root_centers):
            raise TreeStructureError(
                f"the tree has {len(roots)} roots, but rect_to_cubes cuts "
                f"{len(root_centers)} cubes from root_bounds "
                f"{tree.root_bounds[0]}..{tree.root_bounds[1]}"
            )
        shape = (len(parent), tree.dim)
        centers, lo, hi = np.empty(shape), np.empty(shape), np.empty(shape)
        radii = np.empty(len(parent))
        centers[roots], radii[roots] = root_centers, root_radius
        lo[roots], hi[roots] = root_centers - root_radius, root_centers + root_radius
        # The splits, level by level down from the roots.
        level = np.array(roots, dtype=np.int64)
        while len(level := level[first[level] >= 0]):
            kids = (first[level][:, None] + np.arange(tree.fanout)).ravel()
            centers[kids], radii[kids], lo[kids], hi[kids] = tree._split(
                centers[level], radii[level], lo[level], hi[level]
            )
            level = kids
        samples = np.ascontiguousarray(columns["sample_x"], dtype=float).reshape(shape)
        tree.nodes = Nodes(
            parent=parent,
            first_child=first.tolist(),
            target_center=centers,
            target_radius=radii,
            lo=_rows(lo),
            hi=_rows(hi),
            sample_index=np.ascontiguousarray(columns["sample_index"], dtype=np.int64),
            sample_x=samples,
            sample_xp=np.ascontiguousarray(columns["sample_xp"], dtype=float).reshape(shape),
            radius=ball_radii(0, radii, centers, lo, hi, samples),
            label=label,
            status=[],
        )
        tree.recount()
        return tree

    def _grow(
        self,
        parents: list[int],
        centers: np.ndarray,
        radii: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        dataset: Dataset,
    ) -> list[int]:
        """Append one INCLUDED leaf per row of ``centers``, cells with corners
        ``lo``/``hi``, each with its nearest sample (one query for all rows).
        Each array column grows by one concatenation: a tree grows in one
        call per wave, a few dozen in a run."""
        nodes = self.nodes
        first = len(nodes)
        idx = dataset.nearest(centers)
        xs = dataset.x[idx]
        k = len(parents)
        radius = ball_radii(first, radii, centers, lo, hi, xs)  # first: it may refuse
        nodes.target_center = np.concatenate([nodes.target_center, centers])
        nodes.target_radius = np.concatenate([nodes.target_radius, radii])
        nodes.sample_index = np.concatenate([nodes.sample_index, idx])
        nodes.sample_x = np.concatenate([nodes.sample_x, xs])
        nodes.sample_xp = np.concatenate([nodes.sample_xp, dataset.x_plus[idx]])
        nodes.radius = np.concatenate([nodes.radius, radius])
        nodes.label = np.concatenate([nodes.label, np.full(k, Label.INCLUDED, dtype=np.int8)])
        nodes.parent += parents
        nodes.first_child += [-1] * k
        nodes.lo += _rows(lo)
        nodes.hi += _rows(hi)
        nodes.status += [True] * k
        return list(range(first, first + k))

    def divide(self, ids: Sequence[int], dataset: Dataset) -> list[int]:
        """Split every live leaf of ``ids`` into 2^n half-radius children.

        The children are the cells ``_split`` makes; each picks the nearest
        dataset sample, whose ball of radius ``ball_radii`` contains the
        cell.  Children start INCLUDED.  The children of ``ids[j]`` are the
        j-th block of 2^n new nodes; the returned list holds every block in
        ``ids`` order.
        """
        nodes = self.nodes
        ids = list(ids)
        for i, label in zip(ids, nodes.label[ids].tolist()):
            if nodes.first_child[i] >= 0 or label != Label.INCLUDED:
                raise TreeStructureError(f"node {i} is not a live leaf; only those divide")
        if len(set(ids)) != len(ids):
            raise TreeStructureError("a leaf can be divided only once")
        if not ids:
            return []
        k = self.fanout
        first = len(nodes)
        children = self._grow(
            np.repeat(ids, k).tolist(),
            *self._split(
                nodes.target_center[ids],
                nodes.target_radius[ids],
                np.array([nodes.lo[i] for i in ids]),
                np.array([nodes.hi[i] for i in ids]),
            ),
            dataset,
        )
        # No status changes: an included leaf became 2^n included leaves.
        first_child = nodes.first_child
        for j, i in enumerate(ids):
            first_child[i] = first + j * k
        return children

    def set_label(self, node_id: int, label: Label | int) -> None:
        """Relabel a leaf.  Only INCLUDED -> {EXCLUDED, UNKNOWN} mutates;
        re-confirming the current label is a no-op; anything else is a
        re-activation attempt and is rejected."""
        label = Label(label)
        nodes = self.nodes
        if nodes.first_child[node_id] >= 0:
            raise TreeStructureError(f"node {node_id} is not a leaf")
        old = int(nodes.label[node_id])
        if old == label:
            return
        if old != Label.INCLUDED:
            raise LabelTransitionError(
                f"leaf {node_id} is {Label(old).name} and cannot become {label.name}"
            )
        nodes.label[node_id] = label
        status, parent, first_child = nodes.status, nodes.parent, nodes.first_child
        k = self.fanout
        status[node_id] = False
        i = parent[node_id]
        while i >= 0:
            f = first_child[i]
            new = False if status[f:f + k].count(False) == k else None
            if new is status[i]:
                break  # its ancestors keep theirs too
            status[i] = new
            i = parent[i]

    def recount(self) -> None:
        """Re-derive every node's status from the leaf labels.

        Children always have larger indices than their parent, so one
        reverse pass over the interior nodes works bottom-up.
        """
        nodes = self.nodes
        k = self.fanout
        status = (nodes.label == Label.INCLUDED).tolist()
        first_child = nodes.first_child
        for i in reversed([i for i, f in enumerate(first_child) if f >= 0]):
            f = first_child[i]
            block = status[f:f + k]
            s = block[0]
            status[i] = s if block.count(s) == k else None
        nodes.status[:] = status

    # -- queries ---------------------------------------------------------

    def iter_leaves(self) -> Iterator[int]:
        """All leaves, depth first: root by root, each split's children in
        sign-vector order."""
        stack = list(reversed(self.roots))
        first_child = self.nodes.first_child
        k = self.fanout
        while stack:
            i = stack.pop()
            f = first_child[i]
            if f < 0:
                yield i
            else:
                stack.extend(range(f + k - 1, f - 1, -1))

    def active_leaves(self) -> list[int]:
        """The included leaves, in ``iter_leaves`` order; a subtree whose
        status says it holds none is skipped at its root."""
        nodes = self.nodes
        status, first_child = nodes.status, nodes.first_child
        k = self.fanout
        out = []
        stack = list(reversed(self.roots))
        while stack:
            i = stack.pop()
            if status[i] is False:
                continue
            f = first_child[i]
            if f < 0:
                out.append(i)  # a leaf's status is whether it is included
            else:
                stack.extend(range(f + k - 1, f - 1, -1))
        return out

    def n_included(self) -> int:
        """The number of included leaves; every split node is INCLUDED."""
        nodes = self.nodes
        split = len(nodes) - nodes.first_child.count(-1)
        return int(np.count_nonzero(nodes.label == Label.INCLUDED)) - split

    def active_volume(self) -> float:
        # fsum is exactly rounded, so the leaves' order does not change the sum.
        kept = (np.array(self.nodes.first_child) < 0) & (self.nodes.label == Label.INCLUDED)
        n = self.dim
        return math.fsum([(2.0 * r) ** n for r in self.nodes.target_radius[kept].tolist()])

    def leaf_counts(self) -> dict[str, int]:
        labels = self.nodes.label[np.array(self.nodes.first_child) < 0]
        return {label.name.lower(): int(np.count_nonzero(labels == label)) for label in Label}

    def min_root_radius(self) -> float:
        return float(self.nodes.target_radius[self.roots[0]])  # the roots are equal cubes

    def classify(self, query: Rect) -> CoverageClass:
        """How a query rectangle meets the union of included cells.

        One depth-first walk over the nodes that meet the closed query
        decides it by comparing corners.  A fully included node that meets
        it *touches* the query.  A retired node whose cell meets the query's
        interior, or a part of the query outside every root cell, is a
        *gap*.  The walk stops once it has found both.  Not touched:
        DISJOINT; touched with no gap: FULLY_COVERED; both: PARTIAL.

        The query's corners are floats, taken as exact; a successor box is
        asked as the float box that holds it (``successor_corners``).  A
        query without interior has no volume to cover: it is PARTIAL when
        it touches the union.
        """
        return self._decide(query)[0]

    def uncovered(self, query: Rect) -> Rect | None:
        """A fragment of the query that no included cell covers, from the
        walk of ``classify``: the query cut to the first gap found (the
        whole query when none was found); None when covered."""
        verdict, gap = self._decide(query)
        if verdict is CoverageClass.FULLY_COVERED:
            return None
        (qlo, qhi), (glo, ghi) = query, gap or query
        return tuple(map(max, qlo, glo)), tuple(map(min, qhi, ghi))

    def _decide(self, query: Rect) -> tuple[CoverageClass, Rect | None]:
        """The verdict of ``classify`` and the first gap found."""
        qlo, qhi = query
        if len(qlo) != self.dim or len(qhi) != self.dim:
            raise DimensionMismatchError(
                f"query corners of dim {len(qlo)} and {len(qhi)} do not match "
                f"tree dim {self.dim}"
            )
        touched, gap = self._walk(qlo, qhi)
        if not touched:
            return CoverageClass.DISJOINT, gap
        if gap is None and all(map(operator.lt, qlo, qhi)):  # it has interior
            return CoverageClass.FULLY_COVERED, gap
        return CoverageClass.PARTIAL, gap

    def _walk(self, qlo, qhi) -> tuple[bool, Rect | None]:
        """Whether the query ``[qlo, qhi]`` touches the included cells, and
        its first gap.  A retired cell that the query merely touches, along
        a face, is no gap: it meets no volume of the query."""
        nodes = self.nodes
        los, his = nodes.lo, nodes.hi
        status, first_child = nodes.status, nodes.first_child
        k = self.fanout
        dims = range(self.dim)
        touched = False
        gap = None
        stack = list(reversed(self.roots))
        while stack:
            i = stack.pop()
            s = status[i]
            if touched and s is True or gap is not None and s is False:
                continue  # nothing new to learn here
            lo = los[i]
            hi = his[i]
            face = False
            for d in dims:
                c = lo[d]
                e = hi[d]
                if c < qhi[d] and qlo[d] < e:
                    continue  # the interiors overlap on this axis
                if c > qhi[d] or qlo[d] > e:
                    break  # apart
                face = True  # they only touch
            else:
                while True:  # settle node i, or step down to its one child that meets the query
                    s = status[i]
                    if s is True:
                        touched = True
                    elif s is False:
                        if not face and gap is None:
                            gap = (los[i], his[i])
                    else:
                        # Children split at the center, the low corner of the
                        # last child.  When the query lies on one side of it on
                        # every axis, only that child meets it, and as its
                        # parent does; otherwise test them all.
                        f = first_child[i]
                        m = los[f + k - 1]
                        j = 0
                        for d in dims:
                            if qhi[d] < m[d]:
                                j += j
                            elif qlo[d] > m[d]:
                                j += j + 1
                            else:
                                stack.extend(range(f + k - 1, f - 1, -1))
                                break
                        else:
                            i = f + j
                            continue
                    break
                if touched and gap is not None:
                    break
        if touched and gap is None:
            # Only a part outside the roots can still make it PARTIAL.
            gap = self._outside(qlo, qhi)
        return touched, gap

    def _outside(self, qlo, qhi) -> Rect | None:
        """A region outside the root cells that meets the query's interior,
        as a slab past one face of ``root_bounds``; None when that
        rectangle, which the roots tile, holds the query."""
        blo, bhi = self.root_bounds
        for d in range(self.dim):
            if qlo[d] < blo[d]:
                return _slab(self.dim, d, -math.inf, blo[d])
            if qhi[d] > bhi[d]:
                return _slab(self.dim, d, bhi[d], math.inf)
        return None

    def overlapping(self, qlo: Vec, qhi: Vec) -> list[Rect]:
        """Target rectangles of included leaves meeting the probe rectangle.

        A subtree whose leaves are all included is reported as its single
        ancestor rectangle, which keeps queries deep inside the candidate
        set cheap regardless of how finely the fringe is subdivided.
        """
        if len(qlo) != self.dim or len(qhi) != self.dim:
            raise DimensionMismatchError(
                f"probe corners of dim {len(qlo)} and {len(qhi)} do not match "
                f"tree dim {self.dim}"
            )
        out: list[Rect] = []
        nodes = self.nodes
        los, his = nodes.lo, nodes.hi
        status, first_child = nodes.status, nodes.first_child
        k = self.fanout
        tol = GEOM_TOL
        stack = list(reversed(self.roots))
        dims = range(self.dim)
        while stack:
            i = stack.pop()
            s = status[i]
            if s is False:
                continue
            lo = los[i]
            hi = his[i]
            # Closed intersection test, widened by GEOM_TOL.
            for d in dims:
                al = lo[d]
                ah = hi[d]
                bl = qlo[d]
                bh = qhi[d]
                if (al if al > bl else bl) > (ah if ah < bh else bh) + tol:
                    break
            else:
                if s:
                    out.append((lo, hi))
                else:
                    f = first_child[i]
                    stack.extend(range(f + k - 1, f - 1, -1))
        return out


def new_tree(domain: Rect, dataset: Dataset) -> PartitionTree:
    """Fresh tree over the rectangle ``domain = (lo, hi)``: one INCLUDED root
    per cube of ``rect_to_cubes(lo, hi)``, so the leaf cells tile the
    rectangle at every moment."""
    centers, radius = rect_to_cubes(*domain)
    tree = PartitionTree(domain)
    if dataset.dim != tree.dim:
        raise ValueError(f"dataset dim {dataset.dim} does not match domain dim {tree.dim}")
    tree.roots = tree._grow(
        [-1] * len(centers),
        centers,
        np.full(len(centers), radius),
        centers - radius,
        centers + radius,
        dataset,
    )
    return tree
