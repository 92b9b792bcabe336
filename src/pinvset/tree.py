"""Dyadic subdivision tree over the state constraint set, stored as columns.

A node is a row number: row i of each list in ``PartitionTree.nodes`` holds
node i's target box (the partition cell), the sample pair nearest to its
target center, the radius ``r = r_target + dist`` of the sample-centered
ball that contains the cell (``ball_radii``), its parent, its first child
(-1 for a leaf) and its label.  A split appends its 2^n children after
every existing node as one contiguous block in sign-vector order.  Leaves
carry a membership label with respect to the live candidate set; interior
nodes are purely structural.

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
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import chain, product
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
    """The node table: one list per column, row i of each is node i."""

    parent: list[int] = field(default_factory=list)
    first_child: list[int] = field(default_factory=list)
    target_center: list[Vec] = field(default_factory=list)
    target_radius: list[float] = field(default_factory=list)
    lo: list[Vec] = field(default_factory=list)
    hi: list[Vec] = field(default_factory=list)
    sample_index: list[int] = field(default_factory=list)
    sample_x: list[Vec] = field(default_factory=list)
    sample_xp: list[Vec] = field(default_factory=list)
    radius: list[float] = field(default_factory=list)
    label: list[Label] = field(default_factory=list)
    status: list[bool | None] = field(default_factory=list)  # all / no / some leaves included

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


def ball_radii(first: int, target_radius, centers, lo, hi, samples) -> list[float]:
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
    return radius.tolist()


class PartitionTree:
    """Subdivision tree; nodes are numbered in creation order."""

    def __init__(self, root_bounds: Rect):
        lo, hi = root_bounds
        self.root_bounds: Rect = (tuple(map(float, lo)), tuple(map(float, hi)))
        self.dim = len(lo)
        self.nodes = Nodes()
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
    def from_columns(cls, root_bounds: Rect, **columns: list) -> PartitionTree:
        """A tree over the rectangle ``root_bounds`` from the stored columns
        of its node table: ``parent``, ``sample_index``, ``sample_x``,
        ``sample_xp`` and ``label``.  Every cell and radius is derived as
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
        parent, label = columns["parent"], columns["label"]
        first = _first_children(parent, tree.fanout)
        # ``divide`` splits only INCLUDED leaves, and ``set_label`` relabels
        # only leaves.
        included = Label.INCLUDED  # one enum lookup, not one per node
        split = next(
            (i for i in np.flatnonzero(first >= 0).tolist() if label[i] is not included), None
        )
        if split is not None:
            raise TreeStructureError(f"node {split} is split but {label[split].name}")
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
        samples = np.fromiter(chain.from_iterable(columns["sample_x"]), float, centers.size)
        tree.nodes = Nodes(
            **columns,
            first_child=first.tolist(),
            target_center=_rows(centers),
            target_radius=radii.tolist(),
            lo=_rows(lo),
            hi=_rows(hi),
            radius=ball_radii(0, radii, centers, lo, hi, samples.reshape(shape)),
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
        ``lo``/``hi``, each with its nearest sample (one query for all rows)."""
        nodes = self.nodes
        first = len(nodes)
        idx = dataset.nearest(centers)
        xs = dataset.x[idx]
        k = len(parents)
        nodes.radius += ball_radii(first, radii, centers, lo, hi, xs)  # first: it may refuse
        nodes.parent += parents
        nodes.first_child += [-1] * k
        nodes.target_center += _rows(centers)
        nodes.target_radius += radii.tolist()
        nodes.lo += _rows(lo)
        nodes.hi += _rows(hi)
        nodes.sample_index += idx.tolist()
        nodes.sample_x += _rows(xs)
        nodes.sample_xp += _rows(dataset.x_plus[idx])
        nodes.label += [Label.INCLUDED] * k
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
        for i in ids:
            if nodes.first_child[i] >= 0 or nodes.label[i] is not Label.INCLUDED:
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
                np.array([nodes.target_center[i] for i in ids]),
                np.array([nodes.target_radius[i] for i in ids]),
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
        old = nodes.label[node_id]
        if label is old:
            return
        if old is not Label.INCLUDED:
            raise LabelTransitionError(
                f"leaf {node_id} is {old.name} and cannot become {label.name}"
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
        included = Label.INCLUDED
        status = [label is included for label in nodes.label]
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
        label, status, first_child = nodes.label, nodes.status, nodes.first_child
        included = Label.INCLUDED  # one enum lookup, not one per leaf
        k = self.fanout
        out = []
        stack = list(reversed(self.roots))
        while stack:
            i = stack.pop()
            if status[i] is False:
                continue
            f = first_child[i]
            if f < 0:
                if label[i] is included:
                    out.append(i)
            else:
                stack.extend(range(f + k - 1, f - 1, -1))
        return out

    def n_included(self) -> int:
        """The number of included leaves; every split node is INCLUDED."""
        nodes = self.nodes
        return nodes.label.count(Label.INCLUDED) - (len(nodes) - nodes.first_child.count(-1))

    def active_volume(self) -> float:
        # One scan of the node table: fsum is exactly rounded, so the
        # leaves' order does not change the sum.
        n = self.dim
        included = Label.INCLUDED
        nodes = self.nodes
        return math.fsum([
            (2.0 * r) ** n
            for r, f, label in zip(nodes.target_radius, nodes.first_child, nodes.label)
            if f < 0 and label is included
        ])

    def leaf_counts(self) -> dict[str, int]:
        nodes = self.nodes
        labels = Counter([
            label for label, f in zip(nodes.label, nodes.first_child) if f < 0
        ])
        return {
            "included": labels[Label.INCLUDED],
            "excluded": labels[Label.EXCLUDED],
            "unknown": labels[Label.UNKNOWN],
        }

    def min_root_radius(self) -> float:
        return self.nodes.target_radius[self.roots[0]]  # the roots are equal cubes

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
        los, his, centers = nodes.lo, nodes.hi, nodes.target_center
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
                        # Children split at the center.  When the query lies on
                        # one side of it on every axis, only that child meets
                        # it, and as its parent does; otherwise test them all.
                        f = first_child[i]
                        m = centers[i]
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
