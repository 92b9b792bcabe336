"""Dyadic subdivision tree over the state constraint set, stored as columns.

A node is a row number: row i of each list in ``PartitionTree.nodes`` holds
node i's target box (the partition cell), the sample pair nearest to its
target center, the radius ``r = r_target + dist`` of the sample-centered
ball that is guaranteed to contain the cell, its parent, its first child
(-1 for a leaf) and its label.  A split appends its 2^n children after
every existing node as one contiguous block in sign-vector order.  Leaves
carry a membership label with respect to the live candidate set; interior
nodes are purely structural.  The result file stores the same columns.

Subtree counters (total leaves / included leaves) are maintained on every
division and relabeling so that coverage queries can return one coarse
rectangle for any fully-included subtree instead of walking its leaves.
``recount`` re-derives them from the leaf labels alone, for trees that come
from a file and for the verifier, which trusts no bookkeeping.

The tree is a single-writer structure: divisions and relabelings must be
serialized.  Read-only traversals (leaf enumeration, coverage probes) are
safe to run concurrently with each other, not with writes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .dataset import Dataset
from .geometry import (
    Box,
    BoxList,
    DimensionMismatchError,
    GEOM_TOL,
    Rect,
    Vec,
)


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
    n_leaves: list[int] = field(default_factory=list)
    n_active: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.parent)


def _first_children(parents: list[int], fanout: int) -> list[int]:
    """Each node's first child (-1 for a leaf), from the parent column.  A
    parent must be an earlier node (-1 for a root), and the children of a
    node one contiguous block of ``fanout`` nodes, as ``divide`` makes."""
    first = [-1] * len(parents)
    for i, p in enumerate(parents):
        if p == -1:
            continue
        if not 0 <= p < i:
            raise TreeStructureError(f"node {i} has parent {p}, which is not an earlier node")
        if first[p] < 0:
            first[p] = i
        elif parents[i - 1] != p or i - first[p] >= fanout:
            raise TreeStructureError(
                f"node {i} has parent {p}, whose children are not one contiguous "
                f"block of {fanout} nodes"
            )
    for p, f in enumerate(first):
        if f >= 0 and (f + fanout > len(parents) or parents[f + fanout - 1] != p):
            raise TreeStructureError(f"node {p} has fewer than {fanout} children")
    return first


def _corners(centers: np.ndarray, radii: np.ndarray) -> tuple[list[Vec], list[Vec]]:
    """Low and high corners of cells given by (k, n) centers and (k,)
    half-widths, as lists of tuples."""
    r = radii[:, None]
    lo = list(map(tuple, (centers - r).tolist()))
    return lo, list(map(tuple, (centers + r).tolist()))


class PartitionTree:
    """Subdivision tree; nodes are numbered in creation order."""

    def __init__(self, dim: int):
        self.dim = dim
        self.nodes = Nodes()
        self.roots: list[int] = []
        self.label_log: list[tuple[int | None, int, int, int]] = []
        self.fanout = 1 << dim

    @cached_property
    def _signs(self) -> np.ndarray:
        """The 2^n sign vectors, in the order a split lays out its children;
        built on first use, so a tree without splits never holds 2^n rows."""
        return np.array(list(product((-1.0, 1.0), repeat=self.dim)))

    # -- construction ---------------------------------------------------

    @classmethod
    def from_columns(cls, dim: int, **columns: list) -> PartitionTree:
        """A tree from the stored columns of its node table: ``parent``,
        ``target_center``, ``target_radius``, ``radius``, ``sample_index``,
        ``sample_x``, ``sample_xp`` and ``label``.  The first children, the
        cell corners and the counters are derived; see ``_first_children``
        for the layout the parent column must have."""
        tree = cls(dim)
        parent = columns["parent"]
        lo, hi = _corners(
            np.array(columns["target_center"], dtype=float).reshape(-1, dim),
            np.array(columns["target_radius"], dtype=float),
        )
        tree.nodes = Nodes(
            **columns, first_child=_first_children(parent, tree.fanout), lo=lo, hi=hi
        )
        tree.roots = [i for i, p in enumerate(parent) if p == -1]
        tree.recount()
        return tree

    def _grow(
        self, parents: list[int], centers: np.ndarray, radii: np.ndarray, dataset: Dataset
    ) -> list[int]:
        """Append one INCLUDED leaf per row of ``centers``, each with its
        nearest sample; one nearest-neighbour call serves every row."""
        idx, dist = dataset.nearest(centers)
        nodes = self.nodes
        first = len(nodes)
        k = len(parents)
        lo, hi = _corners(centers, radii)
        nodes.parent += parents
        nodes.first_child += [-1] * k
        nodes.target_center += map(tuple, centers.tolist())
        nodes.target_radius += radii.tolist()
        nodes.lo += lo
        nodes.hi += hi
        nodes.sample_index += idx.tolist()
        nodes.sample_x += map(tuple, dataset.x[idx].tolist())
        nodes.sample_xp += map(tuple, dataset.x_plus[idx].tolist())
        nodes.radius += (radii + dist).tolist()
        nodes.label += [Label.INCLUDED] * k
        nodes.n_leaves += [1] * k
        nodes.n_active += [1] * k
        return list(range(first, first + k))

    def divide(self, ids: Sequence[int], dataset: Dataset) -> list[int]:
        """Split every live leaf of ``ids`` into 2^n half-radius children.

        Child target centers sit at the parent's center offset by half the
        child radius along every sign pattern; each child picks the nearest
        dataset sample and records ``r = r_target + dist`` so the sample
        ball still contains the child cell.  Children start INCLUDED.  The
        children of ``ids[j]`` are the j-th block of 2^n new nodes; the
        returned list holds every block in ``ids`` order.
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
        half = np.array([nodes.target_radius[i] for i in ids]) / 2.0
        centers = np.array([nodes.target_center[i] for i in ids])
        child_centers = centers[:, None, :] + half[:, None, None] * self._signs
        first = len(nodes)
        children = self._grow(
            np.repeat(ids, k).tolist(),
            child_centers.reshape(-1, self.dim),
            np.repeat(half, k),
            dataset,
        )
        # Each divided cell's single leaf became 2^n included leaves.
        delta = k - 1
        first_child, parent = nodes.first_child, nodes.parent
        n_leaves, n_active = nodes.n_leaves, nodes.n_active
        for j, i in enumerate(ids):
            first_child[i] = first + j * k
            while i >= 0:
                n_leaves[i] += delta
                n_active[i] += delta
                i = parent[i]
        return children

    def set_label(self, node_id: int, label: Label | int, sweep: int | None = None) -> None:
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
        self.label_log.append((sweep, node_id, int(old), int(label)))
        n_active, parent = nodes.n_active, nodes.parent
        i = node_id
        while i >= 0:
            n_active[i] -= 1
            i = parent[i]

    def recount(self) -> None:
        """Re-derive every subtree counter from the leaf labels.

        Children always have larger indices than their parent, so one
        reverse pass over the interior nodes works bottom-up.
        """
        nodes = self.nodes
        k = self.fanout
        included = Label.INCLUDED
        n_leaves = [1] * len(nodes)
        n_active = [int(label is included) for label in nodes.label]
        first_child = nodes.first_child
        for i in reversed([i for i, f in enumerate(first_child) if f >= 0]):
            f = first_child[i]
            n_leaves[i] = sum(n_leaves[f:f + k])
            n_active[i] = sum(n_active[f:f + k])
        nodes.n_leaves[:] = n_leaves
        nodes.n_active[:] = n_active

    # -- queries ---------------------------------------------------------

    def iter_leaves(self) -> Iterator[int]:
        """All leaves in depth-first creation order."""
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
        label = self.nodes.label
        included = Label.INCLUDED  # one enum lookup, not one per leaf
        return [i for i in self.iter_leaves() if label[i] is included]

    def n_included(self) -> int:
        """The number of included leaves, from the roots' counters."""
        return sum(self.nodes.n_active[i] for i in self.roots)

    def candidate_set(self) -> BoxList:
        """Union of target boxes of included leaves (disjoint interiors)."""
        nodes = self.nodes
        return BoxList(tuple(
            Box(nodes.target_center[i], nodes.target_radius[i])
            for i in self.active_leaves()
        ))

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

    def first_untiled(self) -> int | None:
        """First interior node whose children are not exactly its 2^n dyadic
        halves in sign-vector order, or None when every split is exact."""
        nodes = self.nodes
        first_child = np.array(nodes.first_child, dtype=np.int64)
        interior = np.flatnonzero(first_child >= 0)
        if not len(interior):
            return None
        centers = np.array(nodes.target_center, dtype=float).reshape(-1, self.dim)
        radii = np.array(nodes.target_radius, dtype=float)
        half = radii[interior, None] / 2.0
        kids = first_child[interior, None] + np.arange(self.fanout)
        want = centers[interior, None] + half[..., None] * self._signs
        exact = (centers[kids] == want).all(axis=(1, 2)) & (radii[kids] == half).all(axis=1)
        return None if exact.all() else int(interior[np.argmin(exact)])

    def min_root_radius(self) -> float:
        return min(self.nodes.target_radius[i] for i in self.roots)

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
        n_active, n_leaves, first_child = nodes.n_active, nodes.n_leaves, nodes.first_child
        k = self.fanout
        tol = GEOM_TOL
        stack = list(reversed(self.roots))
        dims = range(self.dim)
        while stack:
            i = stack.pop()
            active = n_active[i]
            if not active:
                continue
            lo = los[i]
            hi = his[i]
            # Closed intersection test, as in geometry.rects_intersect.
            for d in dims:
                al = lo[d]
                ah = hi[d]
                bl = qlo[d]
                bh = qhi[d]
                if (al if al > bl else bl) > (ah if ah < bh else bh) + tol:
                    break
            else:
                if active == n_leaves[i]:
                    out.append((lo, hi))
                else:
                    f = first_child[i]
                    stack.extend(range(f + k - 1, f - 1, -1))
        return out


def new_tree(domain: BoxList | Sequence[Box], dataset: Dataset) -> PartitionTree:
    """Fresh tree: one INCLUDED root per domain box.

    Domain boxes must have pairwise-disjoint interiors so the leaf cells
    tile the domain at every moment.
    """
    boxes = tuple(domain)
    if not boxes:
        raise ValueError("domain must contain at least one box")
    if len(dataset) < 1:
        raise ValueError("dataset must be nonempty")
    dim = boxes[0].dim
    if dataset.dim != dim:
        raise ValueError(f"dataset dim {dataset.dim} does not match domain dim {dim}")
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            (alo, ahi), (blo, bhi) = boxes[a].rect(), boxes[b].rect()
            if all(
                min(ah, bh) - max(al, bl) > GEOM_TOL
                for al, ah, bl, bh in zip(alo, ahi, blo, bhi)
            ):
                raise ValueError(f"domain boxes {a} and {b} have overlapping interiors")
    tree = PartitionTree(dim)
    tree.roots = tree._grow(
        [-1] * len(boxes),
        np.array([box.center for box in boxes]),
        np.array([box.radius for box in boxes]),
        dataset,
    )
    return tree
