"""Dyadic subdivision tree over the state constraint set.

Each node owns a target box (the partition cell) plus the sample pair
nearest to its target center and the radius ``r = r_target + dist`` of the
sample-centered ball that is guaranteed to contain the cell.  Leaves carry a
membership label with respect to the live candidate set; interior nodes are
purely structural.

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
from enum import IntEnum
from itertools import product
from typing import Iterator, Sequence

from .dataset import Dataset
from .geometry import (
    Box,
    BoxList,
    DimensionMismatchError,
    GEOM_TOL,
    Rect,
    Vec,
    chebyshev,
)


class Label(IntEnum):
    INCLUDED = 1
    EXCLUDED = 0
    UNKNOWN = -1


class TreeStructureError(ValueError):
    """Operation applied to a node whose role does not permit it."""


class LabelTransitionError(ValueError):
    """Attempted relabeling that would re-activate a retired leaf."""


class TreeNode:
    __slots__ = (
        "target_center",
        "target_radius",
        "lo",
        "hi",
        "sample_index",
        "sample_x",
        "sample_xp",
        "radius",
        "label",
        "parent",
        "children",
        "n_leaves",
        "n_active",
    )

    def __init__(
        self,
        target_center: Vec,
        target_radius: float,
        sample_index: int,
        sample_x: Vec,
        sample_xp: Vec,
        radius: float,
        parent: int,
    ):
        self.target_center = target_center
        self.target_radius = target_radius
        self.lo = tuple(c - target_radius for c in target_center)
        self.hi = tuple(c + target_radius for c in target_center)
        self.sample_index = sample_index
        self.sample_x = sample_x
        self.sample_xp = sample_xp
        self.radius = radius
        self.label = Label.INCLUDED
        self.parent = parent
        self.children: list[int] | None = None
        self.n_leaves = 1
        self.n_active = 1

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def x_plus(self) -> Vec:
        # Duck-typed for successor_box().
        return self.sample_xp

    def target_box(self) -> Box:
        return Box(self.target_center, self.target_radius)


def _sign_vectors(n: int) -> tuple[tuple[float, ...], ...]:
    return tuple(product((-1.0, 1.0), repeat=n))


class PartitionTree:
    """Subdivision tree; nodes indexed by creation order in a flat list."""

    def __init__(self, dim: int):
        self.dim = dim
        self.nodes: list[TreeNode] = []
        self.roots: list[int] = []
        self.label_log: list[tuple[int | None, int, int, int]] = []
        self._signs = _sign_vectors(dim)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- construction ---------------------------------------------------

    def _attach(self, node: TreeNode) -> int:
        idx = len(self.nodes)
        self.nodes.append(node)
        return idx

    def divide(self, node_id: int, dataset: Dataset) -> list[int]:
        """Split a live leaf into 2^n half-radius children.

        Child target centers sit at the parent's center offset by half the
        child radius along every sign pattern; each child picks the nearest
        dataset sample and records ``r = r_target + dist`` so the sample
        ball still contains the child cell.  Children start INCLUDED.
        """
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise TreeStructureError(f"node {node_id} is not a leaf")
        if node.label is not Label.INCLUDED:
            raise TreeStructureError(
                f"node {node_id} is retired (label {int(node.label)}); "
                "only live partitions subdivide"
            )
        half = node.target_radius / 2.0
        centers = self.child_centers(node)
        idx, dist = dataset.nearest(centers)
        children = [
            self._attach(TreeNode(center, half, j, tuple(x), tuple(xp), half + d, node_id))
            for center, j, d, x, xp in zip(
                centers,
                idx.tolist(),
                dist.tolist(),
                dataset.x[idx].tolist(),
                dataset.x_plus[idx].tolist(),
            )
        ]
        node.children = children
        # The divided cell's single leaf became 2^n included leaves.
        delta = len(children) - 1
        i = node_id
        while i >= 0:
            n = self.nodes[i]
            n.n_leaves += delta
            n.n_active += delta
            i = n.parent
        return children

    def child_centers(self, node: TreeNode) -> list[Vec]:
        """Centers of a node's 2^n dyadic halves, in sign-vector order."""
        half = node.target_radius / 2.0
        return [
            tuple(c + half * s for c, s in zip(node.target_center, sign))
            for sign in self._signs
        ]

    def set_label(self, node_id: int, label: Label | int, sweep: int | None = None) -> None:
        """Relabel a leaf.  Only INCLUDED -> {EXCLUDED, UNKNOWN} mutates;
        re-confirming the current label is a no-op; anything else is a
        re-activation attempt and is rejected."""
        label = Label(label)
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise TreeStructureError(f"node {node_id} is not a leaf")
        if label is node.label:
            return
        if node.label is not Label.INCLUDED:
            raise LabelTransitionError(
                f"leaf {node_id} is {node.label.name} and cannot become {label.name}"
            )
        old = node.label
        node.label = label
        self.label_log.append((sweep, node_id, int(old), int(label)))
        i = node_id
        while i >= 0:
            n = self.nodes[i]
            n.n_active -= 1
            i = n.parent

    def recount(self) -> None:
        """Re-derive every subtree counter from the leaf labels.

        Children always have larger indices than their parent, so one
        reverse pass over the node list works bottom-up.
        """
        nodes = self.nodes
        for node in reversed(nodes):
            if node.children is None:
                node.n_leaves = 1
                node.n_active = 1 if node.label is Label.INCLUDED else 0
            else:
                node.n_leaves = sum(nodes[c].n_leaves for c in node.children)
                node.n_active = sum(nodes[c].n_active for c in node.children)

    # -- queries ---------------------------------------------------------

    def iter_leaves(self) -> Iterator[int]:
        """All leaves in depth-first creation order."""
        stack = list(reversed(self.roots))
        nodes = self.nodes
        while stack:
            i = stack.pop()
            node = nodes[i]
            if node.children is None:
                yield i
            else:
                stack.extend(reversed(node.children))

    def active_leaves(self) -> list[int]:
        nodes = self.nodes
        included = Label.INCLUDED  # one enum lookup, not one per leaf
        return [i for i in self.iter_leaves() if nodes[i].label is included]

    def candidate_set(self) -> BoxList:
        """Union of target boxes of included leaves (disjoint interiors)."""
        return BoxList(
            tuple(self.nodes[i].target_box() for i in self.active_leaves())
        )

    def active_volume(self) -> float:
        # One scan of the node list: fsum is exactly rounded, so the leaves'
        # order does not change the sum.
        n = self.dim
        included = Label.INCLUDED
        return math.fsum([
            (2.0 * node.target_radius) ** n
            for node in self.nodes
            if node.children is None and node.label is included
        ])

    def leaf_counts(self) -> dict[str, int]:
        labels = Counter([node.label for node in self.nodes if node.children is None])
        return {
            "included": labels[Label.INCLUDED],
            "excluded": labels[Label.EXCLUDED],
            "unknown": labels[Label.UNKNOWN],
        }

    def first_untiled(self) -> int | None:
        """First interior node whose children are not exactly its 2^n dyadic
        halves in sign-vector order, or None when every split is exact."""
        nodes = self.nodes
        for i, node in enumerate(nodes):
            if node.children is None:
                continue
            half = node.target_radius / 2.0
            cells = [(nodes[c].target_center, nodes[c].target_radius) for c in node.children]
            if cells != [(c, half) for c in self.child_centers(node)]:
                return i
        return None

    def min_root_radius(self) -> float:
        return min(self.nodes[i].target_radius for i in self.roots)

    def overlapping(self, qlo: Vec, qhi: Vec, tol: float = GEOM_TOL) -> list[Rect]:
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
        stack = list(reversed(self.roots))
        dims = range(self.dim)
        while stack:
            node = nodes[stack.pop()]
            active = node.n_active
            if not active:
                continue
            lo = node.lo
            hi = node.hi
            # Closed intersection test, as in geometry.rects_intersect.
            for d in dims:
                al = lo[d]
                ah = hi[d]
                bl = qlo[d]
                bh = qhi[d]
                if (al if al > bl else bl) > (ah if ah < bh else bh) + tol:
                    break
            else:
                if active == node.n_leaves:
                    out.append((lo, hi))
                else:
                    stack.extend(reversed(node.children))
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
    idx, dist = dataset.nearest([box.center for box in boxes])
    for box, j, d in zip(boxes, idx.tolist(), dist.tolist()):
        root = TreeNode(
            target_center=box.center,
            target_radius=box.radius,
            sample_index=j,
            sample_x=tuple(dataset.x[j].tolist()),
            sample_xp=tuple(dataset.x_plus[j].tolist()),
            radius=box.radius + d,
            parent=-1,
        )
        tree.roots.append(tree._attach(root))
    return tree


def sample_ball_contains_cell(node: TreeNode, tol: float = GEOM_TOL) -> bool:
    """Check ``r >= r_target + dist(center, sample)``, which guarantees the
    sample-centered ball contains the node's target cell."""
    return (
        node.radius + tol
        >= node.target_radius + chebyshev(node.target_center, node.sample_x)
    )
