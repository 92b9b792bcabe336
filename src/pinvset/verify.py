"""Independent certification of synthesized sets.

``check_fixpoint`` re-derives every active leaf's successor box from the
stored sample data and re-classifies it against the final union; it never
looks at any synthesis bookkeeping, so a certificate obtained from a
deserialized result file stands on its own.  It decides with no tolerance:
the sample-ball check ``r >= r_target + dist`` is exact
(``balls_contain_cells``), and coverage is one walk of the result's own
partition tree, which compares corners, on the float box that holds each
successor box (one ``successor_corners`` pass over the kept leaves);
``uncovered_fragments`` names the fragment of that box that escapes.  The
certificate first re-derives the subtree statuses from the leaf labels,
and only then lets the tree answer.  The cells need no check here: a tree
has only the roots ``rect_to_cubes`` cuts from ``root_bounds`` and the
children the one split rule makes (``new_tree`` and ``divide`` make no
others, and ``PartitionTree.from_columns`` derives the same cells from
``root_bounds`` and the parent column when a result is loaded), so they
tile ``root_bounds`` exactly.  The ball radii are derived too, by ``ball_radii``
from each cell and sample, yet the ball check stays: ``check_fixpoint``
takes any result in memory, and trusts no bookkeeping.

``monte_carlo_invariance`` is a falsifier that rolls true trajectories
forward; only the exact check constitutes the deterministic guarantee.
The falsifier, too, reads everything from the tree: start points come
from its included leaves, and membership of an iterate from one bitmap
over the rectangle the roots tile, filled from the split structure and
padded with empty cells; a cell reads 1 when it lies in a fully included
subtree and 0 otherwise.  An iterate whose floor cell reads 1 is a member
after one lookup; every other iterate is asked of the tree's own closed
test, ``PartitionTree.overlapping``.  The start
points roll forward in cache-sized blocks of at most ``MC_BLOCK`` rows,
and the failure reported is the one a single batch would report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SystemOracle
from .geometry import balls_contain_cells, successor_corners, uncovered_fragments
from .synthesis import ConfigError, SynthResult
from .tree import PartitionTree

METHOD_EXACT = "exact-coverage"
METHOD_MONTE_CARLO = "monte-carlo"


@dataclass
class Certificate:
    passed: bool
    checked_leaves: int
    first_failure: dict | None
    method: str


def check_fixpoint(result: SynthResult) -> Certificate:
    """Exact re-certification of the final set.

    The recorded config must be valid (a finite positive Lipschitz bound
    and resolution floor).  Every included leaf's sample ball must still
    contain its cell (``r >= r_target + dist``), and the sample's successor
    box of radius ``L * r`` must be fully covered by the union of included
    leaf cells.  Both are decided with no tolerance on the stored floats:
    the ball in exact arithmetic, the successor box on the float box that
    holds it (``successor_corners``), which fails a box that ends within
    its rounding slack of a face past which no included cell lies.
    An empty union passes vacuously.
    """
    try:
        result.config.validate()
    except ConfigError as exc:
        return Certificate(False, 0, {"reason": f"invalid config: {exc}"}, METHOD_EXACT)
    lipschitz = result.config.lipschitz
    tree = result.tree
    # The tree is the cover index below.  Its cells tile by construction;
    # its coarse answers stand for the union of included leaves only if the
    # subtree statuses come from the leaf labels.
    tree.recount()
    nodes = tree.nodes
    leaves = tree.active_leaves()
    radius = [nodes.radius[i] for i in leaves]
    held = balls_contain_cells(
        radius,
        *(
            np.array([column[i] for i in leaves], dtype=float).reshape(-1, tree.dim)
            for column in (nodes.lo, nodes.hi, nodes.sample_x)
        ),
    )
    corners = successor_corners([nodes.sample_xp[i] for i in leaves], lipschitz, radius)
    checked = 0
    for i, ball, box in zip(leaves, held.tolist(), corners):
        checked += 1
        if not ball:
            return Certificate(
                False,
                checked,
                {"leaf": i, "reason": "sample ball does not contain the cell"},
                METHOD_EXACT,
            )
        leftovers = uncovered_fragments(box, tree)
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


# Cells in the membership bitmap of one tree.
MAX_BITMAP_CELLS = 1 << 22
# Most start points ``monte_carlo_invariance`` rolls forward at once, so
# that a step's temporaries stay in cache.
MC_BLOCK = 25_000


class _TreeMembership:
    """Vectorized membership test for the union of a tree's included cells.

    One bitmap over ``root_bounds`` (1 in a cell of a fully included
    subtree, else 0), which the roots tile as a grid of g_d roots on axis
    d, with ``g_d * 2**level`` cells on that axis: ``level`` is the depth of
    the deepest fully included subtree the status walk reaches.  The walk
    stops at the depth that keeps the bitmap within ``MAX_BITMAP_CELLS``,
    and a mixed subtree there reads 0.  A root's integer corner is its rank
    among the roots' lower faces on each axis, and a node's is twice its
    parent's plus its sign bits, so the split structure alone fills it.
    The bitmap carries a pad cell of 0 at both ends of every axis, so that
    a point off the bitmap reads 0 with no range test; ``cells`` is the
    interior.

    ``contains`` looks up each point's floor cell, clamped into the pad, and
    a 1 there is a member.  Every other point goes to ``_settle``, the
    tree's own closed test, ``overlapping(p, p)``; a point with an infinite
    or NaN coordinate is no member.
    """

    def __init__(self, tree: PartitionTree):
        self.tree = tree
        nodes = tree.nodes
        status, first_child = nodes.status, nodes.first_child
        n = tree.dim
        rank = [
            {face: k for k, face in enumerate(sorted({nodes.lo[r][d] for r in tree.roots}))}
            for d in range(n)
        ]
        grid = [len(faces) for faces in rank]
        cap = max((MAX_BITMAP_CELLS // math.prod(grid)).bit_length() - 1, 0) // n
        full = []  # (depth, integer corner) of the maximal fully included subtrees
        stack = [
            (r, 0, tuple(faces[c] for faces, c in zip(rank, nodes.lo[r])))
            for r in tree.roots
            if status[r] is not False
        ]
        bits = None  # each child's sign bits, in the order a split lays them out
        while stack:
            i, depth, corner = stack.pop()
            if status[i]:
                full.append((depth, corner))
            elif status[i] is None and depth < cap:
                bits = bits or (tree._signs > 0.0).tolist()
                stack += [
                    (first_child[i] + j, depth + 1, tuple(2 * c + b for c, b in zip(corner, s)))
                    for j, s in enumerate(bits)
                ]
        level = max((depth for depth, _ in full), default=0)
        self._padded = np.zeros(tuple((g << level) + 2 for g in grid), dtype=np.uint8)
        self.cells = self._padded[(slice(1, -1),) * n]
        # The flat index of interior cell (0, ..., 0) in the padded bitmap.
        self._offset = int(np.ravel_multi_index((1,) * n, self._padded.shape))
        for depth, corner in full:
            s = level - depth
            self.cells[tuple(slice(c << s, (c + 1) << s) for c in corner)] = 1
        self.lo = tree.root_bounds[0]
        self.pitch = 2.0 * nodes.target_radius[tree.roots[0]] / (1 << level)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        # Column by column: ops on an (N, n) array loop over rows of length n.
        cols = np.asarray(pts, dtype=float).T
        # One lookup of the floor cell, clamped into the pad (NaN lands on
        # -1, and a u that overflows to inf on ``side``).  A 1 there is a
        # cell of an included subtree, so the point is a member.
        flat = 0.0
        with np.errstate(over="ignore"):
            for col, g, side in zip(cols, self.lo, self.cells.shape):
                u = np.subtract(col, g)
                u /= self.pitch
                np.floor(u, out=u)
                np.fmax(u, -1.0, out=u)
                np.fmin(u, side, out=u)
                flat = flat * (side + 2) + u
        flat += self._offset
        hit = self._padded.take(flat.astype(np.intp)) == 1
        if not hit.all():
            rest = np.flatnonzero(~hit)
            hit[rest] = self._settle(cols[:, rest])
        return hit

    def _settle(self, cols: np.ndarray) -> np.ndarray:
        """The full test of the points whose columns are ``cols``."""
        hit = np.zeros(cols.shape[1], dtype=bool)
        for j in np.flatnonzero(np.isfinite(cols).all(axis=0)):
            p = tuple(cols[:, j].tolist())
            hit[j] = bool(self.tree.overlapping(p, p))
        return hit


def _start_points(tree: PartitionTree, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points of the union of included cells: a leaf with probability
    proportional to its volume, then a uniform point in its cell."""
    nodes = tree.nodes
    leaves = tree.active_leaves()
    radii = np.array([nodes.target_radius[i] for i in leaves])
    weight = (radii / radii.max()) ** tree.dim
    pick = rng.choice(len(leaves), size=samples, p=weight / weight.sum())
    lo, hi = (np.array([column[i] for i in leaves]) for column in (nodes.lo, nodes.hi))
    return rng.uniform(lo[pick], hi[pick])


def monte_carlo_invariance(
    tree: PartitionTree,
    oracle: SystemOracle,
    samples: int = 100_000,
    horizon: int = 50,
    seed: int = 0,
) -> Certificate:
    """Trajectory falsifier: roll the true map forward from points of the set.

    Draws start points uniformly from the union of the tree's included
    cells, iterates the oracle ``horizon`` steps, and fails at the first
    iterate that leaves the union: the least step, then the least start
    index.  The points roll forward in contiguous blocks of at most
    ``MC_BLOCK`` rows, one block after another.  Passing is evidence, not
    proof; the exact coverage check is the guarantee.
    """
    if not tree.n_included():
        raise ValueError("cannot sample trajectories from an empty set")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    member = _TreeMembership(tree)
    start = _start_points(tree, samples, np.random.default_rng(seed))
    # Near-equal blocks, so that with more than one each has at least
    # MC_BLOCK/2 rows: a map need not give a row the same last bits in a
    # one-row batch as in a large one.
    failure = None
    limit = horizon
    for block in np.array_split(start, -(-samples // MC_BLOCK)):
        pts = block
        for step in range(1, limit + 1):
            pts = oracle.map_points(pts)
            ok = member.contains(pts)
            if not ok.all():
                # The least step wins, then the least index: an earlier
                # block's failure at this step stands, so a later block
                # runs only to the step before it.
                j = int(np.argmin(ok))
                failure = {
                    "step": step,
                    "start": list(map(float, block[j])),
                    "state": list(map(float, pts[j])),
                }
                limit = step - 1
                break
    return Certificate(failure is None, samples, failure, METHOD_MONTE_CARLO)
