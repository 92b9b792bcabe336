import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chebyshev, cube, exact_coverage, kept_cells, roots_tree

from pinvset.dataset import Dataset, gen_dyadic_grid, gen_uniform
from pinvset.geometry import (
    CoverageClass,
    DimensionMismatchError,
    MAX_DOMAIN_CUBES,
    balls_contain_cells,
    classify_coverage,
    rect_to_cubes,
    successor_box,
    successor_corners,
    uncovered_fragments,
)
from pinvset.tree import (
    Label,
    LabelTransitionError,
    TreeStructureError,
    _first_children,
    new_tree,
)


def make_dataset(points):
    return Dataset(points, points)


def square_domain():
    return ((-0.5, -0.5), (0.5, 0.5))


def test_new_tree_linear_domain(lin_oracle):
    ds = gen_uniform(lin_oracle, 20, seed=0)
    tree = new_tree(lin_oracle.domain, ds)
    assert len(tree.roots) == 1
    nodes, root = tree.nodes, tree.roots[0]
    assert nodes.target_center[root] == (0.375, -0.375)
    assert nodes.target_radius[root] == 0.625
    assert nodes.label[root] is Label.INCLUDED
    assert nodes.parent[root] == -1 and nodes.first_child[root] == -1
    assert nodes.radius[root] == pytest.approx(
        0.625 + chebyshev(nodes.target_center[root], nodes.sample_x[root])
    )


def test_new_tree_sample_at_center_gives_tight_radius():
    ds = make_dataset([(0.3, 0.3), (0.0, 0.0)])
    tree = new_tree(((-1.0, -1.0), (1.0, 1.0)), ds)
    root = tree.roots[0]
    assert tree.nodes.sample_index[root] == 1
    assert tree.nodes.radius[root] == 1.0


def test_new_tree_two_roots_tile():
    ds = make_dataset([(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (2.0, 1.0)), ds)
    assert [tree.nodes.target_center[i] for i in tree.roots] == [(0.5, 0.5), (1.5, 0.5)]
    assert tree.active_volume() == pytest.approx(2.0)


def test_new_tree_rejects_bad_inputs():
    ds = make_dataset([(0.0, 0.0)])
    with pytest.raises(ValueError):
        new_tree(((0.0, 0.0), (0.0, 1.0)), ds)  # no interior
    with pytest.raises(ValueError):
        new_tree(((0.0, 0.0), (1.5, 1.0)), ds)  # not tiled by equal cubes
    with pytest.raises(ValueError):
        new_tree(((0.0,), (1.0,)), ds)  # of another dimension than the data


def test_divide_node_geometry():
    ds = make_dataset([(0.3, 0.3)])
    tree = new_tree(square_domain(), ds)
    nodes = tree.nodes
    children = tree.divide(tree.roots, ds)
    assert children == [1, 2, 3, 4]
    assert nodes.first_child[tree.roots[0]] == 1
    # one contiguous block, in sign-vector order
    assert [nodes.target_center[c] for c in children] == [
        (-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)
    ]
    assert [nodes.lo[c] for c in children][-1] == (0.0, 0.0)
    assert [nodes.hi[c] for c in children][0] == (0.0, 0.0)
    for c in children:
        assert nodes.target_radius[c] == 0.25
        assert nodes.label[c] is Label.INCLUDED
        assert nodes.parent[c] == tree.roots[0] and nodes.first_child[c] == -1
    # nearest sample at (0.3, 0.3): the (+,+) child gets r = 0.25 + 0.05
    assert nodes.radius[children[-1]] == pytest.approx(0.3)


def test_divide_with_grid_data_collapses_radius(nonlin_oracle):
    ds = gen_dyadic_grid(nonlin_oracle, 0.25)
    tree = new_tree(nonlin_oracle.domain, ds)
    ids = tree.roots
    for _ in range(2):
        ids = tree.divide(ids, ds)
    nodes = tree.nodes
    for i in ids:
        assert nodes.radius[i] == nodes.target_radius[i]
        assert nodes.sample_x[i] == nodes.target_center[i]


def test_divide_non_leaf_rejected():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    children = tree.divide(tree.roots, ds)
    with pytest.raises(TreeStructureError):
        tree.divide(tree.roots, ds)
    with pytest.raises(TreeStructureError):
        tree.divide(children[:1] * 2, ds)  # one leaf twice in a wave
    tree.set_label(children[0], Label.EXCLUDED)
    with pytest.raises(TreeStructureError):
        tree.divide(children[:1], ds)  # a retired leaf
    assert tree.divide([], ds) == []
    assert len(tree.nodes) == 5


def test_leaves_active_and_candidate_set():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    assert tree.active_leaves() == [tree.roots[0]]
    children = tree.divide(tree.roots, ds)
    assert tree.active_leaves() == children
    tree.set_label(children[0], Label.EXCLUDED)
    tree.set_label(children[1], Label.UNKNOWN)
    assert tree.active_leaves() == children[2:]
    assert kept_cells(tree) == [(tree.nodes.lo[c], tree.nodes.hi[c]) for c in children[2:]]
    assert tree.n_included() == 2
    for c in children[2:]:
        tree.set_label(c, Label.EXCLUDED)
    assert tree.active_leaves() == [] and tree.n_included() == 0


def test_label_transitions():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    leaf = tree.roots[0]
    tree.set_label(leaf, Label.INCLUDED)  # re-confirmation is a no-op
    assert tree.nodes.label[leaf] is Label.INCLUDED and tree.n_included() == 1
    tree.set_label(leaf, Label.EXCLUDED)
    assert tree.nodes.label[leaf] is Label.EXCLUDED and tree.n_included() == 0
    with pytest.raises(LabelTransitionError):
        tree.set_label(leaf, Label.INCLUDED)
    with pytest.raises(LabelTransitionError):
        tree.set_label(leaf, Label.UNKNOWN)


def test_label_on_interior_rejected():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    tree.divide(tree.roots, ds)
    with pytest.raises(TreeStructureError):
        tree.set_label(tree.roots[0], Label.EXCLUDED)


def test_tiling_preserved_under_division(rng):
    ds = make_dataset([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(30, 2))])
    tree = new_tree(square_domain(), ds)
    domain_vol = 1.0
    for _ in range(40):
        leaves = [i for i in tree.iter_leaves()]
        i = int(rng.choice(leaves))
        if tree.nodes.label[i] is Label.INCLUDED:
            tree.divide([i], ds)
        leaf_vol = math.fsum(
            (2 * tree.nodes.target_radius[j]) ** 2 for j in tree.iter_leaves()
        )
        assert leaf_vol == pytest.approx(domain_vol, rel=1e-9)


def test_sample_ball_contains_cell_everywhere(rng):
    ds = make_dataset([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(50, 2))])
    tree = new_tree(square_domain(), ds)
    for _ in range(60):
        tree.divide([int(rng.choice(tree.active_leaves()))], ds)
    nodes = tree.nodes
    for i in range(len(nodes)):
        # r >= r_target + dist(center, sample): the ball contains the cell
        assert nodes.radius[i] >= nodes.target_radius[i] + chebyshev(
            nodes.target_center[i], nodes.sample_x[i]
        )


def test_wave_division_matches_one_leaf_at_a_time(rng):
    # One divide call per wave must number and fill the nodes exactly as
    # dividing the same leaves one by one, in order.
    ds = make_dataset([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(40, 2))])
    a = new_tree(square_domain(), ds)
    b = new_tree(square_domain(), ds)
    wave_a = wave_b = a.roots
    for _ in range(3):
        wave_a = a.divide(wave_a, ds)
        wave_b = [c for i in wave_b for c in b.divide([i], ds)]
        assert wave_a == wave_b
    assert a.nodes == b.nodes


def test_recount_matches_incremental_counters(rng):
    ds = make_dataset([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(40, 2))])
    tree = new_tree(square_domain(), ds)
    for _ in range(30):
        live = tree.active_leaves()
        i = int(rng.choice(live))
        if rng.random() < 0.6:
            tree.divide([i], ds)
        else:
            tree.set_label(i, Label.EXCLUDED)
    status = list(tree.nodes.status)
    tree.recount()
    assert tree.nodes.status == status
    assert tree.n_included() == len(tree.active_leaves())


def _status_by_definition(tree):
    """Each node's status from the labels of its leaves, by a plain walk:
    True when all are INCLUDED, False when none is, None otherwise."""
    nodes = tree.nodes

    def leaves(i):
        f = nodes.first_child[i]
        return [i] if f < 0 else [j for c in range(f, f + tree.fanout) for j in leaves(c)]

    status = []
    for i in range(len(nodes)):
        kept = {nodes.label[j] is Label.INCLUDED for j in leaves(i)}
        status.append(kept.pop() if len(kept) == 1 else None)
    return status


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    two_roots=st.booleans(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["divide", Label.EXCLUDED, Label.UNKNOWN]),
            st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
        ),
        max_size=30,
    ),
)
def test_status_follows_the_leaf_labels_property(n, two_roots, steps):
    # Random waves of divisions and retirements, as EXCLUDED and as
    # UNKNOWN: after each, every node's status is its definition from the
    # leaf labels, recount leaves the column as it is, and n_included
    # counts the included leaves.
    lo, hi = (0.0,) * n, (2.0 if two_roots else 1.0,) + (1.0,) * (n - 1)
    ds = make_dataset(np.random.default_rng(n).uniform(0.0, 1.0, size=(20, n)))
    tree = new_tree((lo, hi), ds)
    for op, picks in steps:
        live = tree.active_leaves()
        if not live:
            break
        chosen = sorted({live[k % len(live)] for k in picks})
        if op == "divide":
            tree.divide(chosen, ds)
        else:
            for i in chosen:
                tree.set_label(i, op)
        want = _status_by_definition(tree)
        assert tree.nodes.status == want
        tree.recount()
        assert tree.nodes.status == want
        assert tree.n_included() == len(tree.active_leaves())
        label = tree.nodes.label
        assert tree.active_leaves() == [i for i in tree.iter_leaves() if label[i] is Label.INCLUDED]


def test_children_halve_resolution():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    frontier = tree.roots
    for level in range(1, 4):
        frontier = tree.divide(frontier, ds)
        for c in frontier:
            assert tree.nodes.target_radius[c] == 0.5 / 2 ** level


def test_overlapping_collapses_full_subtrees():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    children = tree.divide(tree.roots, ds)
    # all leaves active: the whole root collapses into one rectangle
    rects = tree.overlapping((-0.5, -0.5), (0.5, 0.5))
    assert rects == [((-0.5, -0.5), (0.5, 0.5))]
    tree.set_label(children[0], Label.EXCLUDED)
    rects = tree.overlapping((-0.5, -0.5), (0.5, 0.5))
    assert len(rects) == 3
    assert ((-0.5, -0.5), (0.0, 0.0)) not in rects


def test_overlapping_prunes_disjoint_probe():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    assert tree.overlapping((2.0, 2.0), (3.0, 3.0)) == []


def test_overlapping_rejects_probe_of_other_dimension():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    with pytest.raises(DimensionMismatchError):
        tree.overlapping((0.0,), (1.0,))
    with pytest.raises(DimensionMismatchError):
        classify_coverage(cube((0.0, 0.0, 0.0), 1.0), tree)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_tree_coverage_matches_plain_scan_property(n, data):
    # A random tree over [-1, 1]^n: each step divides or retires a live leaf.
    ds = make_dataset([(0.0,) * n])
    tree = new_tree(((-1.0,) * n, (1.0,) * n), ds)
    for _ in range(data.draw(st.integers(0, 12))):
        live = tree.active_leaves()
        if not live:
            break
        i = live[data.draw(st.integers(0, len(live) - 1))]
        action = data.draw(st.sampled_from(("divide", "exclude", "unknown")))
        if action == "divide" and tree.nodes.target_radius[i] > 1 / 16:
            tree.divide([i], ds)
        elif action == "exclude":
            tree.set_label(i, Label.EXCLUDED)
        elif action == "unknown":
            tree.set_label(i, Label.UNKNOWN)
    # Lattice corners land exactly on cell faces, so queries often touch a
    # cover only along a face; arbitrary floats cover the general case.
    coord = st.one_of(
        st.integers(-20, 20).map(lambda k: k / 16),
        st.floats(-1.25, 1.25, allow_nan=False),
    )
    corners = [sorted(data.draw(st.tuples(coord, coord))) for _ in range(n)]
    query = (tuple(c[0] for c in corners), tuple(c[1] for c in corners))
    want = exact_coverage(query, kept_cells(tree))
    assert classify_coverage(query, tree) is want
    escaped = uncovered_fragments(query, tree)
    assert (escaped == []) == (want is CoverageClass.FULLY_COVERED)


def one_cell_kept():
    """[-0.5, 0.5]^2 split once, with only the low corner cell [-0.5, 0]^2
    included."""
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    children = tree.divide(tree.roots, ds)
    for c in children[1:]:
        tree.set_label(c, Label.EXCLUDED)
    return tree


def test_query_slightly_wider_than_its_cover_is_partial():
    tree = one_cell_kept()
    cell = ((-0.5, -0.5), (0.0, 0.0))
    assert tree.classify(cell) is CoverageClass.FULLY_COVERED
    assert tree.uncovered(cell) is None
    # 5e-13 past the face into an excluded cell, and past the domain.
    wider = ((-0.5, -0.5), (5e-13, 0.0))
    outside = ((-0.5 - 5e-13, -0.5), (0.0, 0.0))
    for query in (wider, outside):
        assert exact_coverage(query, kept_cells(tree)) is CoverageClass.PARTIAL
        assert classify_coverage(query, tree) is CoverageClass.PARTIAL
    assert tree.uncovered(wider) == ((0.0, -0.5), (5e-13, 0.0))
    assert tree.uncovered(outside) == ((-0.5 - 5e-13, -0.5), (-0.5, 0.0))


def test_successor_below_one_ulp_is_covered():
    tree = one_cell_kept()
    # L * r = 1e-21 is below an ulp of 0.25, so the box rounds to a point.
    succ = successor_box((-0.25, -0.25), 1e-20, 0.1)
    assert [tuple(map(float, corner)) for corner in succ] == [(-0.25, -0.25)] * 2
    ((l0, l1, h0, h1),) = successor_corners([(-0.25, -0.25)], 1e-20, [0.1])
    assert tree.classify_within(l0, l1, h0, h1, True) is CoverageClass.FULLY_COVERED
    assert tree.classify(succ) is CoverageClass.FULLY_COVERED
    # On the domain's face the exact rectangle crosses it by 1e-21, which
    # the intervals leave open.
    face = successor_box((-0.5, -0.25), 1e-20, 0.1)
    ((l0, l1, h0, h1),) = successor_corners([(-0.5, -0.25)], 1e-20, [0.1])
    assert tree.classify_within(l0, l1, h0, h1, True) is None
    assert tree.classify(face) is CoverageClass.PARTIAL
    assert tree.uncovered(face) == ((-0.5, -0.25), (-0.5, -0.25))


def test_successor_across_a_face_within_its_rounding_is_open():
    # [0, 1]^2 split once, with the low corner cell [0, 0.5]^2 excluded.  The
    # box lies inside that cell, an ulp short of its face x = 0.5, but its
    # corners' intervals reach past the face into the included cell beyond.
    # Only the face rule stops the walk there: without it, the face contact
    # reads as covered and the excluded cell as no gap.
    ds = make_dataset([(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (1.0, 1.0)), ds)
    tree.set_label(tree.divide(tree.roots, ds)[0], Label.EXCLUDED)
    x_plus = (math.nextafter(0.5, 0.0), 0.25)
    succ = successor_box(x_plus, 1e-20, 0.1)
    ((l0, l1, h0, h1),) = successor_corners([x_plus], 1e-20, [0.1])
    assert succ[1][0] < 0.5 < h1[0]
    assert tree.classify_within(l0, l1, h0, h1, True) is None
    assert exact_coverage(succ, kept_cells(tree)) is CoverageClass.DISJOINT
    assert tree.classify(succ) is CoverageClass.DISJOINT


def test_classify_across_roots():
    # Two roots of side 2 over [0, 4] x [0, 2].  The first is split into
    # unit cells, and the last of them, [1, 2]^2, is excluded, so the kept
    # unit cells make an L.
    ds = make_dataset([(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (4.0, 2.0)), ds)
    cells = tree.divide(tree.roots[:1], ds)
    assert [tree.nodes.target_center[i] for i in cells] == [
        (0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)
    ]
    tree.set_label(cells[3], Label.EXCLUDED)
    straddle = ((0.75, 0.25), (1.25, 0.75))
    assert tree.classify(straddle) is CoverageClass.FULLY_COVERED
    assert tree.uncovered(straddle) is None
    across = ((1.75, 0.25), (2.25, 0.75))  # from the first root into the second
    assert tree.classify(across) is CoverageClass.FULLY_COVERED
    # In the roots' bounding box, but partly in the notch [1, 2] x [1, 2].
    notch = ((0.75, 0.75), (1.25, 1.25))
    assert tree.classify(notch) is CoverageClass.PARTIAL
    assert tree.uncovered(notch) == ((1.0, 1.0), (1.25, 1.25))
    # Past the bounding box.
    below = ((0.75, -0.25), (1.25, 0.25))
    assert tree.uncovered(below) == ((0.75, -0.25), (1.25, 0.0))
    # With the cell [1, 2] x [0, 1] excluded, the part of a query in it is
    # the gap.
    tree.set_label(cells[2], Label.EXCLUDED)
    assert tree.classify(straddle) is CoverageClass.PARTIAL
    assert tree.uncovered(straddle) == ((1.0, 0.25), (1.25, 0.75))
    assert tree.classify(across) is CoverageClass.PARTIAL
    assert tree.uncovered(across) == ((1.75, 0.25), (2.0, 0.75))
    assert tree.classify(((1.25, 0.25), (1.75, 0.75))) is CoverageClass.DISJOINT


def _cubes_tree(lo, hi):
    """A tree of as many roots as ``rect_to_cubes(lo, hi)`` cuts, read
    through ``from_columns``; its root cells must be those cubes, in order."""
    centers, radius = rect_to_cubes(lo, hi)
    tree = roots_tree(lo, hi, len(centers))
    nodes = tree.nodes
    assert tree.roots == list(range(len(centers)))
    assert nodes.target_center == list(map(tuple, centers.tolist()))
    assert nodes.target_radius == [radius] * len(centers)
    assert nodes.lo == list(map(tuple, (centers - radius).tolist()))
    assert nodes.hi == list(map(tuple, (centers + radius).tolist()))
    return tree


@settings(max_examples=100, deadline=None)
@given(
    lo=st.lists(st.integers(-8, 8).map(lambda k: k / 4), min_size=1, max_size=3),
    counts=st.lists(st.integers(1, 4), min_size=2, max_size=2),
    side=st.sampled_from((0.25, 0.5, 1.0, 0.1)),
)
def test_root_rule_takes_the_cubes_of_root_bounds(lo, counts, side):
    hi = [a + k * side for a, k in zip(lo, [1, *counts])]  # axis 0 is the shortest
    try:
        rect_to_cubes(lo, hi)
    except ValueError:
        return  # faces that miss by an ulp: rect_to_cubes refuses them itself
    tree = _cubes_tree(lo, hi)
    assert tree.root_bounds == (tuple(lo), tuple(hi))


def test_root_rule_accepts_a_single_cube():
    for lo, hi in (
        ((0.25, -7.125), (0.375, -7.0)),
        ((-0.5, 1.5, -4.0), (4.5, 6.5, 1.0)),
        ((1.0,), (1.5,)),
    ):
        tree = _cubes_tree(lo, hi)
        assert len(tree.roots) == 1
        assert tree.root_bounds == (lo, hi)


# Root sets an older result file could hold as cubes, each now given as the
# rectangle the cubes span and their number.  That rectangle is not tiled
# by as many cubes, or by equal cubes at all, so none is a tree's root set.
@pytest.mark.parametrize("lo,hi,count,reason", [
    pytest.param((0.0, 0.0), (2.0, 2.0), 3, "the tree has 3 roots, but rect_to_cubes cuts 1",
                 id="L"),
    pytest.param((-0.5, -0.5), (0.5, 0.5), 4, "the tree has 4 roots, but rect_to_cubes cuts 1",
                 id="quarters"),
    pytest.param((0.0, 0.0), (1.5, 1.0), 2, "faces 2.0 and 1.5 differ", id="radii"),
    pytest.param((-1.0, -1.0), (1.5, 1.0), 2, "faces 1.0 and 1.5 differ", id="overlap"),
    pytest.param((-1.0, -1.0), (1.5, 1.5), 2, "rect_to_cubes cuts 1 cubes", id="diagonal"),
    pytest.param((-1.0, -1.0), (1.0, 1.0), 2, "rect_to_cubes cuts 1 cubes", id="duplicate"),
    pytest.param((0.0, 0.0), (2.0, 2.0), 4, "rect_to_cubes cuts 1 cubes",
                 id="duplicate-for-missing"),
    pytest.param((0.0,), (2.0,), 3, "rect_to_cubes cuts 1 cubes", id="overlap-1d"),
    pytest.param((0.0, 0.0), (4.0, 1.0), 2, "rect_to_cubes cuts 4 cubes", id="apart"),
    # 0.1 + 0.1 != 0.3 - 0.1: the two cubes' faces miss by one ulp, and the
    # segment [0, 0.4] they span is one cube.
    pytest.param((0.0,), (0.4,), 2, "rect_to_cubes cuts 1 cubes", id="ulp"),
    pytest.param((1.0,), (1.0,), 1, "root_bounds: degenerate domain rectangle",
                 id="zero-radius"),
])
def test_root_rule_refuses(lo, hi, count, reason):
    with pytest.raises(ValueError, match=reason):
        roots_tree(lo, hi, count)


def test_root_rule_takes_a_strip_of_the_most_cubes():
    tree = _cubes_tree((0.0, 0.0), (float(MAX_DOMAIN_CUBES), 1.0))
    assert len(tree.roots) == MAX_DOMAIN_CUBES
    assert tree.root_bounds == ((0.0, 0.0), (float(MAX_DOMAIN_CUBES), 1.0))


def _near(v, ulps):
    """A float ``ulps`` steps from v (negative steps go down)."""
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.inf if ulps > 0 else -math.inf)
    return v


@settings(max_examples=300, deadline=None)
@given(two_roots=st.booleans(), data=st.data())
def test_successor_near_faces_matches_fractions_property(two_roots, data):
    # A random tree over one root or two side by side, with faces on a 1/32
    # lattice whose lines are exact floats.
    ds = make_dataset([(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (1.0 + two_roots, 1.0)), ds)
    for _ in range(data.draw(st.integers(0, 10))):
        live = tree.active_leaves()
        if not live:
            break
        i = live[data.draw(st.integers(0, len(live) - 1))]
        action = data.draw(st.sampled_from(("divide", "exclude", "unknown")))
        if action == "divide" and tree.nodes.target_radius[i] > 1 / 32:
            tree.divide([i], ds)
        elif action == "exclude":
            tree.set_label(i, Label.EXCLUDED)
        elif action == "unknown":
            tree.set_label(i, Label.UNKNOWN)
    # A successor whose corners fall within a few ulps of lattice lines: a
    # center near one line and a reach that puts the corner near another.
    lipschitz = data.draw(st.sampled_from((0.8225, 1.0, 5.728, 1e-20)))
    radius = data.draw(st.sampled_from((1 / 64, 0.03, 0.1, 0.37)))
    reach = lipschitz * radius
    center = []
    for _ in range(2):
        line = data.draw(st.integers(-4, 72)) / 32
        side = data.draw(st.sampled_from((-1.0, 0.0, 1.0)))
        center.append(_near(line + side * reach, data.draw(st.integers(-3, 3))))
    center = tuple(center)
    succ = successor_box(center, lipschitz, radius)
    scan = kept_cells(tree)
    want = exact_coverage(succ, scan)
    # The intervals hold the exact corners, and settle the verdict or
    # leave it open; the exact corners settle it.
    ((l0, l1, h0, h1),) = successor_corners([center], lipschitz, [radius])
    assert all(a <= v <= b for a, v, b in zip(l0 + h0, succ[0] + succ[1], l1 + h1))
    assert tree.classify_within(l0, l1, h0, h1, radius > 0.0) in (None, want)
    verdict, fragment = tree.classify(succ), tree.uncovered(succ)
    assert verdict is want
    assert (fragment is None) == (verdict is CoverageClass.FULLY_COVERED)
    if fragment is not None:
        # The fragment is uncovered: its interior misses every included cell.
        flo, fhi = fragment
        for lo, hi in scan:
            assert any(min(b, h) <= max(a, l) for a, b, l, h in zip(flo, fhi, lo, hi))


def test_grow_rounds_the_ball_radius_up_where_the_sum_falls_short():
    # 1 + 2^-60 rounds down to 1.0, so the ball of radius 1.0 would miss
    # the cell's far edge by 2^-60; the stored radius is the next float up.
    ds = make_dataset([(2.0 ** -60, 0.0)])
    tree = new_tree(((-1.0, -1.0), (1.0, 1.0)), ds)
    root = tree.roots[0]
    assert tree.nodes.radius[root] == math.nextafter(1.0, 2.0)
    cell, sample = ([(-1.0, -1.0)], [(1.0, 1.0)]), [(2.0 ** -60, 0.0)]
    assert balls_contain_cells([math.nextafter(1.0, 2.0)], *cell, sample).all()
    assert not balls_contain_cells([1.0], *cell, sample).any()


def _first_children_loop(parents, fanout):
    """The node-by-node scan that ``tree._first_children`` does in arrays:
    the reference for its result and for the node each fault names."""
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


@st.composite
def _parent_columns(draw):
    """The parent column of a tree that ``divide`` grows, then up to two
    edits: a parent moved (past 64 bits too), a node dropped or repeated,
    two nodes swapped."""
    fanout = draw(st.sampled_from([2, 4]))
    parents = [-1] * draw(st.integers(1, 3))
    leaves = list(range(len(parents)))
    for _ in range(draw(st.integers(0, 6))):
        leaf = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        leaves += range(len(parents), len(parents) + fanout)
        parents += [leaf] * fanout
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(parents) - 1))
        edit = draw(st.sampled_from(["move", "drop", "repeat", "swap"]))
        if edit == "move":
            parents[i] = draw(st.sampled_from([-2, 2 ** 64, len(parents)]) | st.integers(-1, i))
        elif edit == "drop" and len(parents) > 1:
            del parents[i]
        elif edit == "repeat":
            parents.insert(i, parents[i])
        else:
            j = draw(st.integers(0, len(parents) - 1))
            parents[i], parents[j] = parents[j], parents[i]
    return parents, fanout


@settings(max_examples=400, deadline=None)
@given(column=_parent_columns())
def test_first_children_matches_the_node_by_node_scan(column):
    # The loader's array pass over the parent column gives the first
    # children of the scan it replaced, or refuses the column naming the
    # same node for the same fault.
    parents, fanout = column
    try:
        want = _first_children_loop(parents, fanout)
    except TreeStructureError as exc:
        with pytest.raises(TreeStructureError) as got:
            _first_children(parents, fanout)
        assert str(got.value) == str(exc)
    else:
        assert _first_children(parents, fanout).tolist() == want
