import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvset.dataset import Dataset, gen_dyadic_grid, gen_uniform
from pinvset.geometry import (
    Box,
    BoxList,
    CoverageClass,
    DimensionMismatchError,
    chebyshev,
    classify_coverage,
    uncovered_fragments,
)
from pinvset.tree import (
    Label,
    LabelTransitionError,
    TreeStructureError,
    new_tree,
    sample_ball_contains_cell,
)


def make_dataset(points):
    return Dataset(points, points)


def square_domain():
    return BoxList((Box((0.0, 0.0), 0.5),))


def test_new_tree_linear_domain(lin_oracle):
    ds = gen_uniform(lin_oracle, 20, seed=0)
    tree = new_tree(lin_oracle.domain, ds)
    assert len(tree.roots) == 1
    root = tree.nodes[tree.roots[0]]
    assert root.target_center == (0.375, -0.375)
    assert root.target_radius == 0.625
    assert root.label is Label.INCLUDED
    assert root.radius == pytest.approx(
        0.625 + chebyshev(root.target_center, root.sample_x)
    )


def test_new_tree_sample_at_center_gives_tight_radius():
    ds = make_dataset([(0.3, 0.3), (0.0, 0.0)])
    tree = new_tree(BoxList((Box((0.0, 0.0), 1.0),)), ds)
    root = tree.nodes[tree.roots[0]]
    assert root.sample_index == 1
    assert root.radius == 1.0


def test_new_tree_two_roots_tile():
    ds = make_dataset([(0.5, 0.5)])
    domain = BoxList((Box((0.5, 0.5), 0.5), Box((1.5, 0.5), 0.5)))
    tree = new_tree(domain, ds)
    assert len(tree.roots) == 2
    assert tree.active_volume() == pytest.approx(2.0)


def test_new_tree_rejects_bad_inputs():
    ds = make_dataset([(0.0, 0.0)])
    with pytest.raises(ValueError):
        new_tree(BoxList(()), ds)
    with pytest.raises(ValueError):
        new_tree(BoxList((Box((0.0, 0.0), 1.0), Box((0.5, 0.5), 1.0))), ds)


def test_divide_node_geometry():
    ds = make_dataset([(0.3, 0.3)])
    tree = new_tree(square_domain(), ds)
    children = tree.divide(tree.roots[0], ds)
    assert len(children) == 4
    centers = {tree.nodes[c].target_center for c in children}
    assert centers == {(-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)}
    for c in children:
        node = tree.nodes[c]
        assert node.target_radius == 0.25
        assert node.label is Label.INCLUDED
    # nearest sample at (0.3, 0.3): the (+,+) child gets r = 0.25 + 0.05
    plus = next(c for c in children if tree.nodes[c].target_center == (0.25, 0.25))
    assert tree.nodes[plus].radius == pytest.approx(0.3)


def test_divide_with_grid_data_collapses_radius(nonlin_oracle):
    ds = gen_dyadic_grid(nonlin_oracle, 0.25)
    tree = new_tree(nonlin_oracle.domain, ds)
    ids = [tree.roots[0]]
    for _ in range(2):
        nxt = []
        for i in ids:
            nxt.extend(tree.divide(i, ds))
        ids = nxt
    for i in ids:
        node = tree.nodes[i]
        assert node.radius == node.target_radius
        assert node.sample_x == node.target_center


def test_divide_non_leaf_rejected():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    tree.divide(tree.roots[0], ds)
    with pytest.raises(TreeStructureError):
        tree.divide(tree.roots[0], ds)


def test_leaves_active_and_candidate_set():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    assert tree.active_leaves() == [tree.roots[0]]
    children = tree.divide(tree.roots[0], ds)
    assert tree.active_leaves() == children
    tree.set_label(children[0], Label.EXCLUDED)
    tree.set_label(children[1], Label.UNKNOWN)
    assert tree.active_leaves() == children[2:]
    cs = tree.candidate_set()
    assert [b.center for b in cs] == [
        tree.nodes[c].target_center for c in children[2:]
    ]
    for c in children[2:]:
        tree.set_label(c, Label.EXCLUDED)
    assert tree.candidate_set().is_empty


def test_label_transitions():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    leaf = tree.roots[0]
    tree.set_label(leaf, Label.INCLUDED)  # re-confirmation is a no-op
    assert tree.label_log == []
    tree.set_label(leaf, Label.EXCLUDED, sweep=3)
    assert tree.label_log == [(3, leaf, 1, 0)]
    with pytest.raises(LabelTransitionError):
        tree.set_label(leaf, Label.INCLUDED)
    with pytest.raises(LabelTransitionError):
        tree.set_label(leaf, Label.UNKNOWN)


def test_label_on_interior_rejected():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    tree.divide(tree.roots[0], ds)
    with pytest.raises(TreeStructureError):
        tree.set_label(tree.roots[0], Label.EXCLUDED)


def test_tiling_preserved_under_division(rng):
    ds = make_dataset([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(30, 2))])
    tree = new_tree(square_domain(), ds)
    domain_vol = 1.0
    for _ in range(40):
        leaves = [i for i in tree.iter_leaves()]
        i = int(rng.choice(leaves))
        if tree.nodes[i].label is Label.INCLUDED:
            tree.divide(i, ds)
        leaf_vol = math.fsum(
            (2 * tree.nodes[j].target_radius) ** 2 for j in tree.iter_leaves()
        )
        assert leaf_vol == pytest.approx(domain_vol, rel=1e-9)


def test_sample_ball_contains_cell_everywhere(rng):
    ds = make_dataset([tuple(p) for p in rng.uniform(-0.5, 0.5, size=(50, 2))])
    tree = new_tree(square_domain(), ds)
    for _ in range(60):
        leaves = [i for i in tree.iter_leaves() if tree.nodes[i].label is Label.INCLUDED]
        tree.divide(int(rng.choice(leaves)), ds)
    for i in range(len(tree.nodes)):
        assert sample_ball_contains_cell(tree.nodes[i])


def test_children_halve_resolution():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    frontier = [tree.roots[0]]
    for level in range(1, 4):
        nxt = []
        for i in frontier:
            nxt.extend(tree.divide(i, ds))
        for c in nxt:
            assert tree.nodes[c].target_radius == 0.5 / 2 ** level
        frontier = nxt


def test_overlapping_collapses_full_subtrees():
    ds = make_dataset([(0.0, 0.0)])
    tree = new_tree(square_domain(), ds)
    children = tree.divide(tree.roots[0], ds)
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
        classify_coverage(Box((0.0, 0.0, 0.0), 1.0), tree)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_tree_coverage_matches_plain_scan_property(n, data):
    # A random tree over [-1, 1]^n: each step divides or retires a live leaf.
    ds = make_dataset([(0.0,) * n])
    tree = new_tree(BoxList((Box((0.0,) * n, 1.0),)), ds)
    for _ in range(data.draw(st.integers(0, 12))):
        live = tree.active_leaves()
        if not live:
            break
        i = live[data.draw(st.integers(0, len(live) - 1))]
        action = data.draw(st.sampled_from(("divide", "exclude", "unknown")))
        if action == "divide" and tree.nodes[i].target_radius > 1 / 16:
            tree.divide(i, ds)
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
    scan = tree.candidate_set()
    want = classify_coverage(query, scan)
    assert classify_coverage(query, tree) is want
    escaped = uncovered_fragments(query, tree, limit=1)
    assert (escaped == []) == (want is CoverageClass.FULLY_COVERED)
    assert (escaped == []) == (uncovered_fragments(query, scan, limit=1) == [])
