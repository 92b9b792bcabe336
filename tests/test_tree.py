import math

import pytest

from pinvset.dataset import Dataset, gen_dyadic_grid, gen_uniform
from pinvset.geometry import Box, BoxList, chebyshev
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
