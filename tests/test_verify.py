import math
import sys
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RASTER_CELL,
    PermutedDiagonal,
    cube,
    exact_coverage,
    in_cells,
    kept_cells,
    margin_separated_instance,
    raster_coverage,
    reference_monte_carlo,
)

from pinvset import verify
from pinvset.dataset import Dataset, SystemOracle, gen_uniform, linear2d
from pinvset.geometry import GEOM_TOL, CoverageClass, successor_corners
from pinvset.synthesis import SynthConfig, SynthResult, synthesize
from pinvset.tree import Label, new_tree
from pinvset.verify import (
    MAX_BITMAP_CELLS,
    check_fixpoint,
    monte_carlo_invariance,
    _start_points,
    _TreeMembership,
)


def synth_linear(lin_oracle, tau=0.02, m=4000, seed=4):
    ds = gen_uniform(lin_oracle, m, seed)
    tree = new_tree(lin_oracle.domain, ds)
    return synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=tau))


def hand_built_failing_result(lin_oracle):
    """A one-cell 'set' near the domain corner whose image escapes it."""
    x = (0.9, 0.9)
    x_plus = lin_oracle(x)
    assert x_plus == pytest.approx((0.55917, -0.29295))
    ds = Dataset([x], [x_plus])
    tree = new_tree(((0.875, 0.875), (0.9375, 0.9375)), ds)
    config = SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.01)
    return SynthResult(tree=tree, sweeps=1, config=config)


# -- exact fixpoint certificate --------------------------------------------------


def test_check_fixpoint_passes_on_synthesized(lin_oracle):
    res = synth_linear(lin_oracle)
    cert = check_fixpoint(res)
    assert cert.passed
    assert cert.method == "exact-coverage"
    assert cert.checked_leaves == res.leaf_counts["included"]
    assert cert.first_failure is None


def test_check_fixpoint_fails_on_escaping_box(lin_oracle):
    res = hand_built_failing_result(lin_oracle)
    cert = check_fixpoint(res)
    assert not cert.passed
    assert cert.first_failure["leaf"] == 0
    assert "fragment" in cert.first_failure


def test_check_fixpoint_empty_set_passes():
    # every sampled state maps far outside the domain: the run empties out
    from pinvset.dataset import SystemOracle
    import numpy as np

    domain = cube((0.0, 0.0), 0.5)
    oracle = SystemOracle("escape", lambda pts: np.full_like(pts, 50.0), 1e-9, domain)
    ds = gen_uniform(oracle, 200, seed=0)
    tree = new_tree(domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert kept_cells(tree) == []
    cert = check_fixpoint(res)
    assert cert.passed and cert.checked_leaves == 0


def test_check_fixpoint_detects_tampered_radius(lin_oracle):
    res = synth_linear(lin_oracle)
    leaf = res.tree.active_leaves()[0]
    res.tree.nodes.radius[leaf] *= 0.5  # ball no longer contains its cell
    cert = check_fixpoint(res)
    assert not cert.passed
    assert cert.first_failure["leaf"] == leaf


def test_check_fixpoint_rejects_radius_short_by_1e13(lin_oracle):
    # Within the old 1e-12 slack, so this leaf used to pass.
    res = synth_linear(lin_oracle)
    leaf = res.tree.active_leaves()[0]
    res.tree.nodes.radius[leaf] -= 1e-13
    cert = check_fixpoint(res)
    assert not cert.passed
    assert cert.checked_leaves == 1
    assert cert.first_failure == {"leaf": leaf, "reason": "sample ball does not contain the cell"}


def test_check_fixpoint_fragment_is_uncovered(lin_oracle):
    # Exclude one kept leaf: some leaf whose successor box reached into it
    # now fails, naming a fragment of that box inside the retired cell.
    res = synth_linear(lin_oracle)
    tree, nodes = res.tree, res.tree.nodes
    for i in tree.active_leaves():
        tree.set_label(i, Label.EXCLUDED)
        cert = check_fixpoint(res)
        if not cert.passed:
            break
    leaf, (flo, fhi) = cert.first_failure["leaf"], cert.first_failure["fragment"]
    # The fragment is cut from the float box that holds the successor box.
    ((lo, hi),) = successor_corners(
        nodes.sample_xp[[leaf]], res.config.lipschitz, nodes.radius[[leaf]]
    )
    assert all(a <= f <= g <= b for a, f, g, b in zip(lo, flo, fhi, hi))
    for lo, hi in kept_cells(tree):
        assert any(min(g, h) <= max(f, l) for f, g, l, h in zip(flo, fhi, lo, hi))


# -- raster oracle ----------------------------------------------------------------


def test_raster_nested_disjoint_partial():
    union = [cube((0.0, 0.0), 0.5)]
    nested = raster_coverage(cube((0.0, 0.0), 0.1), union, cell=0.02)
    assert nested.verdict is CoverageClass.FULLY_COVERED
    assert nested.covered_fraction == 1.0
    away = raster_coverage(cube((5.0, 5.0), 0.1), union, cell=0.02)
    assert away.verdict is CoverageClass.DISJOINT
    assert away.covered_fraction == 0.0


def test_raster_half_overlap_fraction():
    # query [-0.5,0.5]^2 against cover [0,1]^2: a quarter is covered
    union = [cube((0.5, 0.5), 0.5)]
    report = raster_coverage(cube((0.0, 0.0), 0.5), union, cell=0.01)
    assert report.verdict is CoverageClass.PARTIAL
    assert report.covered_fraction == pytest.approx(0.25, abs=2 * 0.01)


def test_raster_cell_validation():
    with pytest.raises(ValueError):
        raster_coverage(cube((0.0, 0.0), 0.1), [], cell=0.2)
    with pytest.raises(ValueError):
        raster_coverage(cube((0.0, 0.0), 0.1), [], cell=0.0)


def test_exact_classifier_agrees_with_raster(rng):
    verdicts = {CoverageClass.FULLY_COVERED: 0, CoverageClass.DISJOINT: 0, CoverageClass.PARTIAL: 0}
    for n in (2, 3):
        for _ in range(250):
            query, union = margin_separated_instance(rng, n)
            exact = exact_coverage(query, union)
            report = raster_coverage(query, union, cell=RASTER_CELL)
            assert exact is report.verdict
            verdicts[exact] += 1
    assert all(count > 0 for count in verdicts.values())


# -- union membership ----------------------------------------------------


def _random_tree(data, n, lo=0.0):
    """A random tree over one, two or three unit-cube roots in a strip from
    ``lo`` on every axis: each step divides or retires a live leaf."""
    ds = Dataset([(lo + 0.5,) * n], [(lo + 0.5,) * n])
    roots = data.draw(st.integers(1, 3))
    tree = new_tree(((lo,) * n, (lo + roots,) + (lo + 1.0,) * (n - 1)), ds)
    for _ in range(data.draw(st.integers(0, 12))):
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
    return tree, roots


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_union_membership_matches_plain_scan_property(n, data):
    tree, roots = _random_tree(data, n)
    # A small cell budget pushes the bitmap above its cap, so the cells of
    # mixed subtrees there are answered by the tree.
    budget = data.draw(st.sampled_from((MAX_BITMAP_CELLS, 64, 1)))
    # Lattice coordinates put points on cell faces and corners, and offsets
    # of GEOM_TOL/2 and 3*GEOM_TOL just inside and outside the closed test's
    # band around them, at interior faces and at the faces of the roots'
    # rectangle; arbitrary floats cover the general case, and non-finite or
    # huge ones no cell.
    offset = st.sampled_from((-3.0, -0.5, 0.5, 3.0)).map(lambda f: f * GEOM_TOL)
    coord = st.one_of(
        st.integers(-4, 32 * roots + 4).map(lambda k: k / 32),
        st.builds(lambda k, e: k / 32 + e, st.integers(-4, 32 * roots + 4), offset),
        st.builds(lambda f, e: f + e, st.sampled_from((0.0, 1.0, float(roots))), offset),
        st.floats(-0.25, roots + 0.25, allow_nan=False),
        st.sampled_from((np.inf, -np.inf, np.nan, 1e300, -1e300)),
    )
    drawn = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=40))
    # The centre of every leaf, so that a retired leaf inside a mixed cell
    # is always asked about.
    nodes = tree.nodes
    centres = [
        tuple((l + h) / 2 for l, h in zip(nodes.lo[i], nodes.hi[i])) for i in tree.iter_leaves()
    ]
    pts = np.array(drawn + centres)
    with patch.object(verify, "MAX_BITMAP_CELLS", budget):
        member = _TreeMembership(tree)
    scan = kept_cells(tree)
    want = [in_cells(scan, p) for p in pts.tolist()]
    assert member.contains(pts).tolist() == want


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -30])
@pytest.mark.parametrize("budget", [MAX_BITMAP_CELLS, 1])
def test_union_membership_of_non_finite_points(budget, scale):
    # An infinite coordinate made the full test warn on inf - inf; every
    # such point, and one far off the bitmap (whose u overflows on the small
    # cells), is no member, on the one-lookup path and on the full test (a
    # bitmap of one mixed cell).
    ds = Dataset([(0.5 * scale,) * 2], [(0.5 * scale,) * 2])
    tree = new_tree(((0.0, 0.0), (scale, scale)), ds)
    children = tree.divide(tree.roots, ds)
    tree.set_label(children[-1], Label.EXCLUDED)
    with patch.object(verify, "MAX_BITMAP_CELLS", budget):
        member = _TreeMembership(tree)
    inf, nan, s = float("inf"), float("nan"), scale
    pts = np.array(
        [(inf, 0.5 * s), (0.1 * s, -inf), (nan, 0.5 * s), (1e300, 0.0), (0.25 * s, 0.25 * s)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = member.contains(pts)
        full = member._settle(pts.T)
    assert got.tolist() == full.tolist() == [False, False, False, False, True]


def test_union_membership_on_dyadic_tiling(lin_oracle, rng):
    res = synth_linear(lin_oracle)
    member = _TreeMembership(res.tree)
    pts = rng.uniform(-1.1, 1.1, size=(4000, 2))
    scan = kept_cells(res.tree)
    want = np.array([in_cells(scan, p) for p in pts.tolist()])
    assert (member.contains(pts) == want).all()


def test_union_membership_above_the_cap(rng):
    # Split the low corner down to depth 13 and drop the high child at every
    # level: the bitmap stops at depth 11, and the points of its capped
    # corner cell ask the tree.
    ds = Dataset([(0.5, 0.5)], [(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (1.0, 1.0)), ds)
    corner = tree.roots[0]
    for _ in range(13):
        children = tree.divide([corner], ds)
        tree.set_label(children[-1], Label.EXCLUDED)
        corner = children[0]
    member = _TreeMembership(tree)
    assert member.cells.shape == (2 ** 11, 2 ** 11)
    assert min(tree.nodes.target_radius) == 2.0 ** -14  # cells of depth 13
    deep = rng.uniform(0.0, 2.0 ** -10, size=(3000, 2))
    capped = deep[(deep < 2.0 ** -11).all(axis=1)].tolist()
    with patch.object(tree, "overlapping", wraps=tree.overlapping) as probe:
        member.contains(deep)
    asked = {call.args[0] for call in probe.call_args_list}
    assert capped and asked >= set(map(tuple, capped))
    faces = np.floor(deep * 2 ** 14) / 2 ** 14
    pts = np.vstack((deep, faces, rng.uniform(-0.1, 1.1, size=(1000, 2))))
    scan = kept_cells(tree)
    want = [in_cells(scan, p) for p in pts.tolist()]
    assert member.contains(pts).tolist() == want


def test_union_membership_on_a_face_of_an_excluded_cell():
    # A point on the face between an included cell and an excluded one
    # falls in the excluded cell's bitmap entry; the tree's closed test
    # must answer it.
    ds = Dataset([(0.5, 0.5)], [(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (1.0, 1.0)), ds)
    children = tree.divide([tree.roots[0]], ds)
    tree.set_label(children[-1], Label.EXCLUDED)  # the high corner
    member = _TreeMembership(tree)
    pts = np.array([(0.5, 0.75), (0.75, 0.5), (0.75, 0.75), (0.25, 0.75)])
    assert member.contains(pts).tolist() == [True, True, False, True]


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: the one-lookup path of _TreeMembership.contains counts a point "
    "that the tree's closed test refuses, wherever one ulp exceeds GEOM_TOL"
))
def test_union_membership_lookup_agrees_with_the_tree_past_an_ulp():
    # linear2d's domain scaled by 2^17 is one root cube; its low-x children
    # are excluded, so the set's face is x = 49152, where one ulp is 2^-37,
    # about 7.3e-12.  p lies one ulp outside it, beyond GEOM_TOL: the tree
    # refuses p, but p - lo rounds up onto the face, whose cell is included.
    scale = 2.0 ** 17
    domain = tuple(tuple(scale * v for v in corner) for corner in linear2d().domain)
    ds = Dataset([(0.0, 0.0)], [(0.0, 0.0)])
    tree = new_tree(domain, ds)
    for child in tree.divide(tree.roots, ds):
        if tree.nodes.hi[child][0] == 49152.0:
            tree.set_label(child, Label.EXCLUDED)
    p = (math.nextafter(49152.0, -math.inf), -(2.0 ** 16))
    assert tree.overlapping(p, p) == []
    assert _TreeMembership(tree).contains(np.array([p])).tolist() == [False]


def test_start_points_are_uniform_on_the_set(rng):
    # Three included cells of side 1/2 and three of side 1/4.
    ds = Dataset([(0.5, 0.5)], [(0.5, 0.5)])
    tree = new_tree(((0.0, 0.0), (1.0, 1.0)), ds)
    children = tree.divide(tree.roots, ds)
    grandchildren = tree.divide(children[:1], ds)
    tree.set_label(grandchildren[0], Label.EXCLUDED)
    pts = _start_points(tree, 40000, rng)
    leaves = tree.active_leaves()
    nodes = tree.nodes
    inside = np.array([
        ((pts >= nodes.lo[i]) & (pts <= nodes.hi[i])).all(axis=1) for i in leaves
    ])
    assert inside.any(axis=0).all()
    volumes = np.array([(2.0 * nodes.target_radius[i]) ** 2 for i in leaves])
    expected = len(pts) * volumes / volumes.sum()
    assert (np.abs(inside.sum(axis=1) - expected) <= 6.0 * np.sqrt(expected)).all()


# -- Monte Carlo falsifier -----------------------------------------------------------


def test_monte_carlo_certified_set_survives(lin_oracle):
    res = synth_linear(lin_oracle)
    assert check_fixpoint(res).passed
    cert = monte_carlo_invariance(res.tree, lin_oracle, samples=20000, horizon=50, seed=1)
    assert cert.passed
    assert cert.method == "monte-carlo"


def test_monte_carlo_catches_escaping_set(lin_oracle):
    res = hand_built_failing_result(lin_oracle)
    cert = monte_carlo_invariance(res.tree, lin_oracle, samples=500, horizon=5, seed=0)
    assert not cert.passed
    assert cert.first_failure["step"] == 1


def test_monte_carlo_zero_horizon_trivially_passes(lin_oracle):
    res = hand_built_failing_result(lin_oracle)
    cert = monte_carlo_invariance(res.tree, lin_oracle, samples=100, horizon=0, seed=0)
    assert cert.passed


def test_monte_carlo_rejects_empty_set(lin_oracle):
    res = hand_built_failing_result(lin_oracle)
    res.tree.set_label(res.tree.roots[0], Label.EXCLUDED)
    with pytest.raises(ValueError):
        monte_carlo_invariance(res.tree, lin_oracle, samples=10, horizon=1)


def test_monte_carlo_time_does_not_grow_with_the_root_count():
    # One bitmap over the rectangle the roots tile: a membership test of the
    # same points runs the same lines and calls for 4,096 unit roots in a
    # strip as for 64 (one bitmap per root made it 70x slower).  They are
    # counted, not timed, so the host's load cannot move the result; a line
    # event, unlike a call, also counts a per-root loop that calls nothing.
    pts = np.random.default_rng(0).uniform((0.0, 0.0), (64.0, 1.0), size=(10_000, 2))

    def calls(roots):
        domain = ((0.0, 0.0), (float(roots), 1.0))
        ds = Dataset([(0.5, 0.5)], [(0.5, 0.5)])
        tree = new_tree(domain, ds)
        identity = SystemOracle("identity", lambda pts: pts, 1.0, domain)
        assert monte_carlo_invariance(tree, identity, samples=1000, horizon=5).passed
        member = _TreeMembership(tree)
        assert member.contains(pts).all()
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            count += 1
            return trace

        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            member.contains(pts)
        finally:
            sys.settrace(outer)
        return count

    assert calls(4096) == calls(64) > 0


def test_monte_carlo_blocks_report_what_one_batch_reports():
    # Rolled in blocks of 1, 7, 64 or MC_BLOCK rows, the falsifier reports
    # the failure that one batch judged by the full membership test reports:
    # the least step, then the least start index.  A permuted diagonal map
    # is elementwise, so a row maps to the same bits in any batch.
    outcomes = set()

    @settings(max_examples=40, deadline=None)
    @given(
        perm=st.permutations((0, 1)),
        a=st.tuples(*[st.integers(-19, 19).map(lambda k: k / 16)] * 2),
        b=st.tuples(*[st.integers(-6, 6).map(lambda k: k / 16)] * 2),
        seed=st.integers(0, 2 ** 32 - 1),
        samples=st.integers(1, 3000),
        horizon=st.integers(0, 8),
        data=st.data(),
    )
    def check(perm, a, b, seed, samples, horizon, data):
        f = PermutedDiagonal(tuple(perm), a, b)
        tree, _ = _random_tree(data, 2, lo=-1.0)
        if not tree.n_included():
            return
        oracle = SystemOracle("permuted-diagonal", f, f.lipschitz, tree.root_bounds)
        want = reference_monte_carlo(tree, oracle, samples, horizon, seed)
        outcomes.add(want.passed)
        for block in (1, 7, 64, verify.MC_BLOCK):
            with patch.object(verify, "MC_BLOCK", block):
                assert monte_carlo_invariance(tree, oracle, samples, horizon, seed) == want

    check()
    assert outcomes == {True, False}


def test_soundness_chain(lin_oracle, nonlin_oracle):
    # exact certificate implies no Monte Carlo escape on the fixtures
    for oracle, tau in ((lin_oracle, 0.05), (nonlin_oracle, 0.05)):
        ds = gen_uniform(oracle, 5000, seed=8)
        tree = new_tree(oracle.domain, ds)
        res = synthesize(tree, ds, SynthConfig(lipschitz=oracle.lipschitz, tau=tau))
        cert = check_fixpoint(res)
        assert cert.passed
        if res.tree.n_included():
            mc = monte_carlo_invariance(res.tree, oracle, samples=20000, horizon=50, seed=3)
            assert mc.passed
