import numpy as np
import pytest

from helpers import RASTER_CELL, margin_separated_instance

from pinvset.dataset import Dataset, gen_uniform
from pinvset.geometry import Box, BoxList, CoverageClass, classify_coverage
from pinvset.synthesis import SynthConfig, SynthResult, Termination, synthesize
from pinvset.tree import new_tree
from pinvset.verify import (
    check_fixpoint,
    monte_carlo_invariance,
    raster_coverage,
    _UnionMembership,
)


def synth_linear(lin_oracle, tau=0.02, m=4000, seed=4):
    ds = gen_uniform(lin_oracle, m, seed)
    tree = new_tree(lin_oracle.domain, ds)
    return synthesize(tree, ds, SynthConfig(lipschitz=lin_oracle.lipschitz, tau=tau))


def hand_built_failing_result(lin_oracle):
    """A one-box 'set' near the domain corner whose image escapes it."""
    x = (0.9, 0.9)
    x_plus = lin_oracle(x)
    assert x_plus == pytest.approx((0.55917, -0.29295))
    ds = Dataset([x], [x_plus])
    tree = new_tree(BoxList((Box(x, 0.05),)), ds)
    config = SynthConfig(lipschitz=lin_oracle.lipschitz, tau=0.01)
    return SynthResult(tree=tree, sweeps=1, terminated_by=Termination.FIXPOINT, config=config)


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

    domain = BoxList((Box((0.0, 0.0), 0.5),))
    oracle = SystemOracle("escape", lambda pts: np.full_like(pts, 50.0), 1e-9, domain)
    ds = gen_uniform(oracle, 200, seed=0)
    tree = new_tree(domain, ds)
    res = synthesize(tree, ds, SynthConfig(lipschitz=1e-9, tau=0.1))
    assert res.pi_set.is_empty
    cert = check_fixpoint(res)
    assert cert.passed and cert.checked_leaves == 0


def test_check_fixpoint_detects_tampered_radius(lin_oracle):
    res = synth_linear(lin_oracle)
    leaf = res.tree.active_leaves()[0]
    res.tree.nodes.radius[leaf] *= 0.5  # ball no longer contains its cell
    cert = check_fixpoint(res)
    assert not cert.passed
    assert cert.first_failure["leaf"] == leaf


def test_check_fixpoint_lipschitz_mismatch(lin_oracle):
    res = synth_linear(lin_oracle)
    with pytest.raises(ValueError):
        check_fixpoint(res, SynthConfig(lipschitz=1.0, tau=res.config.tau))
    assert check_fixpoint(res, res.config).passed


# -- raster oracle ----------------------------------------------------------------


def test_raster_nested_disjoint_partial():
    union = BoxList((Box((0.0, 0.0), 0.5),))
    nested = raster_coverage(Box((0.0, 0.0), 0.1), union, cell=0.02)
    assert nested.verdict is CoverageClass.FULLY_COVERED
    assert nested.covered_fraction == 1.0
    away = raster_coverage(Box((5.0, 5.0), 0.1), union, cell=0.02)
    assert away.verdict is CoverageClass.DISJOINT
    assert away.covered_fraction == 0.0


def test_raster_half_overlap_fraction():
    # query [-0.5,0.5]^2 against cover [0,1]^2: a quarter is covered
    union = BoxList((Box((0.5, 0.5), 0.5),))
    report = raster_coverage(Box((0.0, 0.0), 0.5), union, cell=0.01)
    assert report.verdict is CoverageClass.PARTIAL
    assert report.covered_fraction == pytest.approx(0.25, abs=2 * 0.01)


def test_raster_cell_validation():
    with pytest.raises(ValueError):
        raster_coverage(Box((0.0, 0.0), 0.1), BoxList(()), cell=0.2)
    with pytest.raises(ValueError):
        raster_coverage(Box((0.0, 0.0), 0.1), BoxList(()), cell=0.0)


def test_exact_classifier_agrees_with_raster(rng):
    verdicts = {CoverageClass.FULLY_COVERED: 0, CoverageClass.DISJOINT: 0, CoverageClass.PARTIAL: 0}
    for n in (2, 3):
        for _ in range(250):
            query, union = margin_separated_instance(rng, n)
            exact = classify_coverage(query, union)
            report = raster_coverage(query, union, cell=RASTER_CELL)
            assert exact is report.verdict
            verdicts[exact] += 1
    assert all(count > 0 for count in verdicts.values())


# -- union membership ----------------------------------------------------


def test_union_membership_on_dyadic_tiling(lin_oracle, rng):
    res = synth_linear(lin_oracle)
    member = _UnionMembership(res.pi_set)
    assert member._exact is None  # tiling aligns exactly: no uncertain cells
    pts = rng.uniform(-1.1, 1.1, size=(4000, 2))
    want = np.array([res.pi_set.contains_point(tuple(p)) for p in pts])
    got = member.contains(pts)
    assert (got == want).all()


def test_union_membership_unaligned_falls_back(rng):
    boxes = BoxList((Box((0.0, 0.0), 0.5), Box((0.77, 0.13), 0.31)))
    member = _UnionMembership(boxes)
    pts = rng.uniform(-1.5, 1.5, size=(3000, 2))
    want = np.array([boxes.contains_point(tuple(p)) for p in pts])
    assert (member.contains(pts) == want).all()


# -- Monte Carlo falsifier -----------------------------------------------------------


def test_monte_carlo_certified_set_survives(lin_oracle):
    res = synth_linear(lin_oracle)
    assert check_fixpoint(res).passed
    cert = monte_carlo_invariance(res.pi_set, lin_oracle, samples=20000, horizon=50, seed=1)
    assert cert.passed
    assert cert.method == "monte-carlo"


def test_monte_carlo_catches_escaping_set(lin_oracle):
    res = hand_built_failing_result(lin_oracle)
    cert = monte_carlo_invariance(res.pi_set, lin_oracle, samples=500, horizon=5, seed=0)
    assert not cert.passed
    assert cert.first_failure["step"] == 1


def test_monte_carlo_zero_horizon_trivially_passes(lin_oracle):
    res = hand_built_failing_result(lin_oracle)
    cert = monte_carlo_invariance(res.pi_set, lin_oracle, samples=100, horizon=0, seed=0)
    assert cert.passed


def test_monte_carlo_rejects_empty_set(lin_oracle):
    with pytest.raises(ValueError):
        monte_carlo_invariance(BoxList(()), lin_oracle, samples=10, horizon=1)


def test_soundness_chain(lin_oracle, nonlin_oracle):
    # exact certificate implies no Monte Carlo escape on the fixtures
    for oracle, tau in ((lin_oracle, 0.05), (nonlin_oracle, 0.05)):
        ds = gen_uniform(oracle, 5000, seed=8)
        tree = new_tree(oracle.domain, ds)
        res = synthesize(tree, ds, SynthConfig(lipschitz=oracle.lipschitz, tau=tau))
        cert = check_fixpoint(res)
        assert cert.passed
        if not res.pi_set.is_empty:
            mc = monte_carlo_invariance(res.pi_set, oracle, samples=20000, horizon=50, seed=3)
            assert mc.passed
