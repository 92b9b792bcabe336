"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Deterministic-grid reproductions pin the reference volumes; uniform-sampling
criteria pin trends and emptiness counts, never per-seed volumes.
"""

import statistics
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    RASTER_CELL,
    contraction_grid,
    contraction_window,
    exact_coverage,
    gauge_many,
    gauge_unit_max,
    margin_separated_instance,
    raster_coverage,
    unit_max_ball,
)

from pinvset.bounds import (
    BoundForm,
    BoundQuery,
    FormulaSignWarning,
    covering_lower_bound,
    uniform_sample_bound,
)
from pinvset.dataset import gen_dyadic_grid, gen_uniform, linear2d, nonlinear2d
from pinvset.geometry import CoverageClass
from pinvset.synthesis import SynthConfig, synthesize
from pinvset.tree import new_tree
from pinvset.verify import check_fixpoint, monte_carlo_invariance

LINEAR_REF_VOLUME = 1.1844
NONLINEAR_REF_VOLUME = 3.467

MC_SAMPLES = 100_000
MC_HORIZON = 50


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _run(oracle, dataset, tau):
    tree = new_tree(oracle.domain, dataset)
    return synthesize(
        tree, dataset, SynthConfig(lipschitz=oracle.lipschitz, tau=tau)
    )


@pytest.fixture(scope="module")
def lin_grid_run():
    oracle = linear2d()
    return _run(oracle, gen_dyadic_grid(oracle, 0.001), 0.001), oracle


@pytest.fixture(scope="module")
def nonlin_grid_run():
    oracle = nonlinear2d()
    return _run(oracle, gen_dyadic_grid(oracle, 0.01), 0.01), oracle


@pytest.fixture(scope="module")
def nonlin_uniform_runs():
    oracle = nonlinear2d()
    runs = {}
    for m in (2000, 10000):
        runs[m] = [
            _run(oracle, gen_uniform(oracle, m, seed), 0.01) for seed in range(10)
        ]
    return runs, oracle


@pytest.fixture(scope="module")
def lin_uniform_runs():
    oracle = linear2d()
    runs = {}
    for m in (100, 250, 500, 1000, 5000, 10000):
        runs[m] = [
            _run(oracle, gen_uniform(oracle, m, seed), 0.01) for seed in range(10)
        ]
    return runs, oracle


def _all_runs(lin_grid_run, nonlin_grid_run, nonlin_uniform_runs, lin_uniform_runs):
    out = [(lin_grid_run[0], lin_grid_run[1]), (nonlin_grid_run[0], nonlin_grid_run[1])]
    runs, oracle = nonlin_uniform_runs
    out.extend((r, oracle) for rs in runs.values() for r in rs)
    runs, oracle = lin_uniform_runs
    out.extend((r, oracle) for rs in runs.values() for r in rs)
    return out


def test_criterion_1_linear_deterministic_reproduction(lin_grid_run):
    result, _ = lin_grid_run
    rel = abs(result.volume - LINEAR_REF_VOLUME) / LINEAR_REF_VOLUME
    _report(
        "1 (linear grid, tau=0.001)",
        check_fixpoint(result).passed and rel <= 0.01,
        f"volume={result.volume:.6f} ref={LINEAR_REF_VOLUME} rel_err={rel:.2e}",
    )


def test_criterion_2_nonlinear_deterministic_reproduction(nonlin_grid_run):
    result, _ = nonlin_grid_run
    rel = abs(result.volume - NONLINEAR_REF_VOLUME) / NONLINEAR_REF_VOLUME
    _report(
        "2 (nonlinear grid, tau=0.01)",
        check_fixpoint(result).passed and rel <= 0.03,
        f"volume={result.volume:.6f} ref={NONLINEAR_REF_VOLUME} rel_err={rel:.2e}",
    )


def test_criterion_3_nonlinear_uniform_statistics(nonlin_uniform_runs):
    runs, _ = nonlin_uniform_runs
    empty_low = sum(1 for r in runs[2000] if not r.tree.n_included())
    vols_high = [r.volume for r in runs[10000]]
    nonempty_high = sum(1 for v in vols_high if v > 0)
    ok = (
        empty_low >= 8
        and nonempty_high == 10
        and max(vols_high) >= 2.8
        and all(v <= 3.65 for v in vols_high)
    )
    _report(
        "3 (nonlinear uniform statistics)",
        ok,
        f"M=2000 empties={empty_low}/10, M=10000 nonempty={nonempty_high}/10 "
        f"max={max(vols_high):.4f}",
    )


def test_criterion_4_linear_uniform_trend(lin_uniform_runs):
    runs, _ = lin_uniform_runs
    medians = {m: statistics.median(r.volume for r in rs) for m, rs in runs.items()}
    ms = sorted(medians)
    monotone = all(
        medians[b] >= medians[a] - 0.02 for a, b in zip(ms, ms[1:])
    )
    certified = all(check_fixpoint(r).passed for rs in runs.values() for r in rs)
    _report(
        "4 (linear uniform trend)",
        monotone and certified,
        "medians=" + " ".join(f"{m}:{medians[m]:.4f}" for m in ms),
    )


def test_criterion_5_certificate_soundness(
    lin_grid_run, nonlin_grid_run, nonlin_uniform_runs, lin_uniform_runs
):
    checked = 0
    mc_checked = 0
    for result, oracle in _all_runs(
        lin_grid_run, nonlin_grid_run, nonlin_uniform_runs, lin_uniform_runs
    ):
        assert check_fixpoint(result).passed
        checked += 1
        if result.tree.n_included():
            mc = monte_carlo_invariance(
                result.tree, oracle, MC_SAMPLES, MC_HORIZON, seed=checked
            )
            assert mc.passed, f"Monte Carlo escape: {mc.first_failure}"
            mc_checked += 1
    _report(
        "5 (certificate soundness)",
        True,
        f"exact-certified {checked} runs, Monte Carlo {mc_checked} runs at "
        f"{MC_SAMPLES} samples x {MC_HORIZON} steps",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(61803)
    agreements = 0
    total = 0
    for n in (2, 3):
        for _ in range(1000):
            query, union = margin_separated_instance(rng, n)
            exact = exact_coverage(query, union)
            sampled = raster_coverage(query, union, cell=RASTER_CELL).verdict
            total += 1
            agreements += exact is sampled
    _report(
        "6 (oracle equivalence)",
        agreements == total,
        f"{agreements}/{total} agreements on margin-separated instances",
    )


def test_criterion_7_bounds():
    from mpmath import mp, mpf

    cells = covering_lower_bound(1.5625, 2, 0.01)
    query = BoundQuery(delta=0.05, vol_domain=1.5625, dim=2, resolution=0.01)
    canonical = uniform_sample_bound(query, BoundForm.CANONICAL)

    mp.dps = 60
    num = mp.log(1 / mpf("0.05")) + mp.log(mpf("1.5625")) + 2 * mp.log(1 / mpf("0.01"))
    den = -mp.log(1 - mpf("0.01") ** 2 / mpf("1.5625"))
    reference = num / den
    with pytest.warns(FormulaSignWarning):
        raw = uniform_sample_bound(query, BoundForm.SYNTH_RAW)
    rel = abs(-raw - float(reference)) / float(reference)
    ok = (
        cells == 15625.0
        and canonical == float(mp.ceil(reference))
        and rel <= 1e-9
        and raw < 0
    )
    _report(
        "7 (sample bounds)",
        ok,
        f"covering={cells:.0f} canonical={canonical:.0f} raw_rel_err={rel:.2e}",
    )


def test_criterion_8_contractivity_suite():
    rng = np.random.default_rng(271828)
    s = unit_max_ball(2)
    pts = rng.uniform(-2, 2, size=(5000, 2))
    alphas = rng.uniform(0, 3, size=5000)
    g = gauge_many(s, pts)
    homogeneous = np.allclose(
        gauge_many(s, pts * alphas[:, None]), alphas * g, rtol=1e-12, atol=1e-12
    )
    q = rng.uniform(-2, 2, size=(5000, 2))
    subadditive = bool(
        (gauge_many(s, pts + q) <= g + gauge_many(s, q) + 1e-12).all()
    )
    membership = bool(((g <= 1.0) == (np.abs(pts).max(axis=1) <= 1.0)).all())

    # halving map on the unit max-norm ball: contraction and Lipschitz 0.5
    lam = lips = 0.5
    ubar = gauge_unit_max(s)
    bound_ok = True
    for _ in range(1000):
        r = float(rng.uniform(0.0, 0.5))
        x = rng.uniform(-(1 - r), 1 - r, size=2)
        z = 0.5 * x + lips * r * rng.uniform(-1, 1, size=(1000, 2))
        if not (gauge_many(s, z) <= lam + lips * r * ubar + 1e-12).all():
            bound_ok = False
            break

    # The 7x7 cells of side 2·tau tiling rho·S, in exact rationals: float
    # cubes around -0.7 + (2i+1)·0.1 miss their neighbours' faces by an ulp.
    rho, tau = Fraction(7, 10), Fraction(1, 10)
    window = contraction_window(s, lam, lips, float(tau))
    cells, successors = contraction_grid(rho, tau, Fraction(lam), Fraction(lips))
    grid_ok = window is not None and window[0] <= float(rho) <= window[1]
    grid_ok = grid_ok and len(cells) == 49 and all(
        exact_coverage(succ, cells) is CoverageClass.FULLY_COVERED for succ in successors
    )
    ok = homogeneous and subadditive and membership and bound_ok and grid_ok
    _report(
        "8 (contractivity suite)",
        ok,
        f"homogeneous={homogeneous} subadditive={subadditive} "
        f"membership={membership} gauge_bound={bound_ok} window_grid={grid_ok}",
    )


def test_criterion_9_termination(
    lin_grid_run, nonlin_grid_run, nonlin_uniform_runs, lin_uniform_runs
):
    runs = _all_runs(lin_grid_run, nonlin_grid_run, nonlin_uniform_runs, lin_uniform_runs)
    worst = max(r.sweeps for r, _ in runs)
    ok = all(check_fixpoint(r).passed for r, _ in runs)
    _report(
        "9 (termination)",
        ok,
        f"{len(runs)} runs reached a fixpoint, max sweeps={worst}",
    )
