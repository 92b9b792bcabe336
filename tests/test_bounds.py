import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    CSetInvalidError,
    PolytopeCSet,
    contraction_grid,
    contraction_window,
    exact_coverage,
    gauge,
    gauge_many,
    gauge_unit_max,
    max_certified_radius,
    successor_gauge_bound,
    unit_max_ball,
)

from pinvset.bounds import (
    BoundForm,
    BoundQuery,
    BoundRangeError,
    FormulaSignWarning,
    covering_lower_bound,
    uniform_sample_bound,
)
from pinvset.geometry import CoverageClass

# Frozen references computed with mpmath at 60 digits for
# delta=0.05, vol=1.5625, n=2, resolution=0.01.
CANONICAL_RAW_REF = 197686.7948176225286808541
CANONICAL_CEIL_REF = 197687
NET_RAW_REF = 90127.13136801443108063149


def unit_one_ball():
    # {|x1| + |x2| <= 1} via all four sign-pattern rows
    return PolytopeCSet([[1, 1], [1, -1], [-1, 1], [-1, -1]])


# -- gauge machinery -----------------------------------------------------------


def test_gauge_examples():
    inf_ball = unit_max_ball(2)
    assert gauge(inf_ball, (0.5, -0.25)) == pytest.approx(0.5)
    assert gauge(inf_ball, (0.0, 0.0)) == 0.0
    assert gauge(unit_one_ball(), (0.3, 0.3)) == pytest.approx(0.6)


def test_gauge_unit_max_examples():
    assert gauge_unit_max(unit_max_ball(2)) == 1.0
    assert gauge_unit_max(unit_one_ball()) == 2.0
    scaled = PolytopeCSet(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) / 3.0)
    assert gauge_unit_max(scaled) == pytest.approx(2.0 / 3.0)


def test_gauge_properties_random(rng):
    cset = unit_one_ball()
    pts = rng.uniform(-2, 2, size=(2000, 2))
    alphas = rng.uniform(0, 3, size=2000)
    g = gauge_many(cset, pts)
    # positive homogeneity (exact up to float scaling)
    g_scaled = gauge_many(cset, pts * alphas[:, None])
    assert np.allclose(g_scaled, alphas * g, rtol=1e-12, atol=1e-12)
    # subadditivity
    q = rng.uniform(-2, 2, size=(2000, 2))
    assert (gauge_many(cset, pts + q) <= g + gauge_many(cset, q) + 1e-12).all()
    # membership: gauge(x) <= 1 iff |x1|+|x2| <= 1
    inside = np.abs(pts).sum(axis=1) <= 1.0
    assert ((g <= 1.0) == inside).all()


def test_gauge_unit_max_is_attained(rng):
    for cset in (unit_max_ball(2), unit_one_ball()):
        u = rng.uniform(-1, 1, size=(10 ** 4, 2))
        ubar = gauge_unit_max(cset)
        assert (gauge_many(cset, u) <= ubar + 1e-12).all()
        best_row = cset.rows[np.abs(cset.rows).sum(axis=1).argmax()]
        assert gauge(cset, tuple(np.sign(best_row))) == pytest.approx(ubar)


def test_cset_rejects_unbounded_rows():
    with pytest.raises(CSetInvalidError):
        PolytopeCSet([[1, 0], [0, 1]])  # quadrant: recession cone nontrivial
    with pytest.raises(CSetInvalidError):
        PolytopeCSet([[1, 0], [-1, 0]])  # slab, unbounded along x2


def test_successor_gauge_bound_values():
    s = unit_max_ball(2)
    assert successor_gauge_bound(s, 0.5, 0.5, 0.1) == pytest.approx(0.55)
    assert successor_gauge_bound(s, 0.5, 0.5, 0.0) == 0.5
    # algebraic inverse: largest radius certified against level rho
    rho = 0.9
    r = max_certified_radius(s, 0.5, 0.5, rho)
    assert successor_gauge_bound(s, 0.5, 0.5, r) == pytest.approx(rho)


def test_contraction_window_values():
    s = unit_max_ball(2)
    assert contraction_window(s, 0.5, 0.5, 0.1) == pytest.approx((0.55, 0.9))
    assert contraction_window(s, 0.5, 0.5, 0.0) == pytest.approx((0.5, 1.0))
    assert contraction_window(s, 0.5, 0.5, 0.4) is None


def test_successor_gauge_bound_empirical(rng):
    # halving map on the unit max-norm ball: contraction 0.5, Lipschitz 0.5
    s = unit_max_ball(2)
    lam, lips, ubar = 0.5, 0.5, gauge_unit_max(s)
    for _ in range(1000):
        r = float(rng.uniform(0.0, 0.5))
        x = rng.uniform(-(1 - r), 1 - r, size=2)  # ball of radius r inside S
        x_plus = 0.5 * x
        z = x_plus + lips * r * rng.uniform(-1, 1, size=(1000, 2))
        bound = lam + lips * r * ubar
        assert (gauge_many(s, z) <= bound + 1e-12).all()


def test_contraction_window_grid_passes_coverage_certificate():
    # Cover rho*S with radius-tau cells whose window admits rho, then check
    # the one-step certificate directly: every successor box stays covered.
    # The cells are exact rationals; as float cubes around
    # -0.7 + (2i+1)*0.1, adjacent faces would miss by an ulp.
    s = unit_max_ball(2)
    lam = lips = 0.5
    rho, tau = Fraction(7, 10), Fraction(1, 10)
    window = contraction_window(s, lam, lips, float(tau))
    assert window is not None
    assert window[0] <= float(rho) <= window[1]
    cells, successors = contraction_grid(rho, tau, Fraction(lam), Fraction(lips))
    assert len(cells) == 49
    for succ in successors:
        assert exact_coverage(succ, cells) is CoverageClass.FULLY_COVERED


# -- covering bounds -----------------------------------------------------------


def test_covering_lower_bound_values():
    assert covering_lower_bound(1.5625, 2, 0.01) == 15625.0
    assert covering_lower_bound(2 ** 2, 2, 1.0, count="balls") == 1.0
    assert covering_lower_bound(2 ** 3, 3, 1.0, count="balls") == 1.0


def test_covering_lower_bound_homogeneity(rng):
    for _ in range(50):
        vol = float(rng.uniform(0.1, 10))
        n = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.01, 1.0))
        full = covering_lower_bound(vol, n, eps, count="balls")
        halved = covering_lower_bound(vol, n, eps / 2, count="balls")
        assert halved == pytest.approx(full * 2 ** n, rel=1e-12)


def _float_covering(vol, n, eps, count):
    """The covering bound as one float expression, inf where it overflows."""
    try:
        value = (1.0 / eps) ** n * vol
        return value / (2.0 ** n) if count == "balls" else value
    except OverflowError:
        return math.inf


@settings(max_examples=300, deadline=None)
@given(
    vol=st.floats(0.1, 10.0),
    n=st.integers(1, 4),
    eps=st.floats(0.01, 1.0),
    count=st.sampled_from(["cells", "balls"]),
)
def test_covering_lower_bound_is_the_float_expression_where_finite(vol, n, eps, count):
    # The exact evaluation changes no bound the float expression gives.
    value = _float_covering(vol, n, eps, count)
    assert 0.0 < value < math.inf
    assert covering_lower_bound(vol, n, eps, count).hex() == value.hex()


@settings(max_examples=300, deadline=None)
@given(
    vol=st.floats(1e-300, 1e300),
    n=st.integers(1, 1200),
    eps=st.floats(0.25, 1.0),
    count=st.sampled_from(["cells", "balls"]),
)
def test_covering_lower_bound_is_rounded_once_past_an_intermediate_overflow(vol, n, eps, count):
    # Where the float expression is a positive float, the bound is that
    # float; where it is not, the bound is the exact value rounded once, or
    # refused when that is not a positive float either.
    value = _float_covering(vol, n, eps, count)
    exact = Fraction(vol) / (Fraction(eps) * (2 if count == "balls" else 1)) ** n
    try:
        rounded = float(exact)
    except OverflowError:
        rounded = math.inf
    want = value if 0.0 < value < math.inf else rounded
    if 0.0 < want < math.inf:
        assert covering_lower_bound(vol, n, eps, count).hex() == want.hex()
    else:
        with pytest.raises(ValueError, match="overflows or underflows a float"):
            covering_lower_bound(vol, n, eps, count)


def test_covering_lower_bound_past_an_intermediate_overflow():
    # (1/0.5)^1100 overflows a float, and the ball count is exactly the
    # volume; the cell count, 2^1100, is refused.
    assert covering_lower_bound(1.0, 1100, 0.5, "balls") == 1.0
    with pytest.raises(ValueError, match="overflows or underflows a float"):
        covering_lower_bound(1.0, 1100, 0.5, "cells")
    # A power of the resolution too large to evaluate exactly is refused.
    with pytest.raises(ValueError, match="needs more than 1048576 bits to evaluate exactly"):
        covering_lower_bound(1.0, 10 ** 9, 0.5000001, "balls")


def test_covering_lower_bound_validation():
    with pytest.raises(ValueError):
        covering_lower_bound(0.0, 2, 0.1)
    with pytest.raises(ValueError):
        covering_lower_bound(1.0, 2, 0.0)
    with pytest.raises(ValueError):
        covering_lower_bound(1.0, 2, 0.1, count="nope")


# -- uniform sample bounds -------------------------------------------------------


def linear_query():
    return BoundQuery(delta=0.05, vol_domain=1.5625, dim=2, resolution=0.01)


def test_canonical_bound_matches_reference():
    value = uniform_sample_bound(linear_query(), BoundForm.CANONICAL)
    assert value == CANONICAL_CEIL_REF


def test_raw_forms_match_reference_to_1e9():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FormulaSignWarning)
        synth_raw = uniform_sample_bound(linear_query(), BoundForm.SYNTH_RAW)
        net_raw = uniform_sample_bound(linear_query(), BoundForm.NET_RAW)
    # canonical numerator over -log(1-p) equals minus the raw synthesis form
    assert -synth_raw == pytest.approx(CANONICAL_RAW_REF, rel=1e-9)
    assert net_raw == pytest.approx(NET_RAW_REF, rel=1e-9)


def test_synth_raw_fires_sign_warning():
    with pytest.warns(FormulaSignWarning):
        value = uniform_sample_bound(linear_query(), BoundForm.SYNTH_RAW)
    assert value < 0


def test_canonical_positive_whenever_valid(rng):
    for _ in range(200):
        vol = float(rng.uniform(0.01, 50))
        n = int(rng.integers(1, 5))
        res = float(rng.uniform(0.001, 0.9)) * vol ** (1.0 / n)
        if res ** n >= vol:
            continue
        q = BoundQuery(float(rng.uniform(0.001, 1.0)), vol, n, res)
        value = uniform_sample_bound(q, BoundForm.CANONICAL)
        assert math.isfinite(value) and value > 0


def test_canonical_delta_one_limit():
    q = BoundQuery(delta=1.0, vol_domain=1.5625, dim=2, resolution=0.01)
    num = math.log(1.5625) + 2 * math.log(1 / 0.01)
    den = -math.log1p(-(0.01 ** 2) / 1.5625)
    assert uniform_sample_bound(q, BoundForm.CANONICAL) == math.ceil(num / den)


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0.0, 1.0, 2, 0.1).validate()
    with pytest.raises(ValueError):
        BoundQuery(0.5, -1.0, 2, 0.1).validate()
    with pytest.raises(ValueError):
        BoundQuery(0.5, 1.0, 2, 0.0).validate()
    with pytest.raises(ValueError):
        # resolution cell as large as the domain: hit probability reaches 1
        uniform_sample_bound(BoundQuery(0.5, 1.0, 2, 1.0))


@pytest.mark.parametrize("vol,dim,eps,count,reason", [
    (math.inf, 2, 0.1, "cells", "domain volume must be finite and positive, got inf"),
    (math.nan, 2, 0.1, "cells", "domain volume must be finite and positive, got nan"),
    (1.0, 2, math.nan, "cells", "resolution must be finite and positive, got nan"),
    (1.0, 2, math.inf, "cells", "resolution must be finite and positive, got inf"),
    (1.0, 2, 1e-200, "cells", "overflows or underflows"),  # 1e400
    (1e-300, 3, 1e10, "cells", "overflows or underflows"),  # 1e-330
])
def test_covering_lower_bound_refuses_what_is_not_a_finite_float(vol, dim, eps, count, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        covering_lower_bound(vol, dim, eps, count)


@pytest.mark.parametrize("query,reason", [
    (BoundQuery(0.05, math.inf, 2, 0.01), "domain volume must be finite and positive, got inf"),
    (BoundQuery(0.05, math.nan, 2, 0.01), "domain volume must be finite and positive, got nan"),
    (BoundQuery(0.05, 1.0, 2, math.nan), "resolution must be finite and positive, got nan"),
    (BoundQuery(math.nan, 1.0, 2, 0.01), "confidence delta must lie in (0, 1], got nan"),
    # res^n underflows to 0: the hit probability is 0, and log1p(-0) divided by zero.
    (BoundQuery(0.05, 1.0, 2, 1e-200), "is 0.0 as a float; it must lie in (0, 1)"),
    # res^n overflows: the cell is larger than any domain.
    (BoundQuery(0.05, 1.0, 2, 1e200), "is inf as a float; it must lie in (0, 1)"),
])
def test_bound_query_refuses_what_is_not_a_finite_float(query, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        query.validate()
    with pytest.raises(ValueError, match=re.escape(reason)):
        uniform_sample_bound(query)


def test_hit_probability_past_a_power_that_is_not_normal():
    # 1e-10^33 underflows to 0 and 1e-10^31 is subnormal, though neither
    # probability is near the float range's ends: each is the exact value,
    # rounded once.  A probability that is 0 even exactly is refused.
    query = BoundQuery(0.05, 1e-300, 33, 1e-10)
    assert query.validate() == 1.0000000000000011e-30
    assert uniform_sample_bound(query) > 0.0
    assert BoundQuery(0.05, 1e-290, 31, 1e-10).validate() == 1.000000000000001e-20
    with pytest.raises(BoundRangeError, match=re.escape("0.5^1100 / 1.0 is 0.0 as a float")):
        BoundQuery(0.05, 1.0, 1100, 0.5).validate()
    with pytest.raises(BoundRangeError, match="needs more than 1048576 bits to evaluate exactly"):
        BoundQuery(0.05, 1.0, 10 ** 9, 0.5000001).validate()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    decades=st.one_of(st.floats(0.0, 340.0), st.floats(300.0, 330.0)),
    vol_decades=st.floats(-300.0, 300.0),
)
def test_hit_probability_is_rounded_once_where_the_power_is_not_normal(n, decades, vol_decades):
    # res^n near 10^-decades, so that it is often subnormal or 0.  Where
    # res^n is a normal float, p is res^n / vol as before, bit for bit;
    # elsewhere it is the exact value rounded once.  Either way a p outside
    # (0, 1) is refused.
    res, vol = 10.0 ** (-decades / n), 10.0 ** vol_decades
    assume(res > 0.0)  # a resolution of 0 is an input error
    try:
        power = res ** n
    except OverflowError:
        power = math.inf
    if sys.float_info.min <= power < math.inf:
        want = power / vol
    else:
        try:
            want = float(Fraction(res) ** n / Fraction(vol))
        except OverflowError:
            want = math.inf
    query = BoundQuery(0.05, vol, n, res)
    if 0.0 < want < 1.0:
        assert query.validate().hex() == want.hex()
    else:
        with pytest.raises(ValueError, match=re.escape("as a float; it must lie in (0, 1)")):
            query.validate()


def test_uniform_bound_refuses_a_bound_that_overflows():
    # p = 5e-324, the least float: -log1p(-p) is p, and the bound 747 / p is no float.
    query = BoundQuery(0.05, 1.0, 1, 5e-324)
    query.validate()
    for form in BoundForm:
        with pytest.raises(ValueError, match=f"the {form.value} bound overflows a float"):
            uniform_sample_bound(query, form)


@pytest.mark.parametrize("res", [2.0 ** -2, 2.0 ** -3])
def test_canonical_bound_leaves_a_res_cell_empty_at_most_delta_of_the_time(res):
    # At M = canonical(res, delta), M uniform draws leave some res-cell of
    # the domain empty with probability at most delta = 0.05.  Over 200
    # fixed seeds more than 23 such draws happen with probability
    # P[Bin(200, 0.05) > 23] < 1e-4, and at M // 2 they are the rule.
    seeds, most = 200, 23
    tail = sum(math.comb(seeds, k) * 0.05 ** k * 0.95 ** (seeds - k)
               for k in range(most + 1, seeds + 1))
    assert tail < 1e-4
    side = round(2.0 / res)  # [-1, 1]^2 in res-cells: 64 and 256 of them
    m = int(uniform_sample_bound(BoundQuery(0.05, 4.0, 2, res)))
    assert m == {2.0 ** -2: 455, 2.0 ** -3: 2183}[res]

    def seeds_with_an_empty_cell(count: int) -> int:
        empty = 0
        for seed in range(seeds):
            pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, 2))
            cell = np.minimum(((pts + 1.0) / res).astype(int), side - 1)
            empty += len(np.unique(cell[:, 0] * side + cell[:, 1])) < side * side
        return empty

    assert seeds_with_an_empty_cell(m) <= most
    assert seeds_with_an_empty_cell(m // 2) > most
