import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chebyshev, cube, exact_successor, kept_cells, roots_tree

import pinvset.geometry as geometry_module
from pinvset.dataset import Dataset
from pinvset.geometry import (
    CoverageClass,
    DimensionMismatchError,
    balls_contain_cells,
    classify_coverage,
    rect_to_cubes,
    successor_corners,
    uncovered_fragments,
)
from pinvset.tree import Label, new_tree


def tree_of(domain):
    """A tree over the rectangle, one included root per cube."""
    return new_tree(domain, Dataset([(0.0, 0.0)], [(0.0, 0.0)]))


@pytest.mark.parametrize("center,radius", [
    pytest.param((0.0, 0.0), -0.5, id="-0.5"),
    pytest.param((0.0, 0.0), float("nan"), id="nan"),
    # A NaN center made every comparison fail, so the box read as covered.
    pytest.param((float("nan"), 0.0), 0.1, id="center-nan"),
    pytest.param((0.0, float("inf")), 0.1, id="center-inf"),
    pytest.param((-float("inf"), 0.0), 0.1, id="center--inf"),
])
def test_box_rejects_negative_or_nan_radius(center, radius):
    # The cube center ± radius is no domain, so it becomes no root.
    with pytest.raises(ValueError):
        rect_to_cubes(*cube(center, radius))
    with pytest.raises(ValueError):
        tree_of(cube(center, radius))


def test_box_volume():
    # The volume of a one-cube domain, as the tree sums it.
    assert tree_of(cube((0.375, -0.375), 0.625)).active_volume() == 1.5625
    assert tree_of(cube((0.0, 0.0), 0.01)).active_volume() == pytest.approx(0.0004)


def test_classify_coverage_examples():
    tree = tree_of(cube((0.0, 0.0), 0.5))
    assert classify_coverage(cube((0.0, 0.0), 0.1), tree) is CoverageClass.FULLY_COVERED
    assert classify_coverage(cube((10.0, 10.0), 0.1), tree) is CoverageClass.DISJOINT
    assert classify_coverage(cube((0.5, 0.0), 0.2), tree) is CoverageClass.PARTIAL


def test_classify_coverage_exact_tiling():
    # The query's four quarters: the children of its one root cube.
    query = cube((0.0, 0.0), 0.5)
    tree = tree_of(query)
    tiles = tree.divide(tree.roots, Dataset([(0.0, 0.0)], [(0.0, 0.0)]))
    assert classify_coverage(query, tree) is CoverageClass.FULLY_COVERED
    # one tile missing: as a retired leaf; three tiles alone are not the
    # cubes of the rectangle they span, so no tree has them as its roots
    tree.set_label(tiles[3], Label.EXCLUDED)
    assert classify_coverage(query, tree) is CoverageClass.PARTIAL
    lo = tuple(map(min, zip(*[tree.nodes.lo[i] for i in tiles[:3]])))
    hi = tuple(map(max, zip(*[tree.nodes.hi[i] for i in tiles[:3]])))
    with pytest.raises(ValueError, match="the tree has 3 roots, but rect_to_cubes cuts 1 "):
        roots_tree(lo, hi, 3)


def test_classify_touching_cover_is_not_disjoint():
    # face contact has zero volume but still defeats a DISJOINT verdict
    tree = tree_of(cube((1.0, 0.0), 0.5))
    assert classify_coverage(cube((0.0, 0.0), 0.5), tree) is CoverageClass.PARTIAL


def test_uncovered_fragments_reports_leftover():
    tree = tree_of(cube((0.0, 0.0), 0.5))
    (fragment,) = uncovered_fragments(cube((0.5, 0.0), 0.2), tree)
    assert fragment == ((0.5, -0.2), (0.7, 0.2))
    # it meets no kept cell's interior
    for lo, hi in kept_cells(tree):
        assert any(min(h, fh) <= max(l, fl) for l, h, fl, fh in zip(lo, hi, *fragment))
    assert uncovered_fragments(cube((0.0, 0.0), 0.2), tree) == []


def test_successor_box_values():
    lo, hi = exact_successor((0.3, -0.2), 0.8225, 0.45)
    reach = Fraction(0.8225) * Fraction(0.45)
    assert lo == (Fraction(0.3) - reach, Fraction(-0.2) - reach)
    assert hi == (Fraction(0.3) + reach, Fraction(-0.2) + reach)
    assert [float(v) for v in lo] == pytest.approx([0.3 - 0.370125, -0.2 - 0.370125])
    assert [float(v) for v in hi] == pytest.approx([0.3 + 0.370125, -0.2 + 0.370125])
    # The float box holds the exact one, a few ulps of 1 wider.
    ((flo, fhi),) = successor_corners(np.array([(0.3, -0.2)]), 0.8225, np.array([0.45]))
    for a, want in zip(flo, lo):
        assert 0 < want - a < 1e-15
    for a, want in zip(fhi, hi):
        assert 0 < a - want < 1e-15
    point = exact_successor((1.0, 1.0), 1.0, 0.0)
    assert point == ((1, 1), (1, 1))
    ((flo, fhi),) = successor_corners(np.array([(1.0, 1.0)]), 1.0, np.array([0.0]))
    assert all(a < 1.0 < b for a, b in zip(flo, fhi))


# Finite floats, drawn often at the edges: ±0.0, subnormals and the largest.
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e300, 2.0 ** 63]
)
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = _EDGE_FLOATS.filter(lambda v: v >= 0.0) | st.floats(0.0, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    lipschitz=_NON_NEGATIVE,
)
def test_successor_corners_hold_the_exact_corners(n, data, lipschitz):
    # Array passes over blocks of rows must give each row a float box that
    # holds its exact box.  Where the rounding bound overflows to inf, the
    # box is the whole space, which no tree covers.
    rows = data.draw(st.lists(
        st.tuples(st.tuples(*[_FLOATS] * n), _NON_NEGATIVE), min_size=1, max_size=8
    ))
    x_plus = [x for x, _ in rows]
    radius = [r for _, r in rows]
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")  # no overflow warning leaks out
        mp.setattr(geometry_module, "_CORNER_ROWS", data.draw(st.integers(1, 9)))
        got = list(successor_corners(np.array(x_plus), lipschitz, np.array(radius)))
    assert len(got) == len(rows)
    origin = (0.0,) * n
    tree = new_tree(cube(origin, 0.5), Dataset([origin], [origin]))
    for (x, r), (flo, fhi) in zip(rows, got):
        slack = (max(map(abs, x)) + 2.0 * (lipschitz * r)) * 2.0 ** -51 + 2.0 ** -1073
        if not math.isfinite(slack):
            assert (flo, fhi) == ([-math.inf] * n, [math.inf] * n)
            assert tree.classify((flo, fhi)) is CoverageClass.PARTIAL
            continue
        lo, hi = exact_successor(x, lipschitz, r)
        assert all(a <= v for a, v in zip(flo, lo))
        assert all(v <= b for v, b in zip(hi, fhi))


def test_successor_box_radius_scales_linearly(rng):
    x_plus = (0.3, -0.1)
    for _ in range(50):
        r = float(rng.uniform(0, 2))
        alpha = float(rng.uniform(0, 3))
        lips = float(rng.uniform(0.1, 6))
        (slo, _), (shi, _) = exact_successor(x_plus, lips, alpha * r)
        (blo, _), (bhi, _) = exact_successor(x_plus, lips, r)
        assert shi - slo == 2 * Fraction(lips) * Fraction(alpha * r)
        assert float(shi - slo) == pytest.approx(alpha * float(bhi - blo), rel=1e-12, abs=1e-15)
        # The float box is wider, by its slack on each side: a few ulps.
        ((flo, fhi),) = successor_corners(np.array([x_plus]), lips, np.array([alpha * r]))
        excess = Fraction(fhi[0]) - Fraction(flo[0]) - (shi - slo)
        assert 0 < excess < 2.0 ** -49 * (1 + shi - slo)


def test_chebyshev():
    assert chebyshev((0.0, 0.0), (0.2, -0.1)) == pytest.approx(0.2)
    with pytest.raises(DimensionMismatchError):
        chebyshev((0.0,), (0.0, 0.0))


def test_rect_to_cubes():
    centers, radius = rect_to_cubes((-0.25, -1.0), (1.0, 0.25))
    assert centers.tolist() == [[0.375, -0.375]]
    assert radius == 0.625

    centers, radius = rect_to_cubes((0.0, 0.0), (2.0, 1.0))
    assert centers.tolist() == [[0.5, 0.5], [1.5, 0.5]]
    assert radius == 0.5
    # last axis fastest
    centers, _ = rect_to_cubes((0.0, 0.0, 0.0), (2.0, 1.0, 2.0))
    assert centers.tolist() == [
        [0.5, 0.5, 0.5], [0.5, 0.5, 1.5], [1.5, 0.5, 0.5], [1.5, 0.5, 1.5]
    ]

    with pytest.raises(ValueError, match="on axis 0, faces 2.0 and 1.5 differ"):
        rect_to_cubes((0.0, 0.0), (1.5, 1.0))
    # The middle cube's center 3 * 0.05 rounds to 0.15000000000000002, so its
    # low face misses its neighbour's high face 0.1, and the sliver between
    # them would be in no root.
    with pytest.raises(ValueError, match=r"on axis 0, faces 0\.1 and 0\.10000000000000002 differ"):
        rect_to_cubes((0.0, 0.0), (0.3, 0.1))
    with pytest.raises(ValueError):
        rect_to_cubes((0.0, 0.0), (0.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_ball_check_matches_fractions_property(data):
    # Radii within a few ulps of the exact r_target + dist, and samples
    # whose distance to the center is not a float sum.
    n = data.draw(st.integers(1, 3))
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=True)
    center = data.draw(st.tuples(*[coord] * n))
    sample = data.draw(st.tuples(*[coord] * n))
    target = data.draw(st.sampled_from((2.0 ** -40, 1 / 3, 0.5, 1.0, 1.7)))
    radius = target + max(abs(c - x) for c, x in zip(center, sample))
    for _ in range(data.draw(st.integers(0, 3))):
        radius = math.nextafter(radius, data.draw(st.sampled_from((-math.inf, math.inf))))
    lo = tuple(c - target for c in center)
    hi = tuple(c + target for c in center)
    want = all(
        Fraction(radius) >= Fraction(x) - Fraction(l) and Fraction(radius) >= Fraction(h) - Fraction(x)
        for l, h, x in zip(lo, hi, sample)
    )
    got = balls_contain_cells([radius], [lo], [hi], [sample])
    assert got.tolist() == [want]
