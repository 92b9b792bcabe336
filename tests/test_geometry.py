import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvset.geometry import (
    Box,
    BoxList,
    CoverageClass,
    DimensionMismatchError,
    balls_contain_cells,
    box_intersect,
    box_subtract,
    classify_coverage,
    chebyshev,
    rect_to_cubes,
    rect_volume,
    successor_box,
    uncovered_fragments,
)


class Pair:
    def __init__(self, x, x_plus):
        self.x = x
        self.x_plus = x_plus


def raster_uncovered_area(query, cover, cell=0.01):
    """Independent oracle: count query-grid cells whose centers miss the cover."""
    (qlo, qhi) = query
    (clo, chi) = cover
    nx = round((qhi[0] - qlo[0]) / cell)
    ny = round((qhi[1] - qlo[1]) / cell)
    misses = 0
    for i in range(nx):
        x = qlo[0] + (i + 0.5) * cell
        for j in range(ny):
            y = qlo[1] + (j + 0.5) * cell
            if not (clo[0] <= x <= chi[0] and clo[1] <= y <= chi[1]):
                misses += 1
    return misses * cell * cell


def test_contains_point_boundary_and_outside():
    b = Box((0.0, 0.0), 0.5)
    assert b.contains_point((0.5, -0.5))
    assert not b.contains_point((0.6, 0.0))
    assert Box((1.0, 1.0), 0.0).contains_point((1.0, 1.0))


def test_contains_point_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Box((0.0, 0.0), 1.0).contains_point((0.0, 0.0, 0.0))


@pytest.mark.parametrize("center,radius", [
    pytest.param((0.0, 0.0), -0.5, id="-0.5"),
    pytest.param((0.0, 0.0), float("nan"), id="nan"),
    # A NaN center made every comparison fail, so the box read as covered.
    pytest.param((float("nan"), 0.0), 0.1, id="center-nan"),
    pytest.param((0.0, float("inf")), 0.1, id="center-inf"),
    pytest.param((-float("inf"), 0.0), 0.1, id="center--inf"),
])
def test_box_rejects_negative_or_nan_radius(center, radius):
    with pytest.raises(ValueError):
        Box(center, radius)


def test_box_volume():
    assert Box((0.375, -0.375), 0.625).volume() == 1.5625
    assert Box((1.0, 2.0, 3.0), 0.0).volume() == 0.0
    assert Box((0.0, 0.0), 0.01).volume() == pytest.approx(0.0004)


def test_box_intersect_cases():
    a = Box((0.0, 0.0), 0.5)
    assert box_intersect(a, Box((0.5, 0.5), 0.5)) == ((0.0, 0.0), (0.5, 0.5))
    assert box_intersect(a, Box((2.0, 2.0), 0.5)) is None
    assert box_intersect(a, Box((0.0, 0.0), 0.1)) == ((-0.1, -0.1), (0.1, 0.1))
    with pytest.raises(DimensionMismatchError):
        box_intersect(a, Box((0.0, 0.0, 0.0), 1.0))


def test_box_subtract_basic():
    q = ((-0.5, -0.5), (0.5, 0.5))
    assert box_subtract(q, q) == []
    assert box_subtract(q, ((2.0, 2.0), (3.0, 3.0))) == [q]


def test_box_subtract_area_matches_raster_oracle():
    q = ((-0.5, -0.5), (0.5, 0.5))
    c = ((0.0, 0.0), (1.0, 1.0))
    expected = raster_uncovered_area(q, c)
    assert expected == pytest.approx(0.75)
    frags = box_subtract(q, c)
    assert math.fsum(rect_volume(f) for f in frags) == pytest.approx(expected, abs=1e-12)


def test_box_subtract_completeness_random(rng):
    for _ in range(400):
        n = int(rng.integers(1, 4))
        qc = rng.uniform(-1, 1, n)
        qr = rng.uniform(0.05, 1.0)
        cc = rng.uniform(-1.5, 1.5, n)
        cr = rng.uniform(0.05, 1.2)
        q = Box(tuple(qc), qr).rect()
        c = Box(tuple(cc), cr).rect()
        frags = box_subtract(q, c)
        inter = box_intersect(q, c)
        inter_vol = rect_volume(inter) if inter is not None else 0.0
        total = math.fsum(rect_volume(f) for f in frags) + inter_vol
        assert total == pytest.approx(rect_volume(q), rel=1e-12, abs=1e-15)
        # fragments must be pairwise interior-disjoint
        for i in range(len(frags)):
            for j in range(i + 1, len(frags)):
                both = box_intersect(frags[i], frags[j])
                assert both is None or rect_volume(both) <= 1e-12


def test_box_subtract_fragment_count_bound(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        q = Box(tuple(rng.uniform(-1, 1, n)), float(rng.uniform(0.1, 1))).rect()
        c = Box(tuple(rng.uniform(-1, 1, n)), float(rng.uniform(0.1, 1))).rect()
        assert len(box_subtract(q, c)) <= 2 * n


def test_classify_coverage_examples():
    union = BoxList((Box((0.0, 0.0), 0.5),))
    assert classify_coverage(Box((0.0, 0.0), 0.1), union) is CoverageClass.FULLY_COVERED
    assert classify_coverage(Box((10.0, 10.0), 0.1), union) is CoverageClass.DISJOINT
    assert classify_coverage(Box((0.5, 0.0), 0.2), union) is CoverageClass.PARTIAL


def test_classify_coverage_exact_tiling():
    tiles = BoxList(
        tuple(
            Box((sx * 0.25, sy * 0.25), 0.25)
            for sx in (-1, 1)
            for sy in (-1, 1)
        )
    )
    assert classify_coverage(Box((0.0, 0.0), 0.5), tiles) is CoverageClass.FULLY_COVERED
    # remove one tile: the query is only partially covered
    assert (
        classify_coverage(Box((0.0, 0.0), 0.5), BoxList(tiles.boxes[:3]))
        is CoverageClass.PARTIAL
    )


def test_classify_touching_cover_is_not_disjoint():
    # face contact has zero volume but still defeats a DISJOINT verdict
    union = BoxList((Box((1.0, 0.0), 0.5),))
    assert classify_coverage(Box((0.0, 0.0), 0.5), union) is CoverageClass.PARTIAL


def test_uncovered_fragments_reports_leftover():
    union = BoxList((Box((0.0, 0.0), 0.5),))
    frags = uncovered_fragments(Box((0.5, 0.0), 0.2), union)
    assert frags
    assert math.fsum(rect_volume(f) for f in frags) == pytest.approx(0.2 * 0.4)
    assert uncovered_fragments(Box((0.0, 0.0), 0.2), union) == []


def test_successor_box_values():
    b = successor_box(Pair((0.0, 0.0), (0.3, -0.2)), 0.45, 0.8225)
    assert b.center == (0.3, -0.2)
    assert b.radius == pytest.approx(0.370125)
    assert successor_box(Pair((1.0, 1.0), (1.0, 1.0)), 0.0, 1.0).radius == 0.0
    assert successor_box(Pair((0.0, 0.0), (0.0, 0.0)), 0.01, 5.728).radius == pytest.approx(0.05728)
    with pytest.raises(ValueError):
        successor_box(Pair((0.0, 0.0), (0.0, 0.0)), 0.1, 0.0)


def test_successor_box_radius_scales_linearly(rng):
    pair = Pair((0.1, 0.2), (0.3, -0.1))
    for _ in range(50):
        r = float(rng.uniform(0, 2))
        alpha = float(rng.uniform(0, 3))
        lips = float(rng.uniform(0.1, 6))
        assert successor_box(pair, alpha * r, lips).radius == pytest.approx(
            alpha * successor_box(pair, r, lips).radius, rel=1e-12, abs=1e-15
        )


def test_chebyshev():
    assert chebyshev((0.0, 0.0), (0.2, -0.1)) == pytest.approx(0.2)
    with pytest.raises(DimensionMismatchError):
        chebyshev((0.0,), (0.0, 0.0))


def test_rect_to_cubes():
    single = rect_to_cubes((-0.25, -1.0), (1.0, 0.25))
    assert len(single) == 1
    assert single[0].center == (0.375, -0.375)
    assert single[0].radius == 0.625

    two = rect_to_cubes((0.0, 0.0), (2.0, 1.0))
    assert len(two) == 2
    assert {b.center for b in two} == {(0.5, 0.5), (1.5, 0.5)}

    with pytest.raises(ValueError):
        rect_to_cubes((0.0, 0.0), (1.5, 1.0))
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
