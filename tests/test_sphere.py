import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewpriv.oracle import REFERENCE_POINT
from viewpriv.sphere import (
    UNIT_TOLERANCE,
    SpherePoint,
    points_around_pole,
    points_at_distance,
    random_point,
    spherical_distance,
    tangent_frame,
    unit_rows,
)
from viewpriv.traces import SessionTrace, prediction_errors

ATOL = 1e-9


def point_at(origin, distance, bearing):
    """The one point at ``distance`` and ``bearing`` from ``origin``."""
    return SpherePoint.from_array(points_at_distance(origin, distance, [bearing])[0])


def antipode(p):
    return SpherePoint(-p.x, -p.y, -p.z)


def test_construction_renormalizes():
    p = SpherePoint(3.0, 0.0, 4.0)
    assert p.as_array() == pytest.approx([0.6, 0.0, 0.8], abs=1e-15)


def test_construction_rejects_degenerate():
    with pytest.raises(ValueError):
        SpherePoint(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SpherePoint(math.nan, 0.0, 1.0)


def test_distance_identity_and_antipode():
    p = SpherePoint(0.2, -0.4, 0.89)
    assert spherical_distance(p, p) == 0.0
    assert spherical_distance(p, antipode(p)) == pytest.approx(math.pi, abs=ATOL)


def test_distance_orthogonal_axes():
    a = SpherePoint(1.0, 0.0, 0.0)
    b = SpherePoint(0.0, 1.0, 0.0)
    assert spherical_distance(a, b) == pytest.approx(math.pi / 2, abs=ATOL)


def test_point_at_distance_degenerate_endpoints():
    p = SpherePoint(0.3, 0.5, -0.7)
    assert spherical_distance(point_at(p, 0.0, 1.23), p) <= ATOL
    assert spherical_distance(point_at(p, math.pi, 4.56), antipode(p)) <= ATOL


def test_point_at_distance_quarter_turn_from_pole():
    # The pole uses the fallback frame axis; the distance still round-trips.
    pole = SpherePoint(0.0, 0.0, 1.0)
    q = point_at(pole, math.pi / 2, 0.0)
    assert spherical_distance(pole, q) == pytest.approx(math.pi / 2, abs=ATOL)


def test_point_at_distance_rejects_bad_distance():
    p = SpherePoint(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        points_at_distance(p, -0.1, [0.0])
    with pytest.raises(ValueError):
        points_at_distance(p, math.pi + 0.1, [0.0])
    with pytest.raises(ValueError, match="rows must be finite and nonzero"):
        points_at_distance(p, 0.5, [0.0, math.nan])


def test_round_trip_ten_thousand_random_triples():
    rng = np.random.default_rng(314159)
    for _ in range(10_000):
        origin = random_point(rng)
        d = rng.uniform(0.0, math.pi)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        out = point_at(origin, d, bearing)
        assert abs(spherical_distance(origin, out) - d) <= ATOL


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(2_000):
        a, b, c = (random_point(rng) for _ in range(3))
        ab = spherical_distance(a, b)
        bc = spherical_distance(b, c)
        ac = spherical_distance(a, c)
        assert ac <= ab + bc + 1e-12


def sample_on_circle(center, radius, rng, k):
    """k uniform random points on the circle of arc radius ``radius``."""
    return points_at_distance(center, radius, rng.uniform(0.0, 2.0 * math.pi, k))


def test_sample_on_circle_distance_is_exact_per_sample():
    rng = np.random.default_rng(11)
    center = SpherePoint(0.1, 0.9, 0.4)
    for radius in (0.0, 0.3, math.pi / 2, 2.9, math.pi):
        for row in sample_on_circle(center, radius, rng, 200):
            p = SpherePoint.from_array(row)
            assert abs(spherical_distance(center, p) - radius) <= ATOL


def test_sample_on_circle_endpoints():
    rng = np.random.default_rng(2)
    c = SpherePoint(-0.5, 0.5, 0.7)
    for radius, target in ((0.0, c), (math.pi, antipode(c))):
        for row in sample_on_circle(c, radius, rng, 50):
            assert spherical_distance(SpherePoint.from_array(row), target) <= ATOL


def test_sample_on_circle_bearings_cover_the_circle():
    # Mean position of many samples collapses to the circle axis component.
    rng = np.random.default_rng(3)
    c = SpherePoint(0.0, 0.0, 1.0)
    pts = sample_on_circle(c, math.pi / 2, rng, 4_000)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05


@settings(max_examples=200, derandomize=True)
@given(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_round_trip_property(distance, bearing):
    origin = SpherePoint(0.36, -0.48, 0.8)
    out = point_at(origin, distance, bearing)
    assert abs(spherical_distance(origin, out) - distance) <= ATOL


def numpy_prediction_errors(predicted, actual):
    return np.arctan2(np.linalg.norm(np.cross(predicted, actual), axis=-1),
                      np.sum(predicted * actual, axis=-1))


def numpy_tangent_frame(o):
    near_pole = np.abs(o[:, 2]) > 1.0 - UNIT_TOLERANCE
    axis = np.where(near_pole[:, None], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    t1 = axis - np.sum(axis * o, axis=1)[:, None] * o
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    return t1, np.cross(o, t1)


def hard_rows(rng, n):
    """(n, 3) unit rows and partners: generic, parallel, antipodal, a hair
    apart, and within UNIT_TOLERANCE of a pole, in equal parts."""
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    k = n // 5
    poles = np.column_stack((rng.normal(scale=1e-5, size=(k, 2)), np.sign(rng.normal(size=k))))
    u[4 * k:] = poles / np.linalg.norm(poles, axis=1)[:, None]
    v = rng.normal(size=(n, 3))
    v[k:2 * k] = u[k:2 * k]
    v[2 * k:3 * k] = -u[2 * k:3 * k]
    v[3 * k:4 * k] = u[3 * k:4 * k] + rng.normal(scale=1e-9, size=(k, 3))
    return u, v / np.linalg.norm(v, axis=1)[:, None]


def test_vectorized_helpers_match_scalars():
    rng = np.random.default_rng(5)
    origin = random_point(rng)
    bearings = rng.uniform(0.0, 2.0 * math.pi, 64)
    rows = points_at_distance(origin, 0.8, bearings)
    dists = prediction_errors(rows, origin.as_array())
    assert np.allclose(dists, 0.8, atol=ATOL)
    one = point_at(origin, 0.8, float(bearings[0]))
    assert np.allclose(rows[0], one.as_array(), atol=1e-12)

    # Batched tangent frames: generic points, then points within
    # UNIT_TOLERANCE of +-z, where the frame falls back to the +x axis.
    near_poles = [SpherePoint(3e-5, 0.0, 1.0), SpherePoint(0.0, -3e-5, -1.0),
                  SpherePoint(0.0, 0.0, 1.0), SpherePoint(0.0, 0.0, -1.0)]
    points = [random_point(rng) for _ in range(32)] + near_poles
    origins = np.array([p.as_array() for p in points])
    t1, t2 = tangent_frame(origins)
    assert t1.shape == t2.shape == origins.shape
    for i, point in enumerate(points):
        (s1,), (s2,) = tangent_frame(point.as_array()[None])
        assert np.array_equal(t1[i], s1) and np.array_equal(t2[i], s2)
    assert np.allclose(t1[-4:], [1.0, 0.0, 0.0], atol=1e-4)
    for a, b in ((t1, t1), (t2, t2)):
        assert np.allclose(np.sum(a * b, axis=1), 1.0, rtol=0.0, atol=1e-12)
    for a, b in ((t1, t2), (t1, origins), (t2, origins)):
        assert np.allclose(np.sum(a * b, axis=1), 0.0, rtol=0.0, atol=1e-12)

    # The written-out geometry is bit-equal to numpy's cross/norm/sum forms
    # on 100k hard rows, at unit and at 1e-150 scale, and on (T, G, 3) stacks.
    u, v = hard_rows(rng, 100_000)
    assert np.sum(np.abs(u[:, 2]) > 1.0 - UNIT_TOLERANCE) >= 20_000
    for a, b in ((u, v), (1e-150 * u, v), (u, 1e-150 * v), (1e-150 * u, 1e-150 * v)):
        assert np.array_equal(prediction_errors(a, b), numpy_prediction_errors(a, b))
        assert np.array_equal(prediction_errors(a.reshape(40, 2500, 3), b.reshape(40, 2500, 3)),
                              numpy_prediction_errors(a, b).reshape(40, 2500))
        raw = a * rng.uniform(0.5, 2.0, size=(len(a), 1))
        assert np.array_equal(unit_rows(raw), raw / np.linalg.norm(raw, axis=1)[:, None])
    for got, want in zip(tangent_frame(u), numpy_tangent_frame(u)):
        assert np.array_equal(got, want)
    assert np.array_equal(prediction_errors(u[:100], u[0]), numpy_prediction_errors(u[:100], u[0]))


def broadcast_points_at_distance(origin, distance, bearings):
    (t1,), (t2,) = tangent_frame(origin.as_array()[None])
    b = np.asarray(bearings, dtype=float)
    directions = np.cos(b)[:, None] * t1 + np.sin(b)[:, None] * t2
    return unit_rows(math.cos(distance) * origin.as_array() + math.sin(distance) * directions)


def test_circle_sampler_matches_the_broadcast_form():
    # +z, random origins, and origins within UNIT_TOLERANCE of +-z, where the
    # tangent frame falls back to the +x axis.
    rng = np.random.default_rng(12)
    u, _ = hard_rows(rng, 50)
    origins = [SpherePoint(0.0, 0.0, 1.0), *(SpherePoint.from_array(row) for row in u)]
    assert sum(abs(o.z) > 1.0 - UNIT_TOLERANCE for o in origins) >= 11
    bearings = np.concatenate(([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi],
                               rng.uniform(0.0, 2.0 * math.pi, 5_000)))
    for origin in origins:
        for distance in (0.0, math.pi, 1e-300, 0.1 * math.pi, *rng.uniform(0.0, math.pi, 3)):
            assert np.array_equal(points_at_distance(origin, distance, bearings),
                                  broadcast_points_at_distance(origin, distance, bearings))


def test_pole_kernel_matches_the_generic_sampler_at_z():
    # At +z the tangent frame is (+x, +y) exactly, so the pole kernel drops
    # only products with 0 or 1: the same values, though a zero may carry the
    # other sign (array_equal treats -0.0 and 0.0 as equal). The oracle
    # samples its circles about REFERENCE_POINT with this kernel.
    assert REFERENCE_POINT == SpherePoint(0.0, 0.0, 1.0)
    eps = 0.1 * math.pi
    rng = np.random.default_rng(30)
    bearings = np.concatenate(([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi],
                               rng.uniform(0.0, 2.0 * math.pi, 5_000)))
    cos_b, sin_b = np.cos(bearings), np.sin(bearings)
    near_ends = (*rng.uniform(0.0, 1e-12, 3), *(math.pi - rng.uniform(0.0, 1e-12, 3)),
                 1e-300, 5e-324, math.nextafter(math.pi, 0.0))
    for d in (0.0, eps, 0.5 * math.pi, 0.9424778, math.pi - eps, math.pi, *near_ends,
              *rng.uniform(0.0, math.pi, 20)):
        got = points_around_pole(d, cos_b, sin_b)
        assert got.shape == (len(bearings), 3) and got.T.flags.c_contiguous, d
        assert np.array_equal(got, points_at_distance(REFERENCE_POINT, d, bearings)), d


def test_pole_kernel_rejects_bad_distances_and_rows():
    cos_b, sin_b = np.cos([0.0, 1.0]), np.sin([0.0, 1.0])
    for d in (-0.1, -1e-300, math.pi + 0.1, math.nextafter(math.pi, 4.0), math.nan, math.inf):
        with pytest.raises(ValueError, match="distance"):
            points_around_pole(d, cos_b, sin_b)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonzero"):
            points_around_pole(1.0, np.array([1.0, bad]), sin_b)


def test_unit_rows_rejects_zero_rows():
    with pytest.raises(ValueError):
        unit_rows(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        unit_rows(np.array([1.0, 0.0, 0.0]))


def test_a_row_whose_squared_norm_overflows_is_refused():
    # A finite row whose squared norm overflows once became a zero "unit" row:
    # its norm is inf, and the row over it is 0.
    with np.errstate(over="ignore"):
        for x in (1.4e154, 1e200):
            row = [x, 0.0, 0.0]
            with pytest.raises(ValueError, match="overflow"):
                unit_rows([row])
            with pytest.raises(ValueError, match="overflow"):
                SpherePoint(*row)
            with pytest.raises(ValueError, match="overflow"):
                SessionTrace(0, 0, np.array([row] * 3))
        # A row whose square stays finite still normalises.
        row = [1e154, 0.0, 0.0]
        assert np.array_equal(unit_rows([row]), [[1.0, 0.0, 0.0]])
        assert SpherePoint(*row) == SpherePoint(1.0, 0.0, 0.0)
        assert np.array_equal(SessionTrace(0, 0, np.array([row] * 3)).actual,
                              [[1.0, 0.0, 0.0]] * 3)
