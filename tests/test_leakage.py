import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewpriv.leakage import (
    conditional_leakage,
    leakage_sample_mean,
    optimal_error_distribution,
    uniform_error_leakage,
)

EPS = 0.1 * math.pi


def grid_min_leakage(eps, bins):
    """Least leakage of any error distribution on ``bins`` evenly spaced errors in [0, pi]:
    the objective is linear in the distribution, so the best is the best single point."""
    return float(np.min(conditional_leakage(np.linspace(0.0, math.pi, bins), eps)))


def test_conditional_leakage_small_error_is_certain():
    assert conditional_leakage(0.05 * math.pi, EPS) == 1.0


def test_conditional_leakage_near_antipodal_is_certain():
    assert conditional_leakage(0.97 * math.pi, EPS) == 1.0


def test_conditional_leakage_quarter_turn():
    assert conditional_leakage(0.5 * math.pi, EPS) == pytest.approx(0.1, abs=1e-15)


def test_conditional_leakage_midrange_value():
    # eps / (pi * sin 0.35), frozen from a 50-digit evaluation.
    assert conditional_leakage(0.35, EPS) == pytest.approx(0.2916320776212365, abs=1e-12)


def test_conditional_leakage_boundaries_take_the_certain_branch():
    assert conditional_leakage(EPS, EPS) == 1.0
    assert conditional_leakage(math.pi - EPS, EPS) == 1.0


def test_precision_domain_is_enforced():
    for bad in (0.0, -0.1, 0.5 * math.pi, 0.7 * math.pi, math.nan):
        with pytest.raises(ValueError):
            conditional_leakage(0.3, bad)


def test_error_domain_is_enforced():
    for bad in (-0.01, math.pi + 0.01, math.nan):
        with pytest.raises(ValueError):
            conditional_leakage(bad, EPS)


@settings(max_examples=400, derandomize=True)
@given(st.floats(0.0, math.pi), st.floats(0.01, 0.5 * math.pi, exclude_max=True))
def test_floor_and_symmetry_properties(error, eps):
    value = conditional_leakage(error, eps)
    assert value >= eps / math.pi - 1e-12
    assert value == pytest.approx(conditional_leakage(math.pi - error, eps), abs=1e-12)


def test_unique_minimum_at_half_pi():
    grid = np.linspace(0.0, math.pi, 20_001)
    values = conditional_leakage(grid, EPS)
    best = int(np.argmin(values))
    assert grid[best] == pytest.approx(0.5 * math.pi, abs=1e-3)
    away = np.abs(grid - 0.5 * math.pi) > 1e-3
    assert np.all(values[away] > EPS / math.pi)


def test_sample_mean_constant_lists():
    assert leakage_sample_mean([0.5 * math.pi] * 8, EPS) == pytest.approx(0.1, abs=1e-15)
    assert leakage_sample_mean([0.01, 0.2, 0.3], EPS) == 1.0


def test_sample_mean_mixed_list():
    mean = leakage_sample_mean([0.05 * math.pi, 0.5 * math.pi], EPS)
    assert mean == pytest.approx(0.55, abs=1e-12)


def test_sample_mean_equals_mean_of_conditionals():
    rng = np.random.default_rng(4)
    errors = rng.uniform(0.0, math.pi, 500)
    mean = leakage_sample_mean(errors, EPS)
    assert mean == pytest.approx(float(np.mean(conditional_leakage(errors, EPS))), abs=1e-15)


def test_sample_mean_rejects_empty():
    with pytest.raises(ValueError):
        leakage_sample_mean([], EPS)


def test_optimal_error_distribution():
    location, floor = optimal_error_distribution(EPS)
    assert location == 0.5 * math.pi
    assert floor == pytest.approx(0.1, abs=1e-15)
    location, floor = optimal_error_distribution(0.25 * math.pi)
    assert floor == pytest.approx(0.25, abs=1e-15)
    assert optimal_error_distribution(1e-9)[1] == pytest.approx(0.0, abs=1e-9)


def test_grid_check_converges_to_floor():
    assert grid_min_leakage(EPS, 10_000) == pytest.approx(0.1, abs=1e-4)
    assert grid_min_leakage(0.3 * math.pi, 10_000) == pytest.approx(0.3, abs=1e-4)


def test_grid_check_two_point_grid():
    # Grid {0, pi}: both endpoints sit in the certain-leakage regime.
    assert grid_min_leakage(EPS, 2) == 1.0


def test_grid_check_monotone_on_nested_grids():
    # bins - 1 doubles, so each grid refines the previous one; the midpoint
    # enters the grid once bins is odd.
    values = [grid_min_leakage(EPS, bins) for bins in (10, 19, 37, 73, 145)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert grid_min_leakage(EPS, 1025) == pytest.approx(0.1, abs=1e-12)



@pytest.mark.parametrize("eps", [0.05 * math.pi, 0.1 * math.pi, 0.2 * math.pi, 0.45 * math.pi])
def test_uniform_error_leakage_against_quadrature_and_monte_carlo(eps):
    # The error of a uniformly random prediction has density sin(e)/2 on [0, pi].
    value = uniform_error_leakage(eps)
    assert optimal_error_distribution(eps)[1] < value < 1.0
    # Midpoint rule: each of the two jumps at eps and pi - eps costs at most one cell.
    cells = 1_000_000
    e = (np.arange(cells) + 0.5) * (math.pi / cells)
    quadrature = math.pi * np.mean(conditional_leakage(e, eps) * 0.5 * np.sin(e))
    assert value == pytest.approx(quadrature, abs=4.0 * math.pi / cells)
    # Inverse-CDF draws: cos e is uniform on [-1, 1].
    draws = conditional_leakage(np.arccos(np.random.default_rng(41).uniform(-1.0, 1.0, cells)), eps)
    assert value == pytest.approx(draws.mean(), abs=5.0 * draws.std() / math.sqrt(cells))


def test_uniform_error_leakage_value_and_domain():
    assert uniform_error_leakage(EPS) == pytest.approx(0.17461, abs=5e-6)
    assert uniform_error_leakage(0.05 * math.pi) == pytest.approx(0.08300, abs=5e-6)
    assert uniform_error_leakage(0.2 * math.pi) == pytest.approx(0.37948, abs=5e-6)
    for bad in (0.0, 0.5 * math.pi, math.nan):
        with pytest.raises(ValueError, match="precision"):
            uniform_error_leakage(bad)
