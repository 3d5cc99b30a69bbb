import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewpriv.leakage import (
    conditional_leakage,
    leakage_sample_mean,
    min_leakage_grid_check,
    optimal_error_distribution,
)

EPS = 0.1 * math.pi


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
    assert min_leakage_grid_check(EPS, 10_000) == pytest.approx(0.1, abs=1e-4)
    assert min_leakage_grid_check(0.3 * math.pi, 10_000) == pytest.approx(0.3, abs=1e-4)


def test_grid_check_two_point_grid():
    # Grid {0, pi}: both endpoints sit in the certain-leakage regime.
    assert min_leakage_grid_check(EPS, 2) == 1.0


def test_grid_check_monotone_on_nested_grids():
    # bins - 1 doubles, so each grid refines the previous one; the midpoint
    # enters the grid once bins is odd.
    values = [min_leakage_grid_check(EPS, bins) for bins in (10, 19, 37, 73, 145)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert min_leakage_grid_check(EPS, 1025) == pytest.approx(0.1, abs=1e-12)

