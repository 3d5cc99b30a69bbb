import dataclasses
import math

import numpy as np
import pytest

from viewpriv.policies import BpeaPolicy, GaussianViewpointNoise, NoObfuscation
from viewpriv.streaming import (
    Allocation,
    GOP_SECONDS,
    GopRecord,
    QualityLevel,
    SessionConfig,
    TILE_COLS,
    TILE_ROWS,
    ZONE_SHAPES,
    allocate_quality,
    apply_policy,
    block_tiles,
    fov_tiles,
    make_zone,
    qoe_score,
    simulate_session,
    tile_of,
    zone_from_error,
)
from viewpriv.traces import SessionTrace, generate_synthetic_trace

EPS = 0.1 * math.pi


def walking_trace(gops=12, seed=4):
    return generate_synthetic_trace(0, 0, gops, np.random.default_rng(seed))


def perfect_trace(gops=12, seed=4):
    t = walking_trace(gops, seed)
    return SessionTrace(t.user_id, t.video_id, t.actual, predicted=t.actual.copy())


# ------------------------------------------------------------------ tile grid


def test_tile_of_poles_and_seam():
    assert tile_of([0.0, 0.0, 1.0])[0] == 0
    assert tile_of([0.0, 0.0, -1.0])[0] == TILE_ROWS - 1
    assert tile_of([1.0, 0.0, 0.0]) == (1, 4) or tile_of([1.0, 0.0, 0.0])[1] in (0, 4)
    r, c = tile_of([math.cos(0.1), math.sin(0.1), 0.0])
    assert 0 <= r < TILE_ROWS and 0 <= c < TILE_COLS


def test_fov_is_three_by_three_with_row_clamp():
    assert len(fov_tiles((1, 4))) == 9
    assert len(fov_tiles((0, 4))) == 6  # clamped at the top edge
    assert len(fov_tiles((3, 4))) == 6


def test_block_wraps_columns():
    tiles = block_tiles((1, 0), (3, 3))
    cols = {c for _, c in tiles}
    assert cols == {7, 0, 1}


def test_zone_from_error_endpoints_and_midpoint():
    assert zone_from_error(0.0) == (3, 3)
    assert zone_from_error(math.pi) == (4, 8)
    assert zone_from_error(math.pi / 2) == (3, 7)


def test_zone_from_error_monotone():
    errors = np.linspace(0.0, math.pi, 500)
    indices = [ZONE_SHAPES.index(zone_from_error(float(e))) for e in errors]
    assert all(b >= a for a, b in zip(indices, indices[1:]))


def test_zone_shape_feasible_set_only():
    with pytest.raises(ValueError):
        make_zone((1, 1), (2, 2))


# ----------------------------------------------------------------- allocation


def test_allocation_exact_low_budget_means_no_upgrades():
    zone = make_zone((1, 4), (3, 5))
    cfg = SessionConfig(budget_mbit=15 * 1.8)
    alloc = allocate_quality(zone, fov_tiles((1, 4)), cfg)
    assert not alloc.under_provisioned
    assert len(alloc.quality) == 15
    assert all(level is QualityLevel.LOW for level in alloc.quality.values())


def test_allocation_default_budget_fills_pfov_high():
    # 9 pFoV tiles at the top rate plus 23 low tiles exactly consume the
    # default per-GoP budget.
    zone = make_zone((1, 4), (4, 8))
    cfg = SessionConfig()
    alloc = allocate_quality(zone, fov_tiles((1, 4)), cfg)
    assert not alloc.under_provisioned
    highs = [t for t, lvl in alloc.quality.items() if lvl is QualityLevel.HIGH]
    lows = [t for t, lvl in alloc.quality.items() if lvl is QualityLevel.LOW]
    assert sorted(highs) == sorted(fov_tiles((1, 4)))
    assert len(lows) == 23
    assert alloc.spent_mbit == pytest.approx(95.4, abs=1e-9)


def test_allocation_zero_budget_under_provisions():
    zone = make_zone((1, 4), (3, 3))
    alloc = allocate_quality(zone, fov_tiles((1, 4)), SessionConfig(budget_mbit=0.0))
    assert alloc.under_provisioned
    assert alloc.quality == {}


def test_allocation_extends_outside_zone():
    zone = make_zone((1, 4), (3, 3))
    alloc = allocate_quality(zone, fov_tiles((1, 4)), SessionConfig(budget_mbit=95.4))
    outside = [t for t in alloc.quality if t not in zone.tiles]
    assert outside and all(alloc.quality[t] is QualityLevel.HIGH for t in outside)


def test_budget_conservation_exhaustive():
    # Every reachable (center, shape) pair at several budgets.
    for budget in (0.0, 10.0, 30.0, 57.6, 95.4, 200.0, 1000.0):
        cfg = SessionConfig(budget_mbit=budget)
        for r in range(TILE_ROWS):
            for c in range(TILE_COLS):
                for shape in ZONE_SHAPES:
                    zone = make_zone((r, c), shape)
                    alloc = allocate_quality(zone, fov_tiles((r, c)), cfg)
                    total = sum(lvl.mbps for lvl in alloc.quality.values()) * GOP_SECONDS
                    assert total == pytest.approx(alloc.spent_mbit, abs=1e-9)
                    assert total <= budget + 1e-9


def test_allocation_order_prefers_pfov_center():
    zone = make_zone((2, 2), (3, 5))
    cfg = SessionConfig(budget_mbit=15 * 1.8 + 4.2)  # room for exactly one upgrade
    alloc = allocate_quality(zone, fov_tiles((2, 2)), cfg)
    highs = [t for t, lvl in alloc.quality.items() if lvl is QualityLevel.HIGH]
    assert highs == [(2, 2)]


# ------------------------------------------------------------------ QoE score


def _static_records(gops, quality, center=(1, 1), under=False):
    fov = fov_tiles(center)
    return [GopRecord(center, fov, dict(quality), under) for _ in range(gops)]


def test_qoe_everything_high_no_stalls_is_five():
    fov = fov_tiles((1, 1))
    quality = {t: QualityLevel.HIGH for t in fov}
    report = qoe_score(_static_records(6, quality), SessionConfig())
    assert report.qoe == pytest.approx(5.0, abs=1e-12)
    assert report.stall_fraction == 0.0
    assert report.quality_variation == 0.0
    assert report.fov_coverage == 1.0


def test_qoe_everything_missing_is_one():
    report = qoe_score(_static_records(6, {}), SessionConfig())
    assert report.qoe == pytest.approx(1.0, abs=1e-12)
    assert report.stall_fraction == 1.0
    assert report.fov_coverage == 0.0


def test_qoe_half_low_half_high_regression():
    fov = sorted(fov_tiles((1, 1)))
    center = (1, 1)
    quality = {t: (QualityLevel.HIGH if i < 4 or t == center else QualityLevel.LOW)
               for i, t in enumerate(fov)}
    highs = sum(1 for lvl in quality.values() if lvl is QualityLevel.HIGH)
    report = qoe_score(_static_records(4, quality, center), SessionConfig())
    fov_mean = (highs * 1.0 + (9 - highs) * 0.3) / 9.0
    expected = 1.0 + 4.0 * (0.4 * 1.0 + 0.3 * fov_mean + 0.15 + 0.15)
    assert report.qoe == pytest.approx(expected, abs=1e-12)
    assert report.qoe == pytest.approx(4.626666666666667, abs=1e-12)


def test_qoe_missing_fov_tile_reduces_coverage_and_stalls():
    fov = sorted(fov_tiles((1, 1)))
    quality = {t: QualityLevel.HIGH for t in fov[:-1]}
    report = qoe_score(_static_records(5, quality), SessionConfig())
    assert report.fov_coverage == pytest.approx(8.0 / 9.0)
    assert report.stall_fraction == 1.0


def test_qoe_bounds_random_sessions():
    rng = np.random.default_rng(0)
    fov = sorted(fov_tiles((2, 3)))
    for _ in range(200):
        records = []
        for _ in range(6):
            quality = {
                t: rng.choice([QualityLevel.LOW, QualityLevel.MID, QualityLevel.HIGH])
                for t in fov
                if rng.random() > 0.3
            }
            records.append(GopRecord((2, 3), frozenset(fov), quality, rng.random() < 0.1))
        report = qoe_score(records, SessionConfig())
        assert 1.0 <= report.qoe <= 5.0


def test_qoe_rejects_empty_session():
    with pytest.raises(ValueError):
        qoe_score([], SessionConfig())


def test_session_config_validation():
    assert [f.name for f in dataclasses.fields(SessionConfig)] == ["budget_mbit"]
    assert SessionConfig(budget_mbit=0.0).budget_mbit == 0.0
    with pytest.raises(ValueError):
        SessionConfig(budget_mbit=-1.0)


def test_zone_inflation_never_helps_under_fixed_budget():
    # FoV equals pFoV; growing the zone only spreads the budget thinner.
    cfg = SessionConfig(budget_mbit=60.0)
    center = (1, 1)
    fov = fov_tiles(center)
    scores = []
    for shape in ZONE_SHAPES:
        alloc = allocate_quality(make_zone(center, shape), fov, cfg)
        records = [GopRecord(center, fov, alloc.quality, alloc.under_provisioned)
                   for _ in range(5)]
        scores.append(qoe_score(records, cfg).qoe)
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


# ------------------------------------------------------------ session runs


def test_simulate_perfect_predictor_no_policy():
    outcome = simulate_session(
        perfect_trace(), NoObfuscation(), SessionConfig(), EPS, np.random.default_rng(0)
    )
    assert outcome.leakage.value == 1.0
    assert outcome.leakage.method == "sample_mean"
    assert np.all(outcome.uploaded_errors == 0.0)
    assert outcome.qoe.qoe == pytest.approx(5.0, abs=1e-12)


def test_simulate_bpea_zero_requirement_leaks_nothing():
    outcome = simulate_session(
        walking_trace(), BpeaPolicy(q=0.0), SessionConfig(), EPS, np.random.default_rng(0)
    )
    assert outcome.leakage.value == 0.0
    assert np.all(outcome.per_gop_leakage == 0.0)


def test_simulate_bpea_vacuous_requirement_equals_no_policy():
    trace = walking_trace()
    base = simulate_session(trace, NoObfuscation(), SessionConfig(), EPS, np.random.default_rng(0))
    noisy = simulate_session(trace, BpeaPolicy(q=1.0), SessionConfig(), EPS, np.random.default_rng(0))
    assert noisy.qoe == base.qoe
    assert noisy.mean_error_rad == base.mean_error_rad
    assert noisy.mean_abs_noise_rad == 0.0
    assert np.array_equal(noisy.uploaded_errors, base.uploaded_errors)


def test_simulate_gaussian_policy_inflates_errors():
    trace = walking_trace(gops=40)
    base = simulate_session(trace, NoObfuscation(), SessionConfig(), EPS, np.random.default_rng(1))
    noisy = simulate_session(
        trace, GaussianViewpointNoise(sigma=2.0), SessionConfig(), EPS, np.random.default_rng(1)
    )
    assert noisy.mean_error_rad > base.mean_error_rad
    assert noisy.mean_abs_noise_rad == 0.0


def test_apply_policy_matches_simulate_session_pipeline():
    trace = walking_trace()
    app = apply_policy(trace, BpeaPolicy(q=0.2), EPS, np.random.default_rng(3))
    outcome = simulate_session(
        trace, BpeaPolicy(q=0.2), SessionConfig(), EPS, np.random.default_rng(3)
    )
    assert np.array_equal(app.per_gop_leakage, outcome.per_gop_leakage)
    assert np.array_equal(app.uploaded, outcome.uploaded_errors)
    assert app.mean_error_rad == outcome.mean_error_rad


def test_under_provisioned_budget_stalls_every_gop():
    outcome = simulate_session(
        perfect_trace(), NoObfuscation(), SessionConfig(budget_mbit=5.0), EPS,
        np.random.default_rng(0),
    )
    assert outcome.qoe.stall_fraction == 1.0
    assert outcome.qoe.fov_coverage < 1.0


def test_allocation_dataclass_shape():
    alloc = Allocation(quality={}, under_provisioned=True, spent_mbit=0.0)
    assert alloc.under_provisioned
