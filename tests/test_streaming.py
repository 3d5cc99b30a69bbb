import dataclasses
import math
from itertools import accumulate

import numpy as np
import pytest

from viewpriv.harness import ExperimentConfig, generate_trace_set
from viewpriv.baselines import GAUSSIAN_KIND, NoiseScale
from viewpriv.policies import BpeaPolicy, NoObfuscation
from viewpriv.streaming import (
    Allocation,
    DEFAULT_BUDGET_MBIT,
    FOV_SHAPE,
    GOP_SECONDS,
    GopRecord,
    QOE_WEIGHTS,
    QoEReport,
    QualityLevel,
    SessionConfig,
    TILE_COLS,
    TILE_ROWS,
    Tile,
    ZONE_SHAPES,
    _BUDGET_SLACK,
    _TILES,
    allocate_quality,
    apply_policy,
    block_tiles,
    fov_tiles,
    qoe_score,
    score_sessions,
    simulate_session,
    tile_of,
    tiles_of,
    zone_from_error,
    zone_indices,
)
from viewpriv.traces import SessionTrace, generate_synthetic_trace, persistence_predict

EPS = 0.1 * math.pi


def spent_mbit(alloc):
    """What an allocation's quality map costs over one GoP."""
    return sum(lvl.value for lvl in alloc.quality.values()) * GOP_SECONDS


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


def scalar_tile(point):
    """Flat tile index by the scalar libm formula, as a reference for tiles_of."""
    x, y, z = (float(c) for c in point)
    polar = math.acos(min(1.0, max(-1.0, z)))
    row = min(TILE_ROWS - 1, int(polar / math.pi * TILE_ROWS))
    azimuth = math.atan2(y, x) % (2.0 * math.pi)
    col = min(TILE_COLS - 1, int(azimuth / (2.0 * math.pi) * TILE_COLS))
    return row * TILE_COLS + col


def test_tiles_of_matches_scalar_formula_on_edges():
    points = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    for x in (1.0, -1.0):   # the seam, on both sides of the sphere
        points += [[x, 0.0, 0.0], [x, -0.0, 0.0], [x, -1e-300, 0.0]]
    # Exact row boundaries at every column boundary, and one ulp either side.
    for k in range(TILE_ROWS + 1):
        for j in range(TILE_COLS + 1):
            polar, azimuth = k * math.pi / TILE_ROWS, j * 2.0 * math.pi / TILE_COLS
            for z in np.nextafter(math.cos(polar), [-2.0, 0.0, 2.0]):
                s = math.sqrt(max(0.0, 1.0 - z * z))
                points.append([s * math.cos(azimuth), s * math.sin(azimuth), min(z, 1.0)])
    got = tiles_of(points)
    assert got.tolist() == [scalar_tile(p) for p in points]
    assert [tile_of(p) for p in points] == [divmod(t, TILE_COLS) for t in got.tolist()]


def test_tiles_of_matches_scalar_formula_on_the_default_evaluation_set():
    _, actual = generate_trace_set(ExperimentConfig())
    for points in (actual, persistence_predict(actual)):
        want = np.array([scalar_tile(p) for p in points.reshape(-1, 3)])
        assert np.array_equal(tiles_of(points), want.reshape(points.shape[:-1]))


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


def test_zone_indices_match_zone_from_error_at_bin_edges():
    errors = [0.0, math.pi]
    for k in range(1, len(ZONE_SHAPES)):
        edge = (k - 0.5) * math.pi / (len(ZONE_SHAPES) - 1)
        errors += [float(np.nextafter(edge, -1.0)), edge, float(np.nextafter(edge, 4.0))]
    want = [ZONE_SHAPES.index(zone_from_error(e)) for e in errors]
    assert zone_indices(errors).tolist() == want
    # The pre-batch scalar formula, linear with half-up rounding.
    assert want == [min(int(math.floor(4 * e / math.pi + 0.5)), 4) for e in errors]
    assert set(want) == set(range(len(ZONE_SHAPES)))
    with pytest.raises(ValueError):
        zone_indices([0.5, math.pi + 1e-9])


def test_zone_shape_feasible_set_only():
    with pytest.raises(ValueError):
        allocate_quality((1, 1), (2, 2), SessionConfig())


# ----------------------------------------------------------------- allocation


def test_allocation_exact_low_budget_means_no_upgrades():
    cfg = SessionConfig(budget_mbit=15 * 1.8)
    alloc = allocate_quality((1, 4), (3, 5), cfg)
    assert not alloc.under_provisioned
    assert len(alloc.quality) == 15
    assert all(level is QualityLevel.LOW for level in alloc.quality.values())


def test_allocation_default_budget_fills_pfov_high():
    # 9 pFoV tiles at the top rate plus 23 low tiles exactly consume the
    # default per-GoP budget.
    cfg = SessionConfig()
    alloc = allocate_quality((1, 4), (4, 8), cfg)
    assert not alloc.under_provisioned
    highs = [t for t, lvl in alloc.quality.items() if lvl is QualityLevel.HIGH]
    lows = [t for t, lvl in alloc.quality.items() if lvl is QualityLevel.LOW]
    assert sorted(highs) == sorted(fov_tiles((1, 4)))
    assert len(lows) == 23
    assert spent_mbit(alloc) == pytest.approx(95.4, abs=1e-9)


def test_allocation_zero_budget_under_provisions():
    alloc = allocate_quality((1, 4), (3, 3), SessionConfig(budget_mbit=0.0))
    assert alloc.under_provisioned
    assert alloc.quality == {}


def test_allocation_extends_outside_zone():
    zone = block_tiles((1, 4), (3, 3))
    alloc = allocate_quality((1, 4), (3, 3), SessionConfig(budget_mbit=95.4))
    outside = [t for t in alloc.quality if t not in zone]
    assert outside and all(alloc.quality[t] is QualityLevel.HIGH for t in outside)


def test_budget_conservation_exhaustive():
    # Every reachable (center, shape) pair at several budgets.
    for budget in (0.0, 10.0, 30.0, 57.6, 95.4, 200.0, 1000.0):
        cfg = SessionConfig(budget_mbit=budget)
        for r in range(TILE_ROWS):
            for c in range(TILE_COLS):
                for shape in ZONE_SHAPES:
                    alloc = allocate_quality((r, c), shape, cfg)
                    assert spent_mbit(alloc) <= budget + 1e-9


def test_allocation_order_prefers_pfov_center():
    cfg = SessionConfig(budget_mbit=15 * 1.8 + 4.2)  # room for exactly one upgrade
    alloc = allocate_quality((2, 2), (3, 5), cfg)
    highs = [t for t, lvl in alloc.quality.items() if lvl is QualityLevel.HIGH]
    assert highs == [(2, 2)]


# The three greedy passes the prefix rule replaced, as the reference.


def _ring_key(center: Tile):
    cr, cc = center

    def key(tile: Tile):
        r, c = tile
        dc = abs(c - cc)
        dc = min(dc, TILE_COLS - dc)
        return (max(abs(r - cr), dc), r, c)

    return key


def greedy_allocate_quality(center: Tile, shape: tuple[int, int], cfg: SessionConfig) -> Allocation:
    """Per-tile quality map for one GoP under the bitrate budget: the zone of
    ``shape`` and the pFoV are both the blocks around the pFoV center tile."""
    if shape not in ZONE_SHAPES:
        raise ValueError(f"zone shape {shape} is outside the feasible set {ZONE_SHAPES}")
    zone, pfov, order = block_tiles(center, shape), fov_tiles(center), _ring_key(center)
    quality: dict = {}
    spent = 0.0
    under = False

    low_cost = QualityLevel.LOW.value * GOP_SECONDS
    for tile in sorted(zone, key=order):
        if spent + low_cost <= cfg.budget_mbit + _BUDGET_SLACK:
            quality[tile] = QualityLevel.LOW
            spent += low_cost
        else:
            under = True
    if under:
        return Allocation(quality, True)

    upgrade_cost = (QualityLevel.HIGH.value - QualityLevel.LOW.value) * GOP_SECONDS
    tiers = [
        [center],
        sorted(pfov - {center}, key=order),
        sorted(zone - pfov, key=order),
    ]
    for tier in tiers:
        for tile in tier:
            if spent + upgrade_cost <= cfg.budget_mbit + _BUDGET_SLACK:
                quality[tile] = QualityLevel.HIGH
                spent += upgrade_cost

    add_cost = QualityLevel.HIGH.value * GOP_SECONDS
    for tile in sorted((x for x in _TILES if x not in zone), key=order):
        if spent + add_cost <= cfg.budget_mbit + _BUDGET_SLACK:
            quality[tile] = QualityLevel.HIGH
            spent += add_cost
    return Allocation(quality, False)


def phase_boundary_budgets(zone_size: int) -> list[float]:
    """Budgets at every running spend of a zone of ``zone_size`` tiles: each
    sum itself, and the budget whose allowance (budget + slack) reaches it,
    each with its neighbours one ulp either side."""
    low, high = QualityLevel.LOW.value, QualityLevel.HIGH.value
    costs = ([low] * zone_size + [high - low] * zone_size
             + [high] * (TILE_ROWS * TILE_COLS - zone_size))
    budgets = set()
    for spent in accumulate(c * GOP_SECONDS for c in costs):
        reach = spent - _BUDGET_SLACK
        while reach + _BUDGET_SLACK < spent:
            reach = np.nextafter(reach, math.inf)
        while reach + _BUDGET_SLACK > spent:
            reach = np.nextafter(reach, -math.inf)
        for b in (spent, reach):
            budgets |= {float(np.nextafter(b, -math.inf)), float(b), float(np.nextafter(b, math.inf))}
    return sorted(budgets)


def test_prefix_allocation_matches_the_greedy_passes_at_every_phase_boundary():
    # A budget that lands on a running spend, or one ulp to either side of
    # where budget + slack does, tells <= from <, a step from the next, and
    # a left-to-right sum from any other order of summing.
    fixed = [0.0, DEFAULT_BUDGET_MBIT, 1000.0, math.inf]
    grids = {}
    for center in _TILES:
        for shape in ZONE_SHAPES:
            size = len(block_tiles(center, shape))
            if size not in grids:
                grids[size] = [SessionConfig(b) for b in phase_boundary_budgets(size) + fixed]
            for cfg in grids[size]:
                got = allocate_quality(center, shape, cfg)
                want = greedy_allocate_quality(center, shape, cfg)
                assert list(got.quality.items()) == list(want.quality.items()), (center, shape, cfg)
                assert got.under_provisioned == want.under_provisioned, (center, shape, cfg)
    assert sorted(grids) == [6, 9, 10, 14, 15, 21, 28, 32]


# ------------------------------------------------------------------ QoE score


def _static_records(gops, quality, center=(1, 1), under=False):
    return [GopRecord(center, dict(quality), under) for _ in range(gops)]


def test_qoe_everything_high_no_stalls_is_five():
    fov = fov_tiles((1, 1))
    quality = {t: QualityLevel.HIGH for t in fov}
    report = qoe_score(_static_records(6, quality))
    assert report.qoe == pytest.approx(5.0, abs=1e-12)
    assert report.stall_fraction == 0.0
    assert report.quality_variation == 0.0
    assert report.fov_coverage == 1.0


def test_qoe_everything_missing_is_one():
    report = qoe_score(_static_records(6, {}))
    assert report.qoe == pytest.approx(1.0, abs=1e-12)
    assert report.stall_fraction == 1.0
    assert report.fov_coverage == 0.0


def test_qoe_half_low_half_high_regression():
    fov = sorted(fov_tiles((1, 1)))
    center = (1, 1)
    quality = {t: (QualityLevel.HIGH if i < 4 or t == center else QualityLevel.LOW)
               for i, t in enumerate(fov)}
    highs = sum(1 for lvl in quality.values() if lvl is QualityLevel.HIGH)
    report = qoe_score(_static_records(4, quality, center))
    fov_mean = (highs * 1.0 + (9 - highs) * 0.3) / 9.0
    expected = 1.0 + 4.0 * (0.4 * 1.0 + 0.3 * fov_mean + 0.15 + 0.15)
    assert report.qoe == pytest.approx(expected, abs=1e-12)
    assert report.qoe == pytest.approx(4.626666666666667, abs=1e-12)


def test_qoe_missing_fov_tile_reduces_coverage_and_stalls():
    fov = sorted(fov_tiles((1, 1)))
    quality = {t: QualityLevel.HIGH for t in fov[:-1]}
    report = qoe_score(_static_records(5, quality))
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
            records.append(GopRecord((2, 3), quality, rng.random() < 0.1))
        report = qoe_score(records)
        assert 1.0 <= report.qoe <= 5.0


def test_qoe_rejects_empty_session():
    with pytest.raises(ValueError):
        qoe_score([])


def test_session_config_validation():
    assert [f.name for f in dataclasses.fields(SessionConfig)] == ["budget_mbit"]
    assert SessionConfig(budget_mbit=0.0).budget_mbit == 0.0
    assert SessionConfig(budget_mbit=math.inf).budget_mbit == math.inf
    for budget in (-1.0, math.nan):
        with pytest.raises(ValueError):
            SessionConfig(budget_mbit=budget)


def test_zone_inflation_never_helps_under_fixed_budget():
    # FoV equals pFoV; growing the zone only spreads the budget thinner.
    cfg = SessionConfig(budget_mbit=60.0)
    center = (1, 1)
    scores = []
    for shape in ZONE_SHAPES:
        alloc = allocate_quality(center, shape, cfg)
        records = [GopRecord(center, alloc.quality, alloc.under_provisioned)
                   for _ in range(5)]
        scores.append(qoe_score(records).qoe)
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


def reference_qoe(predicted, actual, uploaded, cfg):
    """Per-GoP scoring loop over allocate_quality's dict quality maps, in
    plain Python arithmetic: the reference for the table-driven scorer.
    Returns the report and the session's GopRecords."""
    central, fov_means, stalled, records = [], [], [], []
    covered_pairs = total_pairs = 0
    for p, a, e in zip(predicted, actual, uploaded):
        pcenter, acenter = tile_of(p), tile_of(a)
        quality = allocate_quality(pcenter, zone_from_error(float(e)), cfg)
        level = {t: lvl.normalized for t, lvl in quality.quality.items()}
        fov = fov_tiles(acenter)
        central.append(level.get(acenter, 0.0))
        fov_means.append(sum([level.get(t, 0.0) for t in fov]) / len(fov))
        covered = sum(1 for t in fov if t in level)
        covered_pairs += covered
        total_pairs += len(fov)
        stalled.append(quality.under_provisioned or covered < len(fov))
        records.append(GopRecord(acenter, quality.quality, quality.under_provisioned))
    transitions = [
        1.0 if (stalled[i] or stalled[i + 1]) else min(1.0, abs(fov_means[i + 1] - fov_means[i]))
        for i in range(len(stalled) - 1)
    ]
    variation = sum(transitions) / len(transitions) if transitions else 0.0
    stall_fraction = sum(stalled) / len(stalled)
    mean_central = sum(central) / len(central)
    mean_fov = sum(fov_means) / len(fov_means)
    w1, w2, w3, w4 = QOE_WEIGHTS
    qoe = 1.0 + 4.0 * (
        w1 * mean_central + w2 * mean_fov + w3 * (1.0 - variation) + w4 * (1.0 - stall_fraction)
    )
    report = QoEReport(qoe, covered_pairs / total_pairs, mean_fov, variation, stall_fraction)
    return report, records


def random_sessions(rng, sessions, gops):
    """(predicted, actual, uploaded): actual viewpoints are the predictions
    moved by none, a little or a lot, so FoVs are fully, partly or not covered."""
    predicted = rng.normal(size=(sessions, gops, 3))
    predicted /= np.linalg.norm(predicted, axis=-1, keepdims=True)
    spread = rng.choice([0.0, 0.3, 3.0], size=(sessions, gops, 1))
    actual = predicted + spread * rng.normal(size=predicted.shape)
    actual /= np.linalg.norm(actual, axis=-1, keepdims=True)
    return predicted, actual, rng.uniform(0.0, math.pi, size=(sessions, gops))


def test_table_scorer_matches_the_per_gop_reference():
    rng = np.random.default_rng(11)
    seen = set()
    for budget in (0.0, 10.0, 30.0, 57.6, 95.4, 200.0, 1000.0):
        cfg = SessionConfig(budget_mbit=budget)
        for gops in (1, 2, 60):
            predicted, actual, uploaded = random_sessions(rng, 4, gops)
            reports = score_sessions(tiles_of(predicted), uploaded, tiles_of(actual), cfg)
            pairs = []
            for i, report in enumerate(reports):
                want, records = reference_qoe(predicted[i], actual[i], uploaded[i], cfg)
                pairs += [(report, want), (qoe_score(records), want)]
            if gops >= 3:   # the shortest SessionTrace
                # One session of (1, GoPs) arrays, scored from a trace's rows.
                trace = SessionTrace(0, 0, actual[0])
                one, = score_sessions(tiles_of(predicted[0])[None], uploaded[0][None],
                                      tiles_of(trace.actual)[None], cfg)
                want, _ = reference_qoe(predicted[0], trace.actual, uploaded[0], cfg)
                pairs.append((one, want))
            for got, want in pairs:
                for name in ("qoe", "fov_coverage", "mean_fov_quality", "quality_variation",
                             "stall_fraction"):
                    assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                               rel=1e-12, abs=1e-12)
                seen.add((got.fov_coverage == 1.0, got.stall_fraction > 0.0))
    # Fully covered and stall-free, partly covered, and under-provisioned
    # (covered yet stalled) sessions all occurred.
    assert seen >= {(True, False), (False, True), (True, True)}


# ------------------------------------------------------------ session runs


def test_simulate_perfect_predictor_no_policy():
    report, app = simulate_session(
        perfect_trace(), NoObfuscation(), SessionConfig(), EPS, np.random.default_rng(0)
    )
    assert np.mean(app.per_gop_leakage) == 1.0
    assert np.all(app.uploaded == 0.0)
    assert report.qoe == pytest.approx(5.0, abs=1e-12)


def test_simulate_bpea_zero_requirement_leaks_nothing():
    report, app = simulate_session(
        walking_trace(), BpeaPolicy(q=0.0), SessionConfig(), EPS, np.random.default_rng(0)
    )
    assert np.mean(app.per_gop_leakage) == 0.0
    assert np.all(app.per_gop_leakage == 0.0)


def test_simulate_bpea_vacuous_requirement_equals_no_policy():
    trace = walking_trace()
    base_report, base = simulate_session(
        trace, NoObfuscation(), SessionConfig(), EPS, np.random.default_rng(0))
    noisy_report, noisy = simulate_session(
        trace, BpeaPolicy(q=1.0), SessionConfig(), EPS, np.random.default_rng(0))
    assert noisy_report == base_report
    assert noisy.mean_error_rad == base.mean_error_rad
    assert noisy.mean_abs_noise_rad == 0.0
    assert np.array_equal(noisy.uploaded, base.uploaded)


def test_simulate_gaussian_policy_inflates_errors():
    trace = walking_trace(gops=40)
    _, base = simulate_session(
        trace, NoObfuscation(), SessionConfig(), EPS, np.random.default_rng(1))
    _, noisy = simulate_session(
        trace, NoiseScale(GAUSSIAN_KIND, 2.0), SessionConfig(), EPS, np.random.default_rng(1)
    )
    assert noisy.mean_error_rad > base.mean_error_rad
    assert noisy.mean_abs_noise_rad == 0.0


def test_apply_policy_matches_simulate_session_pipeline():
    trace = walking_trace()
    cfg = SessionConfig()
    app = apply_policy(trace, BpeaPolicy(q=0.2), EPS, np.random.default_rng(3))
    report, outcome = simulate_session(
        trace, BpeaPolicy(q=0.2), cfg, EPS, np.random.default_rng(3)
    )
    assert np.array_equal(app.per_gop_leakage, outcome.per_gop_leakage)
    assert np.array_equal(app.uploaded, outcome.uploaded)
    assert app.mean_error_rad == outcome.mean_error_rad
    assert report == score_sessions(tiles_of(app.predicted)[None], app.uploaded[None],
                                    tiles_of(trace.actual)[None], cfg)[0]


def test_under_provisioned_budget_stalls_every_gop():
    report, _ = simulate_session(
        perfect_trace(), NoObfuscation(), SessionConfig(budget_mbit=5.0), EPS,
        np.random.default_rng(0),
    )
    assert report.stall_fraction == 1.0
    assert report.fov_coverage < 1.0


def test_allocation_dataclass_shape():
    alloc = Allocation(quality={}, under_provisioned=True)
    assert alloc.under_provisioned


def range_block_tiles(center, shape):
    """``block_tiles`` built from row and column ranges: rows clamped at the
    poles (every row for a shape as tall as the grid), columns from
    ``-(cols // 2)`` to ``cols // 2`` around the centre, wrapped at the seam."""
    rows, cols = shape
    r, c = center
    if rows >= TILE_ROWS:
        row_range = range(TILE_ROWS)
    else:
        row_range = range(max(0, r - rows // 2), min(TILE_ROWS, r + rows // 2 + 1))
    if cols >= TILE_COLS:
        col_range = [(c + d) % TILE_COLS for d in range(TILE_COLS)]
    else:
        col_range = [(c + d) % TILE_COLS for d in range(-(cols // 2), cols // 2 + 1)]
    return frozenset((rr, cc) for rr in row_range for cc in col_range)


def test_zones_keep_their_tiles_and_iteration_order():
    # _qoe_tables sums each FoV's qualities in fov_tiles' iteration order, so a
    # block with the same tiles in another order can move a QoE in its last bit.
    shapes = {FOV_SHAPE, *ZONE_SHAPES,
              *((rows, cols) for rows in range(2, 6) for cols in range(1, 10))}
    for center in _TILES:
        for shape in shapes:
            want, got = range_block_tiles(center, shape), block_tiles(center, shape)
            assert got == want and list(got) == list(want), (center, shape)
