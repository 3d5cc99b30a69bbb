import functools
import math
from itertools import accumulate

import numpy as np
import pytest

from viewpriv.harness import ExperimentConfig, generate_trace_set
from viewpriv.baselines import GAUSSIAN_KIND, NoiseScale
from viewpriv.policies import BpeaPolicy, NoObfuscation
from viewpriv.streaming import (
    DEFAULT_BUDGET_MBIT,
    FOV_SHAPE,
    GOP_SECONDS,
    HIGH_MBPS,
    LOW_MBPS,
    GopRecord,
    QOE_WEIGHTS,
    QoEReport,
    TILE_COLS,
    TILE_ROWS,
    Tile,
    ZONE_SHAPES,
    _BUDGET_SLACK,
    _TILES,
    _qoe_tables,
    allocate_quality,
    apply_policy,
    block_tiles,
    check_budget,
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
# A streamed tile's quality is its rate over HIGH_MBPS.
LOW, HIGH = LOW_MBPS / HIGH_MBPS, HIGH_MBPS / HIGH_MBPS
RATE = {LOW: LOW_MBPS, HIGH: HIGH_MBPS}


def spent_mbit(quality):
    """What an allocation's quality map costs over one GoP."""
    return sum(RATE[q] for q in quality.values()) * GOP_SECONDS


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
        allocate_quality((1, 1), (2, 2), DEFAULT_BUDGET_MBIT)


# ----------------------------------------------------------------- allocation


def test_allocation_exact_low_budget_means_no_upgrades():
    quality, under = allocate_quality((1, 4), (3, 5), 15 * 1.8)
    assert not under
    assert len(quality) == 15
    assert all(q == LOW for q in quality.values())


def test_allocation_default_budget_fills_pfov_high():
    # 9 pFoV tiles at the top rate plus 23 low tiles exactly consume the
    # default per-GoP budget.
    quality, under = allocate_quality((1, 4), (4, 8), DEFAULT_BUDGET_MBIT)
    assert not under
    highs = [t for t, q in quality.items() if q == HIGH]
    lows = [t for t, q in quality.items() if q == LOW]
    assert sorted(highs) == sorted(fov_tiles((1, 4)))
    assert len(lows) == 23
    assert spent_mbit(quality) == pytest.approx(95.4, abs=1e-9)


def test_allocation_zero_budget_under_provisions():
    quality, under = allocate_quality((1, 4), (3, 3), 0.0)
    assert under
    assert quality == {}


def test_allocation_extends_outside_zone():
    zone = block_tiles((1, 4), (3, 3))
    quality, _ = allocate_quality((1, 4), (3, 3), 95.4)
    outside = [t for t in quality if t not in zone]
    assert outside and all(quality[t] == HIGH for t in outside)


def test_budget_conservation_exhaustive():
    # Every reachable (center, shape) pair at several budgets.
    for budget in (0.0, 10.0, 30.0, 57.6, 95.4, 200.0, 1000.0):
        for r in range(TILE_ROWS):
            for c in range(TILE_COLS):
                for shape in ZONE_SHAPES:
                    quality, _ = allocate_quality((r, c), shape, budget)
                    assert spent_mbit(quality) <= budget + 1e-9


def test_allocation_order_prefers_pfov_center():
    budget = 15 * 1.8 + 4.2  # room for exactly one upgrade
    quality, _ = allocate_quality((2, 2), (3, 5), budget)
    highs = [t for t, q in quality.items() if q == HIGH]
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


@functools.lru_cache(maxsize=None)
def _greedy_passes(center: Tile, shape: tuple[int, int]) -> tuple:
    """The tiles of each greedy pass in its order, which no budget changes:
    the zone, the upgrade tiers (pFoV center, rest of the pFoV, rest of the
    zone) and the tiles outside the zone."""
    zone, pfov, order = block_tiles(center, shape), fov_tiles(center), _ring_key(center)
    tiers = [
        [center],
        sorted(pfov - {center}, key=order),
        sorted(zone - pfov, key=order),
    ]
    return (sorted(zone, key=order), tiers,
            sorted((x for x in _TILES if x not in zone), key=order))


def greedy_allocate_quality(center: Tile, shape: tuple[int, int], budget: float) -> tuple[dict, bool]:
    """(quality, under_provisioned) for one GoP under the bitrate budget: the
    zone of ``shape`` and the pFoV are both the blocks around the pFoV center tile."""
    if shape not in ZONE_SHAPES:
        raise ValueError(f"zone shape {shape} is outside the feasible set {ZONE_SHAPES}")
    zone, tiers, outside = _greedy_passes(center, shape)
    quality: dict = {}
    spent = 0.0
    under = False

    low_cost = LOW_MBPS * GOP_SECONDS
    for tile in zone:
        if spent + low_cost <= budget + _BUDGET_SLACK:
            quality[tile] = LOW
            spent += low_cost
        else:
            under = True
    if under:
        return quality, True

    upgrade_cost = (HIGH_MBPS - LOW_MBPS) * GOP_SECONDS
    for tier in tiers:
        for tile in tier:
            if spent + upgrade_cost <= budget + _BUDGET_SLACK:
                quality[tile] = HIGH
                spent += upgrade_cost

    add_cost = HIGH_MBPS * GOP_SECONDS
    for tile in outside:
        if spent + add_cost <= budget + _BUDGET_SLACK:
            quality[tile] = HIGH
            spent += add_cost
    return quality, False


def phase_boundary_budgets(zone_size: int) -> list[float]:
    """Budgets at every running spend of a zone of ``zone_size`` tiles: each
    sum itself, and the budget whose allowance (budget + slack) reaches it,
    each with its neighbours one ulp either side."""
    costs = ([LOW_MBPS] * zone_size + [HIGH_MBPS - LOW_MBPS] * zone_size
             + [HIGH_MBPS] * (TILE_ROWS * TILE_COLS - zone_size))
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
                grids[size] = phase_boundary_budgets(size) + fixed
            for budget in grids[size]:
                got, got_under = allocate_quality(center, shape, budget)
                want, want_under = greedy_allocate_quality(center, shape, budget)
                assert list(got.items()) == list(want.items()), (center, shape, budget)
                assert got_under == want_under, (center, shape, budget)
    assert sorted(grids) == [6, 9, 10, 14, 15, 21, 28, 32]


def greedy_tables(budget):
    """``_qoe_tables``' arrays from the greedy maps, each FoV's terms summed
    tile by tile, left to right in ``fov_tiles`` order: quality of each tile,
    FoV mean quality, FoV tiles streamed, FoV size and stalled."""
    count, shapes = len(_TILES), len(ZONE_SHAPES)
    quality = np.zeros((count, shapes, count))
    under = np.zeros((count, shapes, 1), dtype=bool)
    for p, center in enumerate(_TILES):
        for z, shape in enumerate(ZONE_SHAPES):
            streamed, under[p, z] = greedy_allocate_quality(center, shape, budget)
            for (r, c), q in streamed.items():
                quality[p, z, r * TILE_COLS + c] = q
    fovs = [[r * TILE_COLS + c for r, c in fov_tiles(center)] for center in _TILES]
    fov_sum, covered, size = (np.zeros((count, shapes, count), dtype) for dtype in (float, int, int))
    for k in range(max(map(len, fovs))):   # the k-th tile of every FoV that has one
        has = np.array([k < len(fov) for fov in fovs])
        term = quality[:, :, [fov[k] if k < len(fov) else 0 for fov in fovs]][:, :, has]
        fov_sum[:, :, has] += term
        covered[:, :, has] += term > 0.0
        size[:, :, has] += 1
    return quality, fov_sum / size, covered, size, under | (covered < size)


def test_tables_match_the_greedy_tables_bit_for_bit():
    # The scorer test compares QoE to 1e-12; here every table is the greedy
    # reference's, to the bit, at every phase boundary of every zone size, so
    # a quality computed, written or summed another way fails.
    sizes = {len(block_tiles(center, shape)) for center in _TILES for shape in ZONE_SHAPES}
    budgets = {0.0, DEFAULT_BUDGET_MBIT, 1000.0, math.inf}
    budgets.update(*map(phase_boundary_budgets, sizes))
    for budget in sorted(budgets):
        got, want = _qoe_tables(budget), greedy_tables(budget)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), budget


# ------------------------------------------------------------------ QoE score


def _static_records(gops, quality, center=(1, 1), under=False):
    return [GopRecord(center, dict(quality), under) for _ in range(gops)]


def test_qoe_everything_high_no_stalls_is_five():
    fov = fov_tiles((1, 1))
    quality = {t: HIGH for t in fov}
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
    quality = {t: (HIGH if i < 4 or t == center else LOW) for i, t in enumerate(fov)}
    highs = sum(1 for q in quality.values() if q == HIGH)
    report = qoe_score(_static_records(4, quality, center))
    fov_mean = (highs * 1.0 + (9 - highs) * 0.3) / 9.0
    expected = 1.0 + 4.0 * (0.4 * 1.0 + 0.3 * fov_mean + 0.15 + 0.15)
    assert report.qoe == pytest.approx(expected, abs=1e-12)
    assert report.qoe == pytest.approx(4.626666666666667, abs=1e-12)


def test_qoe_missing_fov_tile_reduces_coverage_and_stalls():
    fov = sorted(fov_tiles((1, 1)))
    quality = {t: HIGH for t in fov[:-1]}
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
                t: rng.choice([LOW, 2.7 / HIGH_MBPS, HIGH])
                for t in fov
                if rng.random() > 0.3
            }
            records.append(GopRecord((2, 3), quality, rng.random() < 0.1))
        report = qoe_score(records)
        assert 1.0 <= report.qoe <= 5.0


def test_qoe_rejects_empty_session():
    with pytest.raises(ValueError):
        qoe_score([])


def test_budget_validation():
    check_budget(0.0)
    check_budget(math.inf)
    for budget in (-1.0, math.nan):
        with pytest.raises(ValueError, match=f"budget must be non-negative, got {budget!r}"):
            check_budget(budget)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            allocate_quality((1, 1), (3, 3), budget)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            score_sessions(np.zeros((1, 3), int), np.zeros((1, 3)), np.zeros((1, 3), int), budget)


def test_zone_inflation_never_helps_under_fixed_budget():
    # FoV equals pFoV; growing the zone only spreads the budget thinner.
    center = (1, 1)
    scores = []
    for shape in ZONE_SHAPES:
        quality, under = allocate_quality(center, shape, 60.0)
        records = [GopRecord(center, quality, under) for _ in range(5)]
        scores.append(qoe_score(records).qoe)
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


def reference_qoe(predicted, actual, uploaded, budget):
    """Per-GoP scoring loop over allocate_quality's dict quality maps, in
    plain Python arithmetic: the reference for the table-driven scorer.
    Returns the report and the session's GopRecords."""
    central, fov_means, stalled, records = [], [], [], []
    covered_pairs = total_pairs = 0
    for p, a, e in zip(predicted, actual, uploaded):
        pcenter, acenter = tile_of(p), tile_of(a)
        level, under = allocate_quality(pcenter, zone_from_error(float(e)), budget)
        fov = fov_tiles(acenter)
        central.append(level.get(acenter, 0.0))
        fov_means.append(sum([level.get(t, 0.0) for t in fov]) / len(fov))
        covered = sum(1 for t in fov if t in level)
        covered_pairs += covered
        total_pairs += len(fov)
        stalled.append(under or covered < len(fov))
        records.append(GopRecord(acenter, level, under))
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
        for gops in (1, 2, 60):
            predicted, actual, uploaded = random_sessions(rng, 4, gops)
            reports = score_sessions(tiles_of(predicted), uploaded, tiles_of(actual), budget)
            pairs = []
            for i, report in enumerate(reports):
                want, records = reference_qoe(predicted[i], actual[i], uploaded[i], budget)
                pairs += [(report, want), (qoe_score(records), want)]
            if gops >= 3:   # the shortest SessionTrace
                # One session of (1, GoPs) arrays, scored from a trace's rows.
                trace = SessionTrace(0, 0, actual[0])
                one, = score_sessions(tiles_of(predicted[0])[None], uploaded[0][None],
                                      tiles_of(trace.actual)[None], budget)
                want, _ = reference_qoe(predicted[0], trace.actual, uploaded[0], budget)
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
        perfect_trace(), NoObfuscation(), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(0)
    )
    assert np.mean(app.per_gop_leakage) == 1.0
    assert np.all(app.uploaded == 0.0)
    assert report.qoe == pytest.approx(5.0, abs=1e-12)


def test_simulate_bpea_zero_requirement_leaks_nothing():
    report, app = simulate_session(
        walking_trace(), BpeaPolicy(q=0.0), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(0)
    )
    assert np.mean(app.per_gop_leakage) == 0.0
    assert np.all(app.per_gop_leakage == 0.0)


def test_simulate_bpea_vacuous_requirement_equals_no_policy():
    trace = walking_trace()
    base_report, base = simulate_session(
        trace, NoObfuscation(), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(0))
    noisy_report, noisy = simulate_session(
        trace, BpeaPolicy(q=1.0), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(0))
    assert noisy_report == base_report
    assert noisy.mean_error_rad == base.mean_error_rad
    assert noisy.mean_abs_noise_rad == 0.0
    assert np.array_equal(noisy.uploaded, base.uploaded)


def test_simulate_gaussian_policy_inflates_errors():
    trace = walking_trace(gops=40)
    _, base = simulate_session(
        trace, NoObfuscation(), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(1))
    _, noisy = simulate_session(
        trace, NoiseScale(GAUSSIAN_KIND, 2.0), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(1)
    )
    assert noisy.mean_error_rad > base.mean_error_rad
    assert noisy.mean_abs_noise_rad == 0.0


def test_apply_policy_matches_simulate_session_pipeline():
    trace = walking_trace()
    app = apply_policy(trace, BpeaPolicy(q=0.2), EPS, np.random.default_rng(3))
    report, outcome = simulate_session(
        trace, BpeaPolicy(q=0.2), DEFAULT_BUDGET_MBIT, EPS, np.random.default_rng(3)
    )
    assert np.array_equal(app.per_gop_leakage, outcome.per_gop_leakage)
    assert np.array_equal(app.uploaded, outcome.uploaded)
    assert app.mean_error_rad == outcome.mean_error_rad
    assert report == score_sessions(tiles_of(app.predicted)[None], app.uploaded[None],
                                    tiles_of(trace.actual)[None], DEFAULT_BUDGET_MBIT)[0]


def test_under_provisioned_budget_stalls_every_gop():
    report, _ = simulate_session(
        perfect_trace(), NoObfuscation(), 5.0, EPS,
        np.random.default_rng(0),
    )
    assert report.stall_fraction == 1.0
    assert report.fov_coverage < 1.0


def test_allocation_is_a_quality_map_and_an_under_provisioned_flag():
    quality, under = allocate_quality((1, 4), (3, 3), 0.0)
    assert type(quality) is dict and type(under) is bool
    assert under


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
