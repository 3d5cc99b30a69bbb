import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from viewpriv.baselines import (
    DEFAULT_SEARCH_STEP,
    CalibrationResult,
    GAUSSIAN_KIND,
    LAPLACE_KIND,
    NoiseScale,
    SCAN_BLOCK_ERRORS,
    SEARCH_MAX,
    calibrate_noise_scale,
    calibrate_noise_scales,
    perturb_rows,
    perturb_traces,
    pspr,
)
from viewpriv.bpea import conditional_leakage_noisy, optimal_noise_batch
from viewpriv.leakage import conditional_leakage, leakage_sample_mean, optimal_error_distribution
from viewpriv.sphere import SpherePoint, unit_rows
from viewpriv.traces import prediction_errors

EPS = 0.1 * math.pi
FLOOR = optimal_error_distribution(EPS)[1]


def test_noise_scale_validation():
    # A kind is its baseline policy's name, and no other spelling is accepted.
    for kind in ("unknown", "gaussian_sigma", "laplace_b"):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseScale(kind, 1.0)
    assert (GAUSSIAN_KIND, LAPLACE_KIND) == ("gaussian", "laplace") == tuple(SEARCH_MAX)
    # A bad scale fails at construction, before any policy is applied.
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        for value in (-0.5, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise scale must be non-negative"):
                NoiseScale(kind, value)


def test_zero_scale_is_identity():
    rows = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        assert np.array_equal(perturb_rows(rows, kind, 0.0, np.random.default_rng(0)), rows)


def test_search_range_extremes_stay_on_sphere():
    rows = np.array([[0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        out = perturb_rows(rows, kind, SEARCH_MAX[kind], np.random.default_rng(1))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_gaussian_displacement_matches_independent_replica():
    # Same process written out by hand with a distinct seed; means agree to
    # Monte-Carlo accuracy.
    ref = SpherePoint(0.31, -0.52, 0.8)
    base = np.tile(ref.as_array(), (100_000, 1))
    disp = prediction_errors(perturb_rows(base, GAUSSIAN_KIND, 1.0, np.random.default_rng(5)),
                             ref.as_array())
    replica = base + np.random.default_rng(999).normal(0.0, 1.0, base.shape)
    replica /= np.linalg.norm(replica, axis=1)[:, None]
    disp_replica = np.arctan2(
        np.linalg.norm(np.cross(replica, ref.as_array()), axis=1), replica @ ref.as_array()
    )
    se = disp_replica.std() / math.sqrt(len(disp_replica))
    assert abs(disp.mean() - disp_replica.mean()) <= 6.0 * se


def test_laplace_tails_heavier_than_matched_gaussian():
    # Scales matched to equal coordinate variance; compared well below the
    # spherical saturation region where tails are still visible.
    ref = SpherePoint(0.31, -0.52, 0.8).as_array()
    base = np.tile(ref, (100_000, 1))
    b = 0.25
    lap = prediction_errors(perturb_rows(base, LAPLACE_KIND, b, np.random.default_rng(6)), ref)
    gau = prediction_errors(
        perturb_rows(base, GAUSSIAN_KIND, math.sqrt(2.0) * b, np.random.default_rng(7)), ref
    )
    assert np.quantile(lap, 0.99) > np.quantile(gau, 0.99)


def test_laplace_leakage_depends_on_where_the_viewpoint_points():
    # Laplace noise on x, y and z is not isotropic: the same history point
    # leaks more on an axis than on a body diagonal. Gaussian noise is
    # isotropic, so its leakage does not move. The noisy history point is
    # the prediction; the actual viewpoint sits 0.3 rad from the clean one.
    rng, trials = np.random.default_rng(19), 400_000

    def leakage(kind, scale, history, tangent):
        h, t = unit_rows([history, tangent])
        noisy = perturb_traces(np.broadcast_to(h, (1, trials, 3)), kind, scale, [rng])[0]
        actual = math.cos(0.3) * h + math.sin(0.3) * t
        values = conditional_leakage(prediction_errors(noisy, actual), EPS)
        return values.mean(), values.std() / math.sqrt(trials)

    for kind, scale, least, most in ((LAPLACE_KIND, 3.0, 10.0, math.inf),
                                     (LAPLACE_KIND, 0.7, 10.0, math.inf),
                                     (GAUSSIAN_KIND, 3.0, -4.0, 4.0)):
        (axis, axis_se), (diagonal, diagonal_se) = (leakage(kind, scale, [0, 0, 1], [1, 0, 0]),
                                                    leakage(kind, scale, [1, 1, 1], [1, -1, 0]))
        gap = (axis - diagonal) / math.hypot(axis_se, diagonal_se)   # in standard errors
        assert least < gap < most, (kind, scale, axis, diagonal, gap)


class ScriptedRng:
    """Stand-in for a Generator: records the size of every draw and, per
    scripted draw, replaces entries {position: row} with -points[row], so
    that those perturbed rows come out exactly zero."""

    def __init__(self, points, script, seed):
        self.points, self.script, self.sizes = points, list(script), []
        self.rng = np.random.default_rng(seed)

    def normal(self, loc, scale, size):
        self.sizes.append(tuple(size))
        drawn = self.rng.normal(loc, scale, size)
        for position, row in (self.script.pop(0) if self.script else {}).items():
            drawn[position] = -self.points[row]
        return drawn

    laplace = normal


def two_norm_perturb_traces(points, kind, value, rngs):
    """``perturb_traces`` as it computed the row norms twice, once for the
    zero-row check and again in ``unit_rows``, at one scale for every trace:
    the bit-for-bit reference."""
    draws = [rng.normal if kind == GAUSSIAN_KIND else rng.laplace for rng in rngs]
    noisy = np.stack([draw(0.0, value, size=points.shape[1:]) for draw in draws])
    noisy += points
    return unit_rows(noisy.reshape(-1, 3)).reshape(noisy.shape)


def per_slab_reference(points, kind, values, rngs):
    """A block of traces at one scale each, one trace at a time: unchanged at
    scale 0, else ``two_norm_perturb_traces`` of that trace alone."""
    return np.stack([p.copy() if value == 0.0 else
                     two_norm_perturb_traces(p[None], kind, value, [rng])[0]
                     for p, value, rng in zip(points, values, rngs)])


def test_a_zero_norm_row_raises_and_a_trace_at_scale_0_draws_nothing():
    points = unit_rows(np.random.default_rng(11).normal(size=(18, 3))).reshape(3, 6, 3)
    # Trace 0 zeroes rows 1 and 4 on its first draw. Traces 1 and 2 draw honestly.
    scripts = [[{1: 1, 4: 4}], [], []]

    def rngs():
        return [ScriptedRng(p, script, seed)
                for seed, (p, script) in enumerate(zip(points, scripts))]

    zero = "a row was perturbed to \\(numerically\\) zero"
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        # A zero row raises, in a block and alone, after one draw per trace: nothing is redrawn.
        block_rngs = rngs()
        with pytest.raises(ValueError, match=zero):
            perturb_traces(points, kind, 0.7, block_rngs)
        assert [r.sizes for r in block_rngs] == [[(6, 3)]] * 3
        lone_rngs = rngs()[:1]
        with pytest.raises(ValueError, match=zero):
            perturb_traces(points[:1], kind, 0.7, lone_rngs)
        assert lone_rngs[0].sizes == [(6, 3)]
        with pytest.raises(ValueError, match=zero):
            perturb_rows(points[0], kind, 0.7, rngs()[0])
        honest = perturb_traces(points[1:], kind, 0.7, rngs()[1:])
        assert np.array_equal(honest, two_norm_perturb_traces(points[1:], kind, 0.7, rngs()[1:]))
        assert np.allclose(np.linalg.norm(honest, axis=-1), 1.0, rtol=0.0, atol=1e-12)
        # One scale per trace: trace 0 at scale 0 draws nothing, so its scripted
        # zero rows never appear, and comes back unchanged, not renormalised:
        # its zero row and its row of norm 2 stay. Traces 1 and 2 perturb at
        # their own scales.
        held = points.copy()
        held[0, 2], held[0, 3] = 0.0, 2.0 * points[0, 3]
        values = [0.0, 0.7, 1.9]
        block_rngs = rngs()
        block = perturb_traces(held, kind, values, block_rngs)
        assert [r.sizes for r in block_rngs] == [[], [(6, 3)], [(6, 3)]]
        assert np.array_equal(block[0], held[0])
        assert np.array_equal(block, [perturb_rows(p, kind, value, r)
                                      for p, value, r in zip(held, values, rngs())])
        assert np.array_equal(block, per_slab_reference(held, kind, values, rngs()))
        assert np.array_equal(perturb_traces(held, kind, [0.0] * 3, rngs()), held)
    with pytest.raises(ValueError, match="one RNG per trace"):
        perturb_traces(points, GAUSSIAN_KIND, 0.7, rngs()[:1])
    with pytest.raises(ValueError, match="one RNG per trace"):
        perturb_rows(points, GAUSSIAN_KIND, 0.7, rngs()[0])
    for values in ([0.7, 0.7], [[0.7, 0.7, 0.7]]):
        with pytest.raises(ValueError, match="one scale or one per trace"):
            perturb_traces(points, GAUSSIAN_KIND, values, rngs())
    for bad in (-0.5, math.nan, math.inf):   # any trace's bad scale is named
        with pytest.raises(ValueError, match="noise scale must be non-negative"):
            perturb_traces(points, GAUSSIAN_KIND, [0.7, bad, 0.0], rngs())


def test_perturbation_matches_the_two_norm_reference():
    rng = np.random.default_rng(12)
    for traces in (1, 4):
        points = unit_rows(rng.normal(size=(traces * 50, 3))).reshape(traces, 50, 3)
        for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
            for value in (1e-3, 0.4, SEARCH_MAX[kind]):
                seeds = range(traces)
                out = perturb_traces(points, kind, value,
                                     [np.random.default_rng(s) for s in seeds])
                assert np.array_equal(out, two_norm_perturb_traces(
                    points, kind, value, [np.random.default_rng(s) for s in seeds]))
    # A block with one scale per trace, one of them 0, is bit-equal to each
    # trace perturbed alone at its scale.
    points = unit_rows(rng.normal(size=(4 * 50, 3))).reshape(4, 50, 3)
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        values = [1e-3, 0.0, 0.4, SEARCH_MAX[kind]]
        out = perturb_traces(points, kind, np.array(values),
                             [np.random.default_rng(s) for s in range(4)])
        assert np.array_equal(out, per_slab_reference(
            points, kind, values, [np.random.default_rng(s) for s in range(4)]))
        assert np.array_equal(out, [perturb_rows(p, kind, value, np.random.default_rng(s))
                                    for s, (p, value) in enumerate(zip(points, values))])
        # The training rows of a calibration block, broadcast, not copied.
        shared = np.broadcast_to(points[0], points.shape)
        out = perturb_traces(shared, kind, values, [np.random.default_rng(s) for s in range(4)])
        assert np.array_equal(out, [perturb_rows(points[0], kind, value, np.random.default_rng(s))
                                    for s, value in enumerate(values)])
    # A non-finite coordinate gives a non-finite norm, and is rejected.
    for bad in (math.nan, math.inf):
        points = np.array([[[1.0, 0.0, 0.0], [0.0, bad, 0.0]]])
        with pytest.raises(ValueError, match="finite"):
            perturb_traces(points, GAUSSIAN_KIND, 0.3, [np.random.default_rng(0)])


def test_overflowing_scale_is_named_apart_from_bad_rows():
    # Finite rows at a finite scale whose squared row norms overflow: the
    # error names the scale. A non-finite row at that scale still names the rows.
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"scale 1e\+200 is too"):
            perturb_rows(np.array([[1.0, 0.0, 0.0]]), kind, 1e200, np.random.default_rng(0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="rows must be finite"):
            perturb_rows(np.array([[1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]), kind, 1e200,
                         np.random.default_rng(0))
        # A large scale whose squares stay finite still perturbs.
        out = perturb_rows(np.array([[1.0, 0.0, 0.0]]), kind, 1e150, np.random.default_rng(0))
        assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, rtol=0.0, atol=1e-12)
        # In a block only the second trace overflows, and the error names its scale.
        block = np.broadcast_to([[1.0, 0.0, 0.0]], (4, 1, 3))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"scale 1e\+200 is too"):
            perturb_traces(block, kind, [0.3, 1e200, 1e150, 0.0],
                           [np.random.default_rng(s) for s in range(4)])


class RecordingPipeline:
    """Deterministic synthetic error pipeline: noise scale shifts the error
    distribution toward the half-turn leakage floor. ``calls`` lists every
    scale evaluated, ``indices`` their scan indices, ``blocks`` the number of
    scales per call."""

    def __init__(self, seed=0, floor=0.5 * math.pi, start=0.1):
        rng = np.random.default_rng(seed)
        self.base = rng.uniform(0.05, start, 4_000)
        self.floor = floor
        self.calls, self.indices, self.blocks = [], [], []

    def __call__(self, indices, scales):
        self.calls += scales.tolist()
        self.indices += indices.tolist()
        self.blocks.append(len(scales))
        return np.stack([self.errors(scale) for scale in scales.tolist()])

    def errors(self, scale):
        frac = min(scale / 4.0, 1.0)
        return self.base + frac * (self.floor - self.base)


def test_calibration_trivial_requirement():
    pipeline = RecordingPipeline()
    result = calibrate_noise_scale(pipeline, EPS, 1.0, GAUSSIAN_KIND)
    assert result.feasible and result.scale.value == 0.0
    assert result.search_evals == 1


def test_calibration_below_floor_is_infeasible():
    # Conditional leakage is floored at eps/pi pointwise, so q below the
    # floor is unreachable for any error distribution and either kind.
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        pipeline = RecordingPipeline()
        result = calibrate_noise_scale(pipeline, EPS, 0.05, kind)
        assert not result.feasible
        assert result.achieved_leakage > 0.05
        assert isinstance(result.scale, NoiseScale) and result.scale.kind == kind
        assert result.search_evals == len(pipeline.calls)


def test_calibration_finds_minimal_scale_and_replays():
    pipeline = RecordingPipeline()
    q = 0.5
    result = calibrate_noise_scale(pipeline, EPS, q, GAUSSIAN_KIND, step=0.05)
    assert result.feasible
    replay = leakage_sample_mean(pipeline.errors(result.scale.value), EPS)
    assert replay == result.achieved_leakage
    assert replay <= q
    # Minimality up to one step: the previous scanned scale exceeds q.
    previous = result.scale.value - 0.05
    assert previous < 0 or leakage_sample_mean(pipeline.errors(previous), EPS) > q


def test_calibration_validates_arguments():
    pipeline = RecordingPipeline()
    for q in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            calibrate_noise_scale(pipeline, EPS, q, GAUSSIAN_KIND)
    for step in (0.0, -0.05, math.nan, math.inf):
        with pytest.raises(ValueError, match="search step must be positive"):
            calibrate_noise_scale(pipeline, EPS, 0.5, GAUSSIAN_KIND, step=step)
    with pytest.raises(ValueError):
        calibrate_noise_scales(pipeline, EPS, (), GAUSSIAN_KIND)
    with pytest.raises(ValueError):
        calibrate_noise_scales(pipeline, EPS, (0.5, 1.5), GAUSSIAN_KIND)
    assert pipeline.calls == []
    with pytest.raises(ValueError, match="one non-empty row of errors per scale"):
        calibrate_noise_scale(lambda i, s: np.empty((len(s), 0)), EPS, 0.5, GAUSSIAN_KIND)
    # One row of errors per scale, for the first call and for every block.
    for bad in (lambda i, s: np.full(5, 1.0), lambda i, s: np.full((len(s) + 1, 5), 1.0)):
        with pytest.raises(ValueError, match="one non-empty row of errors per scale"):
            calibrate_noise_scale(bad, EPS, 0.5, GAUSSIAN_KIND)
    with pytest.raises(ValueError, match="one non-empty row of errors per scale"):
        calibrate_noise_scale(lambda i, s: np.full((1, 5), 1.0), EPS, 0.0, GAUSSIAN_KIND)
    with pytest.raises(ValueError, match="unknown noise kind"):
        calibrate_noise_scale(pipeline, EPS, 0.5, "bogus")


def reference_scan(pipeline, eps, q, kind, step):
    """The forward scan of one requirement, as calibration ran it before one
    scan served a whole grid: the reference for ``calibrate_noise_scales``."""
    search_max = SEARCH_MAX[kind]
    best_scale, best_leak, evals = None, math.inf, 0
    for i in range(int(math.floor(search_max / step + 1e-9)) + 1):
        scale = min(i * step, search_max)
        leak = leakage_sample_mean(pipeline.errors(scale), eps)
        evals += 1
        if leak < best_leak:
            best_scale, best_leak = scale, leak
        if leak <= q:
            return CalibrationResult(NoiseScale(kind, scale), leak, evals, feasible=True)
    return CalibrationResult(NoiseScale(kind, best_scale), best_leak, evals, feasible=False)


class ProfilePipeline:
    """Errors that follow ``profile(scale)``: leakage is eps/(pi sin e) between
    eps and pi - eps, lowest at e = pi/2, so a profile crossing pi/2 makes the
    leakage dip and rise again, and one resting on pi/2 ties at the minimum."""

    def __init__(self, profile):
        self.profile = profile
        self.calls, self.indices, self.blocks = [], [], []

    def __call__(self, indices, scales):
        self.calls += scales.tolist()
        self.indices += indices.tolist()
        self.blocks.append(len(scales))
        return np.stack([self.errors(scale) for scale in scales.tolist()])

    def errors(self, scale):
        return np.full(3, min(max(self.profile(scale), 0.0), math.pi))


PROFILES = {
    "dip_then_rise": lambda s: 0.4 + 0.5 * s,
    "tied_minimum": lambda s: (min(0.3 + 0.6 * s, 0.5 * math.pi) if s <= 3.0
                               else 0.5 * math.pi + 0.5 * (s - 3.0)),
    "oscillating": lambda s: 0.5 * math.pi + 1.2 * math.sin(1.3 * s),
}

GRIDS = (
    (0.3, 0.0, 0.15, 1.0, 0.3, 0.11, 0.2),
    (0.25, 0.15, 0.25, 1.0),
    (0.5, 0.12),
    (1.0,),
    (0.0,),
)


def blocked_visits(stop, per_call, n_scales):
    """Scales a blocked scan evaluates when a scan of one scale per call
    would stop after ``stop``: scale 0 alone, then whole blocks of
    ``per_call`` up to the one holding scale ``stop - 1``, cut at the grid's end."""
    return min(1 + -(-(stop - 1) // per_call) * per_call, n_scales)


def test_one_scan_matches_a_scan_per_requirement():
    ties = past = 0
    for make in [RecordingPipeline] + [lambda p=p: ProfilePipeline(p) for p in PROFILES.values()]:
        for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
            for step in (0.05, 0.3, 2.0, 7.0):
                n_scales = int(math.floor(SEARCH_MAX[kind] / step + 1e-9)) + 1
                for grid in GRIDS:
                    pipeline = make()
                    results = calibrate_noise_scales(pipeline, EPS, grid, kind, step)
                    assert results == [reference_scan(make(), EPS, q, kind, step) for q in grid]
                    # Scale 0 alone, then blocks of the same size for every grid, in
                    # order, each scale once, ending with the block that holds the
                    # first scale meeting min(grid).
                    stop = reference_scan(make(), EPS, min(grid), kind, step).search_evals
                    per_call = max(1, SCAN_BLOCK_ERRORS // len(pipeline.errors(0.0)))
                    end = blocked_visits(stop, per_call, n_scales)
                    assert pipeline.indices == list(range(end))
                    assert pipeline.calls == [min(i * step, SEARCH_MAX[kind]) for i in range(end)]
                    assert pipeline.blocks == [1] + [min(per_call, end - i)
                                                     for i in range(1, end, per_call)]
                    leaks = [leakage_sample_mean(make().errors(s), EPS)
                             for s in pipeline.calls[:stop]]
                    ties += leaks.count(min(leaks)) > 1
                    past += end > stop
    assert ties   # the first-argmin fallback was exercised
    assert past   # and scales past the stopping one, in its block
    infeasible = calibrate_noise_scales(ProfilePipeline(PROFILES["tied_minimum"]), EPS,
                                        (0.0,), GAUSSIAN_KIND, 0.05)[0]
    assert not infeasible.feasible and infeasible.scale.value == pytest.approx(2.15)


def test_block_scan_is_the_same_at_and_below_the_floor():
    # The eps/pi floor does not choose the scan: a requirement at the floor
    # and one a hair below it both scan scale 0 alone, then blocks.
    n = len(RecordingPipeline().base)
    for q in (FLOOR, FLOOR * (1.0 - 1e-8)):
        pipeline = RecordingPipeline()
        result = calibrate_noise_scale(pipeline, EPS, q, GAUSSIAN_KIND)
        assert result == reference_scan(RecordingPipeline(), EPS, q, GAUSSIAN_KIND,
                                        DEFAULT_SEARCH_STEP)
        assert not result.feasible and len(pipeline.calls) == result.search_evals == 141
        assert pipeline.blocks == [1] + [SCAN_BLOCK_ERRORS // n] * 35
    # Sets larger than the budget go one scale per call.
    pipeline = RecordingPipeline()
    pipeline.base = np.tile(pipeline.base, SCAN_BLOCK_ERRORS // n + 1)
    calibrate_noise_scale(pipeline, EPS, 0.0, LAPLACE_KIND)
    assert pipeline.blocks == [1] * 121


def list_scan(error_pipeline, eps, q_grid, kind, step):
    """The blocked scan as it kept its leakages, one Python float per scale in
    a list, and looked each q up in it: the reference for the array scan."""
    qs, search_max = list(q_grid), SEARCH_MAX[kind]
    n_scales = int(math.floor(search_max / step + 1e-9)) + 1
    leaks, block, per_call = [], [], 1
    while len(leaks) < n_scales and not any(leak <= min(qs) for leak in block):
        indices = np.arange(len(leaks), min(len(leaks) + per_call, n_scales))
        errors = error_pipeline(indices, np.minimum(indices * step, search_max))
        block = conditional_leakage(errors, eps).mean(axis=-1).tolist()
        leaks += block
        per_call = max(1, SCAN_BLOCK_ERRORS // errors.shape[1])
    results = []
    for q in qs:
        meeting = [i for i, leak in enumerate(leaks) if leak <= q]
        i = meeting[0] if meeting else leaks.index(min(leaks))
        results.append(CalibrationResult(NoiseScale(kind, float(min(i * step, search_max))),
                                         leaks[i], i + 1 if meeting else len(leaks), bool(meeting)))
    return results


def test_tied_leakages_read_as_the_list_scan_reads_them():
    # Each scale's errors are one of four rows, so leakages tie exactly, and
    # the grids hold those leakages themselves as requirements.
    rows = np.random.default_rng(3).uniform(0.2, 2.9, (4, 5))
    pattern = np.random.default_rng(4).integers(0, len(rows), 8_000)
    pattern[0] = np.argmax(conditional_leakage(rows, EPS).mean(axis=-1))   # scale 0 meets no q < 1

    def pipeline(indices, scales):
        return rows[pattern[indices]]

    values = sorted(conditional_leakage(rows, EPS).mean(axis=-1).tolist())
    grids = ((values[0],), (values[1], 0.0), tuple(values), (values[2], 1.0, values[0]),
             (0.0, values[1] - 1e-12), (1.0,))
    for kind in (GAUSSIAN_KIND, LAPLACE_KIND):
        for step in (0.001, 0.05, 7.0):
            for grid in grids:
                results = calibrate_noise_scales(pipeline, EPS, grid, kind, step)
                expected = list_scan(pipeline, EPS, grid, kind, step)
                assert results == expected
                for got, want in zip(results, expected):
                    assert [type(v) for v in astuple(got)] == [type(v) for v in astuple(want)]
                    assert type(got.search_evals) is int and type(got.feasible) is bool


def test_an_infeasible_scan_holds_under_twelve_bytes_a_scale():
    # Leakages once lived in a list of Python floats, about 33 bytes a scale.
    n_scales = 2 ** 20
    step = SEARCH_MAX[GAUSSIAN_KIND] / (n_scales - 1)
    tracemalloc.start()
    try:
        result = calibrate_noise_scale(lambda i, s: np.full((len(s), 1), 1.0), EPS, 0.0,
                                       GAUSSIAN_KIND, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.feasible and result.search_evals == n_scales
    assert peak < 12 * n_scales, peak / n_scales


def test_pspr_counts():
    assert pspr([0.1, 0.2, 0.3], 0.5) == 1.0
    assert pspr([0.6, 0.7], 0.5) == 0.0
    assert pspr([0.05, 0.2, 0.4], 0.25) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        pspr([], 0.5)
    for q in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            pspr([0.1], q)


def test_noisy_error_policy_satisfies_every_trace():
    # Per-sample noisy uploads keep each trace's mean leakage under q, so
    # the satisfaction ratio is 1 for every requirement.
    rng = np.random.default_rng(8)
    traces = [rng.uniform(0.0, math.pi, 50) for _ in range(40)]
    for q in np.arange(0.0, 1.0001, 0.1):
        per_trace = []
        for errors in traces:
            noises = optimal_noise_batch(errors, EPS, float(q))
            per_trace.append(float(np.mean(conditional_leakage_noisy(errors, noises, EPS))))
        assert pspr(per_trace, float(q)) == 1.0


def test_calibration_result_fields():
    result = CalibrationResult(
        scale=NoiseScale(GAUSSIAN_KIND, 1.0),
        achieved_leakage=0.2,
        search_evals=21,
        feasible=True,
    )
    assert result.feasible and result.scale == NoiseScale(GAUSSIAN_KIND, 1.0)
