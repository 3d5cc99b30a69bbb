import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewpriv import baselines, cli, harness, policies
from viewpriv.baselines import NoiseScale
from viewpriv.harness import (
    ExperimentConfig,
    RESULTS_HEADER,
    default_q_grid,
    generate_trace_set,
    run_tradeoff_experiment,
    write_results,
)
from viewpriv.policies import BpeaPolicy, NoObfuscation
from viewpriv.streaming import (
    ZONE_SHAPES, apply_policy, score_sessions, tiles_of,
)
from viewpriv.leakage import leakage_sample_mean, optimal_error_distribution
from viewpriv.sphere import unit_rows
from viewpriv.traces import (
    MIN_CONCENTRATION, MIN_GOPS, SessionTrace, persistence_predict, prediction_errors,
)

SMALL = dict(
    num_users=3,
    num_videos=2,
    num_train_videos=2,
    gops_per_video=12,
    seed=5,
    q_grid=(0.0, 0.3, 1.0),
    calibration_step=1.0,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(eps=0.6 * math.pi)
    with pytest.raises(ValueError):
        ExperimentConfig(q_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        ExperimentConfig(q_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(policies=("bpea", "unknown"))
    with pytest.raises(ValueError, match=f"at least {MIN_GOPS} GoPs"):
        ExperimentConfig(gops_per_video=MIN_GOPS - 1)
    assert ExperimentConfig(gops_per_video=MIN_GOPS).gops_per_video == MIN_GOPS
    with pytest.raises(ValueError, match="need at least one policy"):
        ExperimentConfig(policies=())
    for name in ("num_users", "num_videos", "num_train_videos"):
        with pytest.raises(ValueError, match="need at least one user and one video per split"):
            ExperimentConfig(**{name: 0})
    for budget in (-1.0, math.nan):
        # Rejected even when no QoE would be computed.
        with pytest.raises(ValueError, match="budget must be non-negative"):
            ExperimentConfig(budget_mbit=budget, compute_qoe=False)
    assert ExperimentConfig(budget_mbit=math.inf).budget_mbit == math.inf


def test_config_rejects_a_bad_margin_and_calibration_step():
    # Checked at construction, before any trace is made or scale scanned, and
    # also for policy lists that would never calibrate or solve.
    least = 7.0 / (baselines.MAX_SCAN_SCALES - 1)   # 7 is the Gaussian SEARCH_MAX
    for policies in (("bpea", "gaussian"), ("bpea",), ("laplace",)):
        for margin in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="solver margin must be positive"):
                ExperimentConfig(margin=margin, policies=policies)
        # Below one ulp of pi always; at or past pi - 2 eps (2.51 at the default
        # eps) only where bpea solves, since no baseline reads the margin.
        top = r"2.513\d*" if "bpea" in policies else "inf"
        with pytest.raises(ValueError, match=rf"solver margin must lie in \[4.44\d*e-16, {top}\)"):
            ExperimentConfig(margin=1e-20, policies=policies)
        if "bpea" in policies:
            with pytest.raises(ValueError, match=rf"{top}\), from one ulp of pi to pi - 2 eps"):
                ExperimentConfig(margin=2.9, policies=policies)
        else:
            assert ExperimentConfig(margin=2.9, policies=policies).margin == 2.9
        for step in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="search step must be positive"):
                ExperimentConfig(calibration_step=step, policies=policies)
        # A step whose scan would hold more than MAX_SCAN_SCALES scales, down to
        # steps where SEARCH_MAX / step overflows.
        for step in (math.nextafter(least, 0.0), 1e-300, 1e-320, 5e-324):
            with pytest.raises(ValueError, match=rf"search step must be at least {least!r}, a scan "
                                                 rf"of at most 8388608 scales, got {step!r}"):
                ExperimentConfig(calibration_step=step, policies=policies)
    assert ExperimentConfig(margin=float(np.spacing(math.pi))).margin == np.spacing(math.pi)
    # At eps within 5e-5 of pi/2 the default margin is past pi - 2 eps: refused
    # for bpea, while the baselines, and so `calibrate`, still run.
    with pytest.raises(ValueError, match="pi - 2 eps, got 0.0001"):
        ExperimentConfig(eps=1.57075)
    assert ExperimentConfig(eps=1.57075, policies=("gaussian", "laplace")).eps == 1.57075
    for step in (least, 1e-6):
        assert ExperimentConfig(calibration_step=step).calibration_step == step


def test_config_rejects_non_integer_counts_and_bad_seeds():
    for name in ("num_users", "num_videos", "num_train_videos", "gops_per_video"):
        for value in (2.5, 4.0, True, "4", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentConfig(**{name: value})
        assert getattr(ExperimentConfig(**{name: np.int64(7)}), name) == 7
    for seed in (-1, 2 ** 32, 2 ** 40, 1.0, True, "3"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^32\)"):
            ExperimentConfig(seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            harness.synthesize_traces(seed, 1, 1, MIN_GOPS)
    for seed in (0, 2 ** 32 - 1, np.uint32(2 ** 32 - 1)):
        assert ExperimentConfig(seed=seed).seed == seed
        assert harness.check_seed(seed) == seed


def test_config_rejects_repeated_policies():
    for policies in (("gaussian", "gaussian"), ("bpea", "laplace", "bpea")):
        with pytest.raises(ValueError, match="policies must not repeat"):
            ExperimentConfig(policies=policies)


def test_config_rejects_distinct_q_values_sharing_a_seed_key():
    # Baseline noise is seeded by q in millionths: 0.3 and 0.3000001 once
    # drew identical noise and gave equal rows in every column. A repeated q
    # once wrote two identical rows per policy.
    for grid in ((0.3, 0.3000001), (0.5, 0.2, 0.4999996), (0.3, 0.3), (0.3, 0.300001, 0.3)):
        with pytest.raises(ValueError, match="repeat or round to the same millionth"):
            ExperimentConfig(q_grid=grid)
    assert ExperimentConfig(q_grid=(0.3, 0.300001)).q_grid == (0.3, 0.300001)


def test_config_rejects_a_bad_concentration_and_a_missing_output_directory(tmp_path):
    # Both once failed only after work: the concentration at synthesis, the
    # output path when the finished rows were written.
    for concentration in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="concentration must be positive"):
            ExperimentConfig(concentration=concentration)
    # A tiny concentration once made the walk stand still (every step 0 at
    # 1e-17), the opposite of the near-uniform steps it asks for.
    for concentration in (1e-300, 1e-17, np.nextafter(MIN_CONCENTRATION, 0.0)):
        with pytest.raises(ValueError, match=rf"concentration must be positive and at least "
                                             rf"{MIN_CONCENTRATION!r}"):
            ExperimentConfig(concentration=concentration)
    for concentration in (MIN_CONCENTRATION, math.inf):
        assert ExperimentConfig(concentration=concentration).concentration == concentration
    missing = tmp_path / "missing" / "rows.csv"
    with pytest.raises(FileNotFoundError, match="output directory .* does not exist"):
        ExperimentConfig(out_path=str(missing))
    with pytest.raises(IsADirectoryError, match="output path .* is a directory"):
        ExperimentConfig(out_path=str(tmp_path))
    with pytest.raises(ValueError, match="output path must not be empty"):
        ExperimentConfig(out_path="")
    for path in (str(tmp_path / "rows.csv"), "rows.csv"):   # a bare name is written in cwd
        assert ExperimentConfig(out_path=path).out_path == path


def test_a_missing_output_directory_fails_before_any_trace_is_made(tmp_path, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        raise RuntimeError("traces requested")

    monkeypatch.setattr(harness, "synthesize_traces", spy)
    with pytest.raises(RuntimeError, match="traces requested"):   # the spy is on the path
        run_tradeoff_experiment(ExperimentConfig(out_path=str(tmp_path / "rows.csv"), **SMALL))
    assert len(calls) == 1
    with pytest.raises(FileNotFoundError, match="does not exist"):
        run_tradeoff_experiment(
            ExperimentConfig(out_path=str(tmp_path / "missing" / "rows.csv"), **SMALL))
    assert len(calls) == 1


def test_policy_and_kind_ids_are_pinned():
    # These ids are words of the RNG keys: renumbering them changes every
    # baseline row. Policy ids key the uploads, kind ids the calibration scan.
    assert harness.POLICY_NAMES == ("none", "bpea", "gaussian", "laplace")
    assert tuple(baselines.SEARCH_MAX) == ("gaussian", "laplace")


def test_default_q_grid():
    grid = default_q_grid()
    assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 21


def test_trace_set_split_sizes():
    cfg = ExperimentConfig(**SMALL)
    train, evaluation = generate_trace_set(cfg)
    assert len(train) == 3 * 2 and len(evaluation) == 3 * 2
    every = unit_rows(harness.synthesize_traces(cfg.seed, 3, 4, 12).reshape(-1, 3))
    every = every.reshape(3, 4, 12, 3)
    assert np.array_equal(train.reshape(3, 2, 12, 3), every[:, :2])        # videos 0 and 1
    assert np.array_equal(evaluation.reshape(3, 2, 12, 3), every[:, 2:])   # videos 2 and 3


def test_the_split_is_the_synthesized_traces_stacked_by_video():
    # Users, training videos and evaluation videos all differ, so a
    # transposed or video-major split cannot match.
    cfg = ExperimentConfig(**dict(SMALL, num_users=3, num_train_videos=2, num_videos=3))
    walks = harness.synthesize_traces(cfg.seed, 3, 5, cfg.gops_per_video, cfg.concentration)
    assert walks.shape == (3, 5, cfg.gops_per_video, 3) and walks.flags.c_contiguous
    train, evaluation = generate_trace_set(cfg)
    for stack, videos in ((train, range(2)), (evaluation, range(2, 5))):
        # User-major, each trace's rows normalised as a SessionTrace normalises them.
        want = np.stack([unit_rows(walk)
                         for walk in walks[:, videos].reshape(-1, cfg.gops_per_video, 3)])
        assert stack.dtype == np.float64 and stack.flags.c_contiguous
        assert stack.shape == want.shape == (3 * len(videos), cfg.gops_per_video, 3)
        assert stack.tobytes() == want.tobytes()


def test_no_per_trace_object_outlives_the_split(monkeypatch, tmp_path, capsys):
    # No SessionTrace is made between the walk and the experiment, nor in
    # calibrate; gen-traces makes one per trace, so the spy is on the path.
    made = []
    post_init = SessionTrace.__post_init__

    def post_init_spy(trace):
        made.append((trace.user_id, trace.video_id))
        post_init(trace)

    monkeypatch.setattr(SessionTrace, "__post_init__", post_init_spy)
    run_tradeoff_experiment(ExperimentConfig(**SMALL))
    assert cli.main(["calibrate", "--kind", "laplace", "--q", "1.0", "--users", "2",
                     "--videos", "1", "--gops", "12"]) == 0
    assert made == []
    assert cli.main(["gen-traces", "--users", "2", "--videos", "1", "--gops", "12",
                     "--out", str(tmp_path / "traces.csv")]) == 0
    assert made == [(0, 0), (1, 0)]


def test_experiment_rows_and_split_audit(monkeypatch):
    cfg = ExperimentConfig(**SMALL)
    calibrated, uploaded = [], []
    calibrate, apply = harness.calibrate_baselines, harness.apply_policy

    def calibrate_spy(cfg, train):
        calibrated.append(train)
        return calibrate(cfg, train)

    def apply_spy(actual, *args):
        uploaded.append(actual)
        return apply(actual, *args)

    monkeypatch.setattr(harness, "calibrate_baselines", calibrate_spy)
    monkeypatch.setattr(harness, "apply_policy", apply_spy)
    result = run_tradeoff_experiment(cfg)
    assert len(result.rows) == len(cfg.q_grid) * len(cfg.policies)
    # Calibration reads the training stack alone, and every upload the evaluation stack.
    train, evaluation = generate_trace_set(cfg)
    assert len(calibrated) == 1 and len(train) and np.array_equal(calibrated[0], train)
    assert uploaded and len(evaluation)
    assert all(np.array_equal(actual, evaluation) for actual in uploaded)
    # No trace is in both splits.
    assert not np.any(np.all(train[:, None] == evaluation[None], axis=(2, 3)))


def test_experiment_csv_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_tradeoff_experiment(ExperimentConfig(out_path=str(out_a), **SMALL))
    run_tradeoff_experiment(ExperimentConfig(out_path=str(out_b), **SMALL))
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == ",".join(RESULTS_HEADER)
    assert header == "q,policy,pr_leak,mean_error_rad,mean_abs_noise_rad,qoe,pspr"


def test_a_one_shot_or_array_q_grid_makes_every_row(tmp_path):
    # A generator grid was once consumed by validation and made no rows; an
    # array grid raised on its truth value.
    grid = (0.0, 0.1, 0.2)
    cfg = dict(SMALL, policies=("none", "bpea", "gaussian"), q_grid=grid)
    rows = run_tradeoff_experiment(ExperimentConfig(**cfg)).rows
    assert len(rows) == 9
    generated = dict(cfg, q_grid=(x / 10 for x in range(3)), policies=iter(cfg["policies"]))
    assert run_tradeoff_experiment(ExperimentConfig(**generated)).rows == rows
    paths = tmp_path / "tuple.csv", tmp_path / "array.csv"
    for path, q_grid in zip(paths, (grid, np.array(grid))):
        run_tradeoff_experiment(ExperimentConfig(**dict(cfg, q_grid=q_grid, out_path=str(path))))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bpea_noise_non_increasing_in_q():
    cfg = ExperimentConfig(
        num_users=4, num_videos=2, num_train_videos=1, gops_per_video=40, seed=2,
        q_grid=tuple(round(0.1 * i, 1) for i in range(11)), policies=("bpea",),
    )
    rows = sorted(run_tradeoff_experiment(cfg).rows, key=lambda r: r.q)
    noises = [r.mean_abs_noise_rad for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(noises, noises[1:]))


def test_bpea_rows_meet_requirement_per_trace():
    cfg = ExperimentConfig(
        num_users=4, num_videos=2, num_train_videos=1, gops_per_video=30, seed=3,
        q_grid=(0.0, 0.2, 0.6), policies=("bpea",),
    )
    result = run_tradeoff_experiment(cfg)
    for row in result.rows:
        assert row.pspr == 1.0
        assert row.pr_leak <= row.q + 1e-12


def test_fast_path_matches_full_path_on_leak_columns(tmp_path):
    base = dict(SMALL)
    full = run_tradeoff_experiment(ExperimentConfig(compute_qoe=True, **base))
    fast = run_tradeoff_experiment(ExperimentConfig(compute_qoe=False, **base))
    for a, b in zip(full.rows, fast.rows):
        assert (a.q, a.policy) == (b.q, b.policy)
        assert a.pr_leak == b.pr_leak
        assert a.mean_error_rad == b.mean_error_rad
        assert a.mean_abs_noise_rad == b.mean_abs_noise_rad
        assert a.pspr == b.pspr
        assert math.isnan(b.qoe) and not math.isnan(a.qoe)


def _per_trace_policy(name, q, calibrations):
    if name == "none":
        return NoObfuscation()
    if name == "bpea":
        return BpeaPolicy(q=q)
    return calibrations[(name, q)].scale


def one_trace_upload(actual, policy, eps, rng):
    """``apply_policy``'s one-trace upload of a (GoPs, 3) row of a stack."""
    app = apply_policy(actual[None], policy, eps, [rng])
    return policies.PolicyApplication(*(getattr(app, f.name)[0]
                                        for f in dataclasses.fields(app)))


def test_stacked_rows_match_the_per_trace_pipeline():
    cfg = ExperimentConfig(**dict(SMALL, policies=("none", "bpea", "gaussian", "laplace")))
    _, evaluation = generate_trace_set(cfg)
    keys = [(user, cfg.num_train_videos + video)
            for user in range(cfg.num_users) for video in range(cfg.num_videos)]
    result = run_tradeoff_experiment(cfg)
    assert {c.scale.value for c in result.calibrations.values() if c.feasible} > {0.0}
    for row in result.rows:
        policy = _per_trace_policy(row.policy, row.q, result.calibrations)
        assert isinstance(policy, NoiseScale) == (row.policy in baselines.SEARCH_MAX)
        # The harness's seed discipline: (seed, 3, q in millionths, policy, user, video).
        seeds = [[cfg.seed, 3, round(row.q * 1_000_000), harness.POLICY_NAMES.index(row.policy),
                  user, video] for user, video in keys]
        apps = [one_trace_upload(t, policy, cfg.eps,
                                 np.random.default_rng(np.random.SeedSequence(s)))
                for t, s in zip(evaluation, seeds, strict=True)]
        leaks = [a.per_gop_leakage for a in apps]
        assert row.pr_leak == np.mean(np.concatenate(leaks))
        assert row.mean_error_rad == np.mean([a.mean_error_rad for a in apps])
        assert row.mean_abs_noise_rad == np.mean([a.mean_abs_noise_rad for a in apps])
        assert row.pspr == np.mean([np.mean(leak) <= row.q for leak in leaks])
        assert row.qoe == np.mean([
            score_sessions(tiles_of(a.predicted)[None], a.uploaded[None], tiles_of(t)[None],
                           cfg.budget_mbit)[0].qoe
            for t, a in zip(evaluation, apps)
        ])


def test_a_scale_0_row_builds_no_evaluation_rng(monkeypatch):
    # A baseline calibrated to scale 0 perturbs nothing, so its row is the
    # clean upload's, made without drawing per-trace evaluation noise.
    cfg = ExperimentConfig(**dict(SMALL, policies=("none", "gaussian", "laplace")))
    built, generator = [], harness._generator

    def spy(words):
        built.append(tuple(words.tolist()))
        return generator(words)

    monkeypatch.setattr(harness, "_generator", spy)
    result = run_tradeoff_experiment(cfg)
    scales = {key: c.scale.value for key, c in result.calibrations.items()}
    assert 0.0 in scales.values() and any(scales.values())
    clean = {row.q: row for row in result.rows if row.policy == "none"}
    for row in result.rows:
        if row.policy == "none":
            continue
        # The seed words of this row's keys, (seed, 3, q key, policy id, user, video).
        row_words = {tuple(np.random.SeedSequence([
            cfg.seed, 3, round(row.q * 1_000_000), harness.POLICY_NAMES.index(row.policy),
            user, video]).generate_state(4, np.uint64).tolist())
            for user in range(cfg.num_users)
            for video in range(cfg.num_train_videos, cfg.num_train_videos + cfg.num_videos)}
        built_here = sum(words in row_words for words in built)
        if scales[(row.policy, row.q)] == 0.0:
            assert built_here == 0
            assert row == dataclasses.replace(clean[row.q], policy=row.policy)
        else:
            assert built_here == cfg.num_users * cfg.num_videos


def test_bpea_rows_are_per_q_uploads_of_the_clean_errors_whatever_else_runs():
    alone = run_tradeoff_experiment(ExperimentConfig(**dict(SMALL, policies=("bpea",))))
    mixed = run_tradeoff_experiment(ExperimentConfig(
        **dict(SMALL, policies=("laplace", "none", "bpea", "gaussian"))))
    assert alone.rows == [row for row in mixed.rows if row.policy == "bpea"]
    # Rows are listed q-major in the configured policy order, and no row
    # depends on that order.
    assert [(row.q, row.policy) for row in mixed.rows] == [
        (q, name) for q in SMALL["q_grid"] for name in ("laplace", "none", "bpea", "gaussian")]
    reordered = run_tradeoff_experiment(ExperimentConfig(
        **dict(SMALL, policies=("none", "bpea", "gaussian", "laplace"))))
    by_key = {(row.q, row.policy): row for row in reordered.rows}
    assert len(by_key) == len(mixed.rows)
    for row in mixed.rows:
        assert row == by_key[(row.q, row.policy)]
    cfg = ExperimentConfig(**SMALL)
    _, actual = generate_trace_set(cfg)
    predicted = persistence_predict(actual)
    errors = prediction_errors(predicted, actual)
    for row in alone.rows:
        app = apply_policy(actual, BpeaPolicy(row.q, cfg.margin), cfg.eps, None)
        noises, uploaded, leak = app.noises, app.uploaded, app.per_gop_leakage
        reports = score_sessions(tiles_of(predicted), uploaded, tiles_of(actual), cfg.budget_mbit)
        assert row.pr_leak == float(np.mean(leak))
        assert row.mean_error_rad == float(np.mean(np.mean(errors, axis=1)))
        assert row.mean_abs_noise_rad == float(np.mean(np.mean(np.abs(noises), axis=1)))
        assert row.qoe == float(np.mean([r.qoe for r in reports]))
        assert row.pspr == baselines.pspr(np.mean(leak, axis=1), row.q)


def test_qoe_scores_the_clean_upload_once_and_each_noisy_upload_once(monkeypatch):
    # `none` and the scale-0 baseline rows share one scoring of the clean
    # upload; each bpea q and each baseline row at nonzero scale is scored once.
    calls, score = [], harness.score_sessions

    def spy(*args):
        calls.append(args)
        return score(*args)

    monkeypatch.setattr(harness, "score_sessions", spy)
    cfg = ExperimentConfig(**dict(SMALL, policies=("none", "bpea", "gaussian")))
    result = run_tradeoff_experiment(cfg)
    scales = [c.scale.value for c in result.calibrations.values()]
    assert 0.0 in scales and any(scales)
    assert len(calls) == 1 + len(cfg.q_grid) + sum(scale > 0.0 for scale in scales)
    calls.clear()
    run_tradeoff_experiment(dataclasses.replace(cfg, compute_qoe=False))
    assert calls == []


def test_one_noise_solver_serves_the_q_grid_and_none_is_built_without_bpea(monkeypatch):
    built, solver = [], policies.noise_solver

    def spy(*args):
        built.append(args)
        return solver(*args)

    monkeypatch.setattr(policies, "noise_solver", spy)
    run_tradeoff_experiment(ExperimentConfig(**dict(SMALL, policies=("none", "gaussian"))))
    assert built == []
    run_tradeoff_experiment(ExperimentConfig(**dict(SMALL, policies=("bpea", "laplace"))))
    assert len(built) == 1


def test_rng_keys_seed_as_the_seed_sequence_of_their_words():
    keys = [(0,), (1,), (10 ** 6,), (2 ** 32 - 1,), (0, 1, 10 ** 6, 2 ** 32 - 1),
            (2 ** 32 - 1, 3, 0, 1, 10 ** 6, 0), (np.int64(7), np.uint64(2 ** 32 - 1))]
    for key in keys:
        want = np.random.default_rng(np.random.SeedSequence([int(p) for p in key]))
        got = harness._generator(harness._seed_words(*key))
        assert got.bit_generator.state == want.bit_generator.state, key
    # One call seeds a batch: the keys of the words' broadcast, each as if alone.
    words = harness._seed_words(2 ** 32 - 1, [[0], [3]], 1, [0, 10 ** 6, 5])
    for i, j in np.ndindex(2, 3):
        key = [2 ** 32 - 1, (0, 3)[i], 1, (0, 10 ** 6, 5)[j]]
        assert np.array_equal(words[i, j],
                              np.random.SeedSequence(key).generate_state(4, np.uint64)), key
    # A word outside [0, 2^32) raises rather than wrapping onto another key,
    # whether it is a Python int or a numpy integer.
    for key in [(-1,), (2 ** 32,), (0, 3, -1), (5, 2 ** 32 + 5), (0, np.int64(-1)),
                (5, np.uint64(2 ** 32)), (0, [1, -1]), (2 ** 64, 1)]:
        with pytest.raises(OverflowError):
            harness._seed_words(*key)
    # The words serve PCG64's one request, and no other.
    seed_words = harness._seed_words_type()(harness._seed_words(0, 1))
    for request in ((4,), (8, np.uint32), (2, np.uint64)):
        with pytest.raises(NotImplementedError):
            seed_words.generate_state(*request)


KEY_WORDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1))


def assert_seeded_as_numpy(keys, words):
    """Each key's seed words, and the generator built from them, are numpy's own."""
    for key, key_words in zip(keys, words):
        seed_sequence = np.random.SeedSequence([int(w) for w in key])
        assert np.array_equal(key_words, seed_sequence.generate_state(4, np.uint64)), key
        want = np.random.Generator(np.random.PCG64(seed_sequence))
        assert harness._generator(key_words).bit_generator.state == want.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda length: st.lists(st.lists(KEY_WORDS, min_size=length, max_size=length),
                            min_size=1, max_size=5)))
def test_seed_kernel_matches_numpy_at_every_key_length(keys):
    columns = np.array(keys, dtype=np.uint64).T
    assert_seeded_as_numpy(keys, harness._seed_words(*columns))


@settings(max_examples=30, deadline=None)
@given(KEY_WORDS, st.integers(1, 4), st.integers(1, 3), st.lists(KEY_WORDS, min_size=1,
                                                                  max_size=4))
def test_seed_kernel_matches_numpy_on_the_harness_keys(seed, users, videos, q_ids):
    # Trace synthesis: (seed, 1, user, video), user-major.
    words = harness._seed_words(seed, 1, np.arange(users)[:, None], np.arange(videos))
    assert_seeded_as_numpy([(seed, 1, u, v) for u in range(users) for v in range(videos)],
                           words.reshape(-1, 4))
    # Calibration: (seed, 2, kind id, scale index) for every scale of the scan.
    scales = np.arange(users * videos)
    assert_seeded_as_numpy([(seed, 2, 1, i) for i in scales],
                           harness._seed_words(seed, 2, 1, scales))
    # Evaluation rows: (seed, 3, q key, policy id, user, video), q-major.
    traces = [(u, v) for u in range(users) for v in range(videos)]
    words = harness._seed_words(seed, 3, np.array(q_ids)[:, None], 3, [u for u, _ in traces],
                                [v for _, v in traces])
    assert_seeded_as_numpy([(seed, 3, q, 3, u, v) for q in q_ids for u, v in traces],
                           words.reshape(-1, 4))


def test_policy_instances_read_calibration():
    cfg = ExperimentConfig(**SMALL)
    result = run_tradeoff_experiment(cfg)
    assert set(result.calibrations) == {
        (kind, q) for kind in ("gaussian", "laplace") for q in cfg.q_grid
    }
    for (kind, q), calibration in result.calibrations.items():
        if q >= 1.0:
            assert calibration.feasible and calibration.scale.value == 0.0


def test_calibration_evaluates_each_perturbed_scale_once(monkeypatch):
    perturbed, evaluations = [], []
    perturb_traces, conditional_leakage = harness.perturb_traces, baselines.conditional_leakage

    def counting_perturb(points, kind, value, rngs):
        perturbed.extend((kind, scale) for scale in np.broadcast_to(value, len(rngs)).tolist())
        return perturb_traces(points, kind, value, rngs)

    def counting_leakage(errors, eps):
        evaluations.extend([eps] * len(errors))   # one row of errors per scale
        return conditional_leakage(errors, eps)

    monkeypatch.setattr(harness, "perturb_traces", counting_perturb)
    monkeypatch.setattr(baselines, "conditional_leakage", counting_leakage)
    result = run_tradeoff_experiment(ExperimentConfig(**SMALL))
    assert len(evaluations) == len(set(perturbed)) == len(perturbed)
    # One forward scan per kind, from scale 0 upwards.
    for policy, kind in (("gaussian", baselines.GAUSSIAN_KIND), ("laplace", baselines.LAPLACE_KIND)):
        scales = [value for k, value in perturbed if k == kind]
        assert scales[0] == 0.0 and scales == sorted(scales)
        assert len(scales) == max(c.search_evals for (name, q), c in result.calibrations.items()
                                  if name == policy)


def per_scale_calibration(cfg, kind, train):
    """The calibration scan as it ran with one scale per pipeline call, RNG
    and error kernel written out: the reference for the blocked scan.
    Returns one CalibrationResult per q and the scales visited, in order."""
    kind_id = 0 if kind == baselines.GAUSSIAN_KIND else 1
    search_max, step, target = baselines.SEARCH_MAX[kind], cfg.calibration_step, min(cfg.q_grid)
    scales, leaks = [], []
    for i in range(int(math.floor(search_max / step + 1e-9)) + 1):
        scales.append(min(i * step, search_max))
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, kind_id, i]))
        noisy = baselines.perturb_rows(train.reshape(-1, 3), kind, scales[-1], rng)
        predicted = persistence_predict(noisy.reshape(train.shape))
        errors = np.arctan2(np.linalg.norm(np.cross(predicted, train), axis=-1),
                            np.sum(predicted * train, axis=-1)).ravel()
        leaks.append(leakage_sample_mean(errors, cfg.eps))
        if leaks[-1] <= target:
            break
    results = []
    for q in cfg.q_grid:
        meeting = [i for i, leak in enumerate(leaks) if leak <= q]
        i = meeting[0] if meeting else leaks.index(min(leaks))
        results.append(baselines.CalibrationResult(
            NoiseScale(kind, scales[i]), leaks[i], i + 1 if meeting else len(leaks),
            bool(meeting)))
    return results, scales


def test_blocked_calibration_matches_the_per_scale_scan(monkeypatch):
    perturbed = []
    perturb_traces = harness.perturb_traces

    def recording_perturb(points, kind, value, rngs):
        perturbed.extend((kind, scale) for scale in np.broadcast_to(value, len(rngs)).tolist())
        return perturb_traces(points, kind, value, rngs)

    monkeypatch.setattr(harness, "perturb_traces", recording_perturb)
    # 2,400 training errors: a full scan of 13 or 15 scales takes scale 0,
    # then several blocks of several scales each.
    base = dict(num_users=4, num_videos=1, num_train_videos=5, gops_per_video=120, seed=9,
                calibration_step=0.5)
    per_call = baselines.SCAN_BLOCK_ERRORS // (4 * 5 * 120)
    assert 1 < per_call < 12
    floor = optimal_error_distribution(harness.DEFAULT_PRECISION)[1]
    for q_grid in ((0.0, 0.3, 1.0), (floor, 0.2, 0.6), (0.2, 0.25)):
        cfg = ExperimentConfig(q_grid=q_grid, **base)
        train, _ = generate_trace_set(cfg)
        perturbed.clear()
        calibrations = harness.calibrate_baselines(cfg, train)
        expected_visits = []
        for kind in (baselines.GAUSSIAN_KIND, baselines.LAPLACE_KIND):
            expected, visited = per_scale_calibration(cfg, kind, train)
            assert [calibrations[(kind, q)] for q in q_grid] == expected
            # The per-scale visits, then the rest of the block that stopped the scan.
            search_max = baselines.SEARCH_MAX[kind]
            n_scales = int(search_max / 0.5) + 1
            end = min(1 + -(-(len(visited) - 1) // per_call) * per_call, n_scales)
            expected_visits += [(kind, min(i * 0.5, search_max)) for i in range(end)]
            if min(q_grid) < floor:
                assert len(visited) == n_scales
        assert perturbed == expected_visits
    # The last grid stops inside the first block and evaluates the rest of it.
    assert all(c.feasible for c in calibrations.values()) and len(visited) < 1 + per_call
    assert len(perturbed) == 2 * (1 + per_call)


def test_scale_keys_are_seeded_as_the_scan_reaches_them(monkeypatch):
    passes, seed_words = [], harness._seed_words

    def spy(*parts):
        if parts[1] == 2:   # a calibration key: (seed, 2, kind id, scale index)
            passes.append((parts[2], int(np.min(parts[3])), np.size(parts[3])))
        return seed_words(*parts)

    monkeypatch.setattr(harness, "_seed_words", spy)
    per_pass = harness.SCALE_KEYS_PER_PASS
    # A fine step and a q that scale 0 meets: one pass per kind, not the
    # 7,000,001 scales the Gaussian scan could reach.
    cfg = ExperimentConfig(**dict(SMALL, q_grid=(1.0,), calibration_step=1e-6))
    harness.calibrate_baselines(cfg, generate_trace_set(cfg)[0])
    assert passes == [(0, 0, per_pass), (1, 0, per_pass)]
    # A full scan past one window: the 281 Gaussian scales take two, the second
    # reseeded from the first scale of the block that ran past the first, the
    # 241 Laplace scales one, and the results are the per-scale scan's.
    passes.clear()
    cfg = ExperimentConfig(**dict(SMALL, q_grid=(0.0, 1.0), calibration_step=0.025))
    train, _ = generate_trace_set(cfg)
    calibrations = harness.calibrate_baselines(cfg, train)
    second = 1 + baselines.SCAN_BLOCK_ERRORS // (train.size // 3)   # scale 0, then one block
    assert passes == [(0, 0, per_pass), (0, second, per_pass), (1, 0, per_pass)]
    for kind in baselines.SEARCH_MAX:
        expected, visited = per_scale_calibration(cfg, kind, train)
        assert [calibrations[(kind, q)] for q in cfg.q_grid] == expected
        assert len(visited) == {"gaussian": 281, "laplace": 241}[kind]


def test_write_results_formats_rows(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    result = run_tradeoff_experiment(cfg)
    path = tmp_path / "rows.csv"
    write_results(result.rows, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(result.rows)
    first = lines[1].split(",")
    assert first[1] in ("bpea", "gaussian", "laplace", "none")
    float(first[0]), float(first[2])  # parse back cleanly


def test_policy_dataclasses():
    with pytest.raises(ValueError):
        BpeaPolicy(q=1.5)


def test_privacy_columns_do_not_depend_on_orientation(monkeypatch):
    # Leakage is a function of the error angle alone, so one rotation of every
    # trace moves no privacy column of the policies without coordinate noise.
    # QoE is not invariant (the tiles are equirectangular) and is not computed.
    cfg = ExperimentConfig(num_users=12, policies=("none", "bpea"), compute_qoe=False)
    rotation, _ = np.linalg.qr(np.random.default_rng(19).normal(size=(3, 3)))
    rotation[:, 0] *= np.sign(np.linalg.det(rotation))   # a rotation, not a reflection
    assert np.linalg.det(rotation) == pytest.approx(1.0) and not np.allclose(rotation, np.eye(3))
    plain = run_tradeoff_experiment(cfg).rows
    trace_set = harness.generate_trace_set
    monkeypatch.setattr(harness, "generate_trace_set",
                        lambda c: tuple(split @ rotation.T for split in trace_set(c)))
    rotated = run_tradeoff_experiment(cfg).rows
    assert [(r.q, r.policy) for r in rotated] == [(r.q, r.policy) for r in plain]
    for a, b in zip(plain, rotated):
        for column in ("pr_leak", "mean_error_rad", "mean_abs_noise_rad", "pspr"):
            assert getattr(b, column) == pytest.approx(getattr(a, column), rel=0.0, abs=1e-12)


def test_a_constant_upload_beats_the_clean_errors():
    # ROADMAP item 2: the linear zone rule wastes the uploaded error. On the
    # default evaluation set, uploading one constant (so every GoP gets the
    # same zone, and the upload tells nothing about the error) scores a
    # higher mean QoE than uploading the clean persistence errors, as `none`
    # does. Seed 0: 4.785 against 4.682 at 95.4 Mbit, 3.787 against 3.697 at 40.
    for seed in (0, 1):
        _, actual = generate_trace_set(ExperimentConfig(seed=seed))
        predicted = persistence_predict(actual)
        errors = prediction_errors(predicted, actual)
        pfov_tiles, actual_tiles = tiles_of(predicted), tiles_of(actual)
        for budget in (95.4, 40.0):

            def mean_qoe(uploaded):
                return np.mean([r.qoe for r in score_sessions(pfov_tiles, uploaded,
                                                              actual_tiles, budget)])

            # The middle error of each zone bin.
            constant = [mean_qoe(np.full_like(errors, k * math.pi / (len(ZONE_SHAPES) - 1)))
                        for k in range(len(ZONE_SHAPES))]
            assert max(constant) > mean_qoe(errors)


def test_a_refused_trace_set_builds_no_generator(monkeypatch, tmp_path):
    # The counts, GoP count and concentration are checked before any key is
    # seeded. A refused walk once built every generator first (50,000 for the
    # first case), and a non-integer count failed in the seed kernel.
    built = []
    real = harness._generator
    monkeypatch.setattr(harness, "_generator", lambda words: built.append(words) or real(words))
    refused = {
        (0, 1000, 50, 3, 1e-300): "concentration must be positive",
        (0, 1000, 50, MIN_GOPS - 1): f"traces need at least {MIN_GOPS} GoPs",
        (0, 2.5, 1, 10): "users must be an integer, got 2.5",
        (0, 1, 2.0, 10): "videos must be an integer",
        (0, 1, 1, 10.0): "gops must be an integer",
        (0, 0, 1, 10): "need at least one user and one video",
        (0, 1, 0, 10): "need at least one user and one video",
    }
    for args, message in refused.items():
        with pytest.raises(ValueError, match=message):
            harness.synthesize_traces(*args)
    path = tmp_path / "t.csv"
    assert cli.main(["gen-traces", "--users", "1000", "--videos", "50", "--gops", "3",
                     "--concentration", "1e-300", "--out", str(path)]) == 2
    assert built == [] and not path.exists()
    harness.synthesize_traces(0, 2, 1, MIN_GOPS)
    assert len(built) == 2
