import csv
import math

import numpy as np

from viewpriv import cli, harness, oracle
from viewpriv.harness import ExperimentConfig, generate_trace_set
from viewpriv.oracle import OracleConfig
from viewpriv.traces import load_traces


def test_leakage_command(capsys):
    assert cli.main(["leakage", "--e", "1.5707963", "--q", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "0.1" in out and "met" in out


def test_leakage_command_with_noise(capsys):
    assert cli.main(["leakage", "--e", "1.5707963", "--n", "0.4"]) == 0
    assert "conditional_leakage_noisy" in capsys.readouterr().out


def test_invalid_precision_exits_2(capsys):
    assert cli.main(["leakage", "--e", "0.3", "--eps", "2.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_noise_command(capsys):
    assert cli.main(["solve-noise", "--e", "1.5707963267948966", "--q", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "optimal noise" in out and "achieved leakage" in out


def test_attack_sim_command(capsys):
    code = cli.main(["attack-sim", "--e", "1.5707963", "--trials", "2000",
                     "--seed", "3", "--skip-grid"])
    assert code == 0
    out = capsys.readouterr().out
    assert "empirical leakage" in out and "analytic leakage" in out


def test_attack_sim_readme_example_output(capsys):
    # The README example, grid attacker included; stdout is pinned byte for byte.
    assert cli.main(["attack-sim", "--e", "0.9424778", "--trials", "100000", "--seed", "6"]) == 0
    assert capsys.readouterr().out == (
        "empirical leakage = 0.122670 +- 0.004150 (100000 trials)\n"
        "analytic leakage  = 0.123607\n"
        "grid attacker: best guess at distance 0.901948 rad (true error 0.942478), leak 0.127680\n"
    )


def test_attack_sim_oversized_lattice_exits_2(capsys, monkeypatch):
    # 50.3M candidates at 0.001 rad: refused by the config, before any lattice is built.
    def no_lattice(count):
        raise AssertionError(f"built a lattice of {count} points")

    monkeypatch.setattr(oracle, "fibonacci_sphere", no_lattice)
    assert cli.main(["attack-sim", "--e", "1.0", "--grid-resolution", "0.001"]) == 2
    assert "50,265,483 candidates" in capsys.readouterr().err


def test_calibrate_infeasible_exits_3(capsys):
    code = cli.main([
        "calibrate", "--kind", "gaussian", "--q", "0.05", "--users", "2",
        "--videos", "1", "--gops", "12", "--step", "2.0",
    ])
    assert code == 3
    # Pinned byte for byte: the lowest-leakage scale that is run in its place.
    assert capsys.readouterr().out == (
        "infeasible: best leakage 0.127718 at scale 4 exceeds q=0.05 (4 scales scanned; "
        "coordinate noise tends to leakage 0.1746 as its scale grows)\n"
    )


def test_calibrate_feasible_exits_0(capsys):
    base = ["calibrate", "--kind", "laplace", "--users", "2", "--videos", "1", "--gops", "12"]
    # Pinned byte for byte: the smallest scanned scale meeting q.
    for q, out in (
        ("1.0", "feasible: scale 0 achieves leakage 0.613164 <= q=1 (first met at scan step 1)\n"),
        ("0.2", "feasible: scale 0.35 achieves leakage 0.190332 <= q=0.2 "
                "(first met at scan step 8)\n"),
    ):
        assert cli.main(base + ["--q", q]) == 0
        assert capsys.readouterr().out == out


def test_calibrate_runs_on_the_training_stack_of_the_trace_set(capsys, monkeypatch):
    calls = []
    calibrate = harness.calibrate_baselines

    def spy(cfg, train):
        calls.append((cfg, train))
        return calibrate(cfg, train)

    monkeypatch.setattr(harness, "calibrate_baselines", spy)
    assert cli.main(["calibrate", "--kind", "laplace", "--q", "1.0", "--users", "2",
                     "--videos", "3", "--gops", "12", "--seed", "6"]) == 0
    assert capsys.readouterr().out.startswith("feasible: scale 0 ")
    [(cfg, train)] = calls
    assert (cfg.num_users, cfg.num_train_videos, cfg.gops_per_video, cfg.seed) == (2, 3, 12, 6)
    want, _ = generate_trace_set(cfg)
    assert train.shape == (2 * 3, 12, 3) and train.tobytes() == want.tobytes()


def test_gen_traces_and_tradeoff_round_trip(tmp_path, capsys):
    traces_path = tmp_path / "traces.csv"
    assert cli.main(["gen-traces", "--users", "2", "--videos", "2", "--gops", "5",
                     "--out", str(traces_path)]) == 0
    assert len(load_traces(traces_path)) == 4

    results_path = tmp_path / "rows.csv"
    code = cli.main([
        "tradeoff", "--users", "2", "--videos", "1", "--train-videos", "1",
        "--gops", "10", "--q-grid", "1.0", "--policies", "bpea,gaussian",
        "--out", str(results_path),
    ])
    assert code == 0
    with open(results_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["policy"] for r in rows} == {"bpea", "gaussian"}
    assert all(float(r["q"]) == 1.0 for r in rows)


def test_gen_traces_matches_the_experiment_trace_set(tmp_path, capsys):
    path = tmp_path / "traces.csv"
    assert cli.main(["gen-traces", "--users", "2", "--videos", "3", "--gops", "40",
                     "--seed", "4", "--out", str(path)]) == 0
    train, evaluation = generate_trace_set(ExperimentConfig(
        num_users=2, num_train_videos=1, num_videos=2, gops_per_video=40, seed=4,
    ))
    by_user = np.concatenate((train.reshape(2, 1, 40, 3), evaluation.reshape(2, 2, 40, 3)), axis=1)
    expected = {(user, video): by_user[user, video] for user in range(2) for video in range(3)}
    loaded = load_traces(path)
    assert [(t.user_id, t.video_id) for t in loaded] == sorted(expected)
    # SessionTrace normalises each loaded row once, which can move a coordinate
    # by an ulp.
    for trace in loaded:
        diff = np.abs(trace.actual - expected[(trace.user_id, trace.video_id)])
        assert np.max(diff) <= 2.0 * np.spacing(1.0)


def test_tradeoff_infeasible_still_writes(tmp_path, capsys):
    results_path = tmp_path / "rows.csv"
    code = cli.main([
        "tradeoff", "--users", "2", "--videos", "1", "--train-videos", "1",
        "--gops", "10", "--q-grid", "0.05,1.0", "--policies", "gaussian",
        "--out", str(results_path),
    ])
    assert code == 3
    assert capsys.readouterr().out == (
        f"wrote 2 rows to {results_path}\n"
        "warning: 1 calibration points infeasible (fallback scales used; coordinate noise "
        "tends to leakage 0.1746 as its scale grows): [('gaussian', 0.05)]\n"
    )
    assert results_path.exists()
    with open(results_path, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_tradeoff_rejects_a_nan_budget_and_an_empty_policy_list(tmp_path, capsys):
    results_path = tmp_path / "rows.csv"
    base = ["tradeoff", "--users", "2", "--videos", "1", "--train-videos", "1",
            "--gops", "10", "--q-grid", "1.0", "--out", str(results_path)]
    assert cli.main(base + ["--budget-mbit", "nan"]) == 2
    assert "budget must be non-negative" in capsys.readouterr().err
    assert cli.main(base + ["--policies", ","]) == 2
    assert "need at least one policy" in capsys.readouterr().err
    assert not results_path.exists()


def test_tradeoff_rejects_a_bad_tau_before_calibrating(tmp_path, capsys, monkeypatch):
    def no_calibration(*args):
        raise AssertionError("the calibration scan ran")

    monkeypatch.setattr(harness, "calibrate_baselines", no_calibration)
    results_path = tmp_path / "rows.csv"
    for tau in ("-1", "0", "nan"):
        assert cli.main(["tradeoff", "--users", "2", "--videos", "1", "--train-videos", "1",
                         "--gops", "10", "--q-grid", "0.3", "--tau", tau,
                         "--out", str(results_path)]) == 2
        assert "solver margin must be positive" in capsys.readouterr().err
    assert not results_path.exists()


def test_tradeoff_rejects_a_repeated_policy(tmp_path, capsys):
    results_path = tmp_path / "rows.csv"
    for q_grid, policies, message in (("0.3,1.0", "gaussian,gaussian", "policies must not repeat"),
                                      ("0.3,1.0,0.3", "gaussian", "repeat or round to the same")):
        assert cli.main(["tradeoff", "--users", "2", "--videos", "1", "--train-videos", "1",
                         "--gops", "10", "--q-grid", q_grid, "--policies", policies,
                         "--out", str(results_path)]) == 2
        assert message in capsys.readouterr().err
        assert not results_path.exists()


def test_calibrate_and_gen_traces_reject_non_finite_arguments(tmp_path, capsys):
    calibrate = ["calibrate", "--kind", "gaussian", "--q", "0.5", "--users", "2",
                 "--videos", "1", "--gops", "12"]
    for step in ("nan", "inf"):
        assert cli.main(calibrate + ["--step", step]) == 2
        assert "search step must be positive" in capsys.readouterr().err
    assert cli.main(["gen-traces", "--users", "1", "--videos", "1", "--gops", "5",
                     "--concentration", "nan", "--out", str(tmp_path / "t.csv")]) == 2
    assert "concentration must be positive" in capsys.readouterr().err


def test_gen_traces_rejects_a_zero_count(tmp_path, capsys):
    # A zero count once reached the walk and failed there, on its RNG count.
    path = tmp_path / "t.csv"
    for counts in (["--users", "0", "--videos", "1"], ["--users", "2", "--videos", "0"]):
        assert cli.main(["gen-traces", *counts, "--gops", "5", "--out", str(path)]) == 2
        assert capsys.readouterr().err == "error: need at least one user and one video\n"
        assert not path.exists()


def test_seeds_outside_32_bits_exit_2(tmp_path, capsys):
    # Seeds 0 and 2^32 once gave byte-identical runs: only [0, 2^32) is taken.
    small = ["--users", "2", "--gops", "10"]
    tradeoff = ["tradeoff", *small, "--videos", "1", "--train-videos", "1",
                "--q-grid", "1.0", "--policies", "gaussian"]
    commands = {"tradeoff": tradeoff, "calibrate": ["calibrate", "--kind", "laplace",
                                                    "--q", "1.0", *small, "--videos", "1"],
                "gen-traces": ["gen-traces", *small, "--videos", "1"]}
    for name, command in commands.items():
        path = tmp_path / f"{name}.csv"
        out = ["--out", str(path)] if name != "calibrate" else []
        for seed in (str(2 ** 32), "-1"):
            assert cli.main(command + out + ["--seed", seed]) == 2
            assert "seed must be an integer in [0, 2^32)" in capsys.readouterr().err
            assert not path.exists()
        for seed in ("0", str(2 ** 32 - 1)):
            assert cli.main(command + out + ["--seed", seed]) == 0


def test_parser_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    config = ExperimentConfig()
    tradeoff = vars(parser.parse_args(["tradeoff", "--out", "x.csv"]))
    assert tradeoff["policies"].split(",") == list(config.policies)
    assert (tradeoff["users"], tradeoff["videos"], tradeoff["train_videos"], tradeoff["gops"]) \
        == (config.num_users, config.num_videos, config.num_train_videos, config.gops_per_video)
    calibrate = vars(parser.parse_args(["calibrate", "--kind", "gaussian", "--q", "0.5"]))
    assert (calibrate["users"], calibrate["videos"], calibrate["gops"]) \
        == (config.num_users, config.num_train_videos, config.gops_per_video)
    assert (tradeoff["budget_mbit"], tradeoff["tau"]) == (config.budget_mbit, config.margin)
    assert calibrate["step"] == config.calibration_step
    for args in (tradeoff, calibrate):
        assert args["concentration"] == config.concentration
    for args in (tradeoff, calibrate):
        assert (args["seed"], args["eps"]) == (config.seed, config.eps)
    gen_traces = vars(parser.parse_args(["gen-traces", "--out", "x.csv"]))
    assert (gen_traces["users"], gen_traces["videos"], gen_traces["gops"]) \
        == (config.num_users, config.num_train_videos + config.num_videos, config.gops_per_video)
    assert (gen_traces["seed"], gen_traces["concentration"]) == (config.seed, config.concentration)
    attack = vars(parser.parse_args(["attack-sim", "--e", "1.0"]))
    oracle_config = OracleConfig()
    assert (attack["trials"], attack["grid_resolution"], attack["seed"]) \
        == (oracle_config.trials, oracle_config.grid_resolution, oracle_config.seed)
    assert attack["eps"] == config.eps


def test_a_missing_output_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # An --out that names a directory, or is empty (its directory read as
    # "."), once failed only on writing, after synthesis (and, for tradeoff,
    # calibration and evaluation).
    def no_work(*args):
        raise AssertionError("the command ran before checking its output path")

    monkeypatch.setattr(harness, "synthesize_traces", no_work)
    monkeypatch.setattr(harness, "run_tradeoff_experiment", no_work)
    missing = tmp_path / "missing" / "out.csv"
    for out, message in ((missing, "does not exist"), (tmp_path, "is a directory"),
                         ("", "must not be empty")):
        small = ["--users", "2", "--videos", "1", "--gops", "10", "--out", str(out)]
        for command in (["tradeoff", "--train-videos", "1", "--q-grid", "1.0", *small],
                        ["gen-traces", *small]):
            assert cli.main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: output ") and message in err
    assert not missing.parent.exists()


def test_an_unwritable_output_path_exits_2(tmp_path, capsys):
    # A file name too long to create passes the path check, then fails to
    # open: main reports the OSError instead of a traceback.
    target = tmp_path / ("x" * 300 + ".csv")
    assert cli.main(["gen-traces", "--users", "1", "--videos", "1", "--gops", "5",
                     "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_noise_respects_tau(capsys):
    assert cli.main(["solve-noise", "--e", str(0.1 * math.pi), "--q", "0.5",
                     "--tau", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "0.001" in out
