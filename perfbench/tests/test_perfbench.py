"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import resource
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import viewpriv.harness  # noqa: E402
import viewpriv.oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_tradeoff_qoe_same_seed_writes_byte_identical_csv(tmp_path):
    first = workloads.TradeoffQoe(5, str(tmp_path), "a")
    second = workloads.TradeoffQoe(5, str(tmp_path), "b")
    first.run()
    second.run()
    assert (tmp_path / "tradeoff_qoe-a.csv").read_bytes() == \
        (tmp_path / "tradeoff_qoe-b.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_passes_every_check(tmp_path, name):
    instance = workloads.instance_of(1)
    workload = workloads.WORKLOADS[name](instance, str(tmp_path), "x")
    checks = workload.check(workload.run(), workloads.load_reference(name, instance))
    assert checks.failures == []
    assert checks.attempted == workload.operations


def test_check_rejects_a_changed_result(tmp_path):
    workload = workloads.AttackGrid(2, str(tmp_path), "x")
    reference = workloads.load_reference("attack_grid", 2)
    result = workload.run()
    result["estimates"]["0.1"][3][0] += 1.0 / workload.trials
    checks = workload.check(result, reference)
    assert len(checks.failures) == 1


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("t")
    tracer.spans = [
        ("harness.run_tradeoff_experiment", 0.0, 10.0, -1),
        ("streaming.apply_policy", 1.0, 4.0, 0),
        ("traces.prediction_errors", 2.0, 3.0, 1),
        ("streaming.apply_policy", 5.0, 6.0, 0),
    ]
    m = tracer.metrics(wall_s=10.0)
    assert m["harness.run_tradeoff_experiment.self_s"] == 6.0
    assert m["streaming.apply_policy.s"] == 4.0
    assert m["layer.streaming.self_s"] == 3.0
    assert m["layer.traces.self_s"] == 1.0
    assert m["trace.spans"] == 4


def test_tracer_wraps_where_callers_look_up_and_restores(tmp_path):
    original = viewpriv.harness.apply_policy
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert viewpriv.harness.apply_policy is not original
        assert viewpriv.streaming.apply_policy is viewpriv.harness.apply_policy
        workload = workloads.AttackGrid(0, str(tmp_path), "x")
        checks = workload.check(workload.run(), workloads.load_reference("attack_grid", 0))
    finally:
        tracer.uninstall()
    assert viewpriv.harness.apply_policy is original
    assert checks.failures == []
    m = tracer.metrics(wall_s=1.0)
    assert set(m) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    assert m["oracle.grid_attacker_best.pairs"] == workload.num_grid_errors * workload.lattice \
        * workload.trials
    assert m["streaming.qoe_score.gops"] == 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_probes_take_cpu_time_and_the_forked_one_leaves_peak_memory():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probers = [probe.Prober(kind) for kind in probe.NOMINAL_S]
    seconds = {p.kind: p.run() + p.run() for p in probers}
    for p in probers:
        p.close()
    assert all(s > 0.0 for s in seconds.values())
    # The matmul probe's 41 MB products live in a forked child.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak < 20 * 1024
    assert probe.slowdown("calls", [probe.NOMINAL_S["calls"], 3 * probe.NOMINAL_S["calls"]]) == 2.0


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_as_the_last_line(trace, section):
    proc = _run(ROOT, "--workload", "attack_grid", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tradeoff_qoe", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
