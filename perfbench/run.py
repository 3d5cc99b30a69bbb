"""viewpriv benchmark: four workloads, end-to-end metrics, per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload tradeoff_qoe --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each iteration runs in a fresh interpreter (``worker.py``) started from
this single process, one at a time, with BLAS/OpenMP pinned to one thread.
Iterations repeat until ``--seconds`` have passed (at least three). With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
medians of ``norm_cpu_s``, ``work_per_norm_cpu_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` untraced and traced iterations
alternate and the metrics are the per-layer medians of the traced ones,
plus the tracing overhead. Everything a run writes goes under
``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("tradeoff_qoe", "upload_long", "trace_ingest", "attack_grid")
MIN_ITERATIONS = 3
DEADLINE_S = 170.0       # a run must end well within 180 s
BLAS_THREADS = "1"       # single-threaded: steady on a shared machine, <= nproc anywhere

# Times are CPU seconds of the worker process scaled by the machine-speed
# probes of probe.py: the program is single-threaded (BLAS pinned), so CPU
# time leaves out the time a shared host runs other tenants, and the probes
# take out the speed changes it still sees.
END_TO_END_UNITS = {"norm_cpu_s": "s", "work_per_norm_cpu_s": "units/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


def machine_facts(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "viewpriv")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas_threads": BLAS_THREADS,
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0]}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    def __init__(self, root: str, deadline: float):
        self.root = root
        self.workdir = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = child_env(root)
        self.deadline = deadline

    def spawn(self, workload: str, seed: int, tag: str, traced: bool) -> dict:
        result_path = os.path.join(self.workdir, f"result-{workload}-{tag}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
               "--workdir", self.workdir, "--tag", tag, "--trace", str(int(traced)),
               "--result", result_path]
        spawned = time.monotonic()
        timeout = max(1.0, self.deadline - spawned)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"traced": traced, "crashed": f"timed out after {timeout:.0f} s",
                    "attempted": 1, "failed": 1, "elapsed": time.monotonic() - spawned}
        elapsed = time.monotonic() - spawned
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"traced": traced, "crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                    "attempted": 1, "failed": 1, "elapsed": elapsed}
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result.update(traced=traced, elapsed=elapsed)
        return result

    def measure(self, workload: str, seed: int, seconds: float, trace: bool) -> list:
        """Iterations until ``seconds`` have passed; traced runs alternate."""
        start = time.monotonic()
        results: list = []
        longest = 0.0
        while True:
            now = time.monotonic()
            done = now - start >= seconds and len(results) >= MIN_ITERATIONS
            if trace:
                done = done and len(results) >= 2 * (MIN_ITERATIONS - 1) and len(results) % 2 == 0
            if done or (results and now + 1.5 * longest > self.deadline):
                return results
            traced = trace and len(results) % 2 == 1
            result = self.spawn(workload, seed, str(len(results)), traced)
            longest = max(longest, result["elapsed"])
            results.append(result)


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(workload: str, seed: int, trace: bool, results: list) -> dict:
    ok = [r for r in results if "crashed" not in r]
    plain = [r for r in ok if not r["traced"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    if trace:
        traced = [r for r in ok if r["traced"]]
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = _median([r["layers"][name] for r in traced])
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(
                [r["wall_s"] for r in plain])
    elif plain:
        metrics = {
            "norm_cpu_s": _median([r["norm_cpu_s"] for r in plain]),
            "work_per_norm_cpu_s": _median([r["work"] / r["norm_cpu_s"] for r in plain]),
            "setup_s": _median([r["norm_setup_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics, "iterations": results}


def report(summary: dict, facts: dict) -> None:
    """Human-readable block: every metric with its unit, checks, inputs."""
    runs = summary["iterations"]
    ok = [r for r in runs if "crashed" not in r]
    instance = ok[0]["instance"] if ok else "?"
    print(f"== {summary['workload']}  seed={summary['seed']} (input instance {instance})"
          f"  trace={int(summary['trace'])}  iterations={len(runs)}")
    metrics = summary["metrics"]
    for name, unit in (PER_LAYER_UNITS if summary["trace"] else END_TO_END_UNITS).items():
        if name in metrics:
            print(f"   {name:<46} {metrics[name]!r} {unit}")
    print(f"   {'fail_ratio':<46} {summary['failed'] / summary['attempted']!r} "
          f"({summary['failed']} failed / {summary['attempted']} attempted)")
    if ok:
        first = ok[0]
        print(f"   work unit: {first['work_unit']}, {first['work']} per iteration")
        print(f"   inputs: {json.dumps(first['sizes'])}")
        if first["notes"]:
            print(f"   notes: {json.dumps(first['notes'])}")
        plain = [r for r in ok if not r["traced"]]
        print(f"   norm_cpu_s per iteration: {[round(r['norm_cpu_s'], 4) for r in plain]}")
        print(f"   cpu_s per iteration: {[round(r['cpu_s'], 4) for r in plain]}")
        print(f"   wall_s per iteration: {[round(r['wall_s'], 4) for r in plain]}")
        print(f"   machine: {json.dumps(facts)} numpy={first['numpy']} blas={first['blas']}")
    if summary["trace"] and "trace.wall_s" in summary["metrics"]:
        m = summary["metrics"]
        wall = m["trace.wall_s"]
        shares = {k.split(".")[1]: v / wall for k, v in m.items()
                  if k.startswith("layer.") and v > 0.0}
        shares["other (benchmark checks, unwrapped calls)"] = 1.0 - sum(shares.values())
        print(f"   layer shares of traced wall {wall:.4f} s "
              f"(overhead {m['trace.overhead_s']:+.4f} s):")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"     {layer:<44} {share:7.2%}")
    for r in runs:
        if "crashed" in r:
            print(f"   iteration failed to run: {r['crashed']}")
        elif r["failed"]:
            print(f"   {r['failed']} failed checks: {r['failures']} {r['error'] or ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="viewpriv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "viewpriv", "__init__.py")):
        print(f"error: no viewpriv sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    facts = machine_facts(root)
    runner = Runner(root, began + DEADLINE_S)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = summarize(name, args.seed, bool(args.trace),
                            runner.measure(name, args.seed, args.seconds, bool(args.trace)))
        report(summary, facts)
        with open(os.path.join(runner.workdir, f"summary-{name}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump({**summary, "machine": facts}, fh, indent=1)
        summaries.append(summary)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    prefix = len(summaries) > 1
    out = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}." if prefix else "") + name:
                    {"value": value, "unit": units[name]}
                    for s in summaries for name, value in s["metrics"].items()},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
