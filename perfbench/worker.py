"""One timed iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, so the program's
``lru_cache``s start cold as they do for a command-line user. Set-up
(interpreter start, imports, input generation, reading the reference) ends
before the timed section. Times are CPU time of this process, scaled by the
probes of ``probe.py`` run around the timed section:
``norm_cpu_s`` is the timed section, ``norm_setup_s`` the set-up. Raw CPU
and wall times are reported next to them. The result goes to ``--result``
as JSON.

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/worker.py --workload attack_grid --seed 0 \
        --workdir .bench_build/perfbench --tag 0 --trace 0 --result out.json
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import probe
import tracing
import viewpriv
import workloads


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    instance = workloads.instance_of(args.seed)
    workload = workloads.WORKLOADS[args.workload](instance, args.workdir, args.tag)
    reference = workloads.load_reference(args.workload, instance)
    setup_cpu_s = time.process_time()
    probers = [probe.Prober(kind) for kind in workload.probes]
    probes = {p.kind: [p.run()] for p in probers}

    tracer = tracing.Tracer(f"{args.workload}-{args.tag}") if args.trace else None
    if tracer is not None:
        tracer.install()
    error = None
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        checks = workload.check(workload.run(), reference)
    except Exception:  # a crash in the program is a failed run, not a benchmark error
        error = traceback.format_exc()
        checks = workloads.Checks()
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for prober in probers:
        probes[prober.kind].append(prober.run())
        prober.close()
    slowdown = {kind: probe.slowdown(kind, seconds) for kind, seconds in probes.items()}

    # Checks that never ran (a crash, or missing rows) count as failed.
    attempted = max(checks.attempted, workload.operations)
    failed = len(checks.failures) + (attempted - checks.attempted)
    result = {
        "workload": args.workload,
        "instance": instance,
        "norm_cpu_s": cpu_s / statistics.mean(slowdown[kind] for kind in workload.probes),
        "norm_setup_s": setup_cpu_s / slowdown["calls"],
        "cpu_s": cpu_s,
        "setup_cpu_s": setup_cpu_s,
        "wall_s": wall_s,
        "probe_s": probes,
        "work": workload.work,
        "work_unit": workload.work_unit,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": checks.failures[:5],
        "error": error,
        "notes": checks.notes,
        "sizes": workload.sizes(),
        "numpy": np.__version__,
        "blas": _blas(),
        "viewpriv": viewpriv.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        spans = os.path.join(args.workdir, f"spans-{args.workload}-{args.tag}.jsonl")
        tracer.write(spans)
        result["spans_file"] = spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
