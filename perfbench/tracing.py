"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``viewpriv`` module
with wrappers that record a span (name, start, end, parent, run id) per
call, plus work counts taken from the call's arguments and result. The
wrappers are installed under every module attribute that refers to the
function, because callers look names up in their own module: ``harness``
binds ``apply_policy``, ``perturb_rows`` and others by ``from ... import``.

``streaming.tile_of`` and ``streaming.zone_from_error`` run once or twice
per GoP, so they get call counters instead of spans. The program has no
queues or threads, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "traces", "baselines", "bpea", "leakage", "streaming",
    "oracle", "sphere", "harness", "cli",
)

# Bytes a (candidate, actual-viewpoint) pair moves in grid_attacker_best:
# the float64 dot product written and read back, then the bool written and
# read by the sum. Computed from array sizes, not measured.
_BYTES_PER_PAIR = 8 + 8 + 1 + 1
# One 3-term dot product: 3 multiplies and 3 adds, as BLAS counts it.
_FLOPS_PER_PAIR = 6


def _gops(trace):
    return len(trace.actual)


def _count_prediction_errors(t, a, result):
    t.counts["traces.prediction_errors.elems"] += int(np.size(result))


def _count_generate(t, a, result):
    t.counts["traces.generate_synthetic_trace.gops"] += int(a["gops"])


def _count_load(t, a, result):
    t.counts["traces.load_traces.rows"] += sum(_gops(x) for x in result)
    t.counts["traces.load_traces.bytes"] += os.path.getsize(a["path"])


def _count_write(t, a, result):
    t.counts["traces.write_traces.rows"] += sum(_gops(x) for x in a["traces"])
    t.counts["traces.write_traces.bytes"] += os.path.getsize(a["path"])


def _count_perturb(t, a, result):
    t.counts["baselines.perturb_rows.rows"] += len(a["points"])


def _count_calibrate(t, a, result):
    t.counts["baselines.calibrate_noise_scale.scan_evals"] += int(result.search_evals)
    t.counts["baselines.calibrate_noise_scale.feasible"] += int(result.feasible)


def _count_elems(name):
    def count(t, a, result):
        t.counts[name] += int(np.size(result))
    return count


def _count_apply(t, a, result):
    t.counts["streaming.apply_policy.gops"] += len(result.errors)


def _count_simulate(t, a, result):
    t.counts["streaming.simulate_session.gops"] += len(result.per_gop_leakage)


def _count_qoe(t, a, result):
    t.counts["streaming.qoe_score.gops"] += len(a["per_gop"])


def _count_lattice(t, a, result):
    t.last_lattice = len(result)


def _count_grid(t, a, result):
    t.counts["oracle.grid_attacker_best.pairs"] += t.last_lattice * a["cfg"].trials


def _count_empirical(t, a, result):
    t.counts["oracle.empirical_conditional_leakage.trials"] += int(result.trials)


def _count_points(t, a, result):
    t.counts["sphere.points_at_distance.points"] += len(result)


# (module, function, work-count hook or None). Each module's entries are the
# public functions the workloads reach; private helpers count towards the
# self time of their public caller.
SPANNED = (
    ("traces", "generate_synthetic_trace", _count_generate),
    ("traces", "persistence_predict", None),
    ("traces", "prediction_errors", _count_prediction_errors),
    ("traces", "load_traces", _count_load),
    ("traces", "write_traces", _count_write),
    ("baselines", "perturb_rows", _count_perturb),
    ("baselines", "calibrate_noise_scale", _count_calibrate),
    ("baselines", "pspr", None),
    ("bpea", "optimal_noise_batch", _count_elems("bpea.optimal_noise_batch.elems")),
    ("bpea", "conditional_leakage_noisy", _count_elems("bpea.conditional_leakage_noisy.elems")),
    ("leakage", "conditional_leakage", _count_elems("leakage.conditional_leakage.elems")),
    ("leakage", "leakage_sample_mean", None),
    ("streaming", "apply_policy", _count_apply),
    ("streaming", "simulate_session", _count_simulate),
    ("streaming", "qoe_score", _count_qoe),
    ("oracle", "empirical_conditional_leakage", _count_empirical),
    ("oracle", "grid_attacker_best", _count_grid),
    ("oracle", "fibonacci_sphere", _count_lattice),
    ("sphere", "points_at_distance", _count_points),
    ("harness", "generate_trace_set", None),
    ("harness", "run_tradeoff_experiment", None),
    ("harness", "write_results", None),
    ("cli", "main", None),
)

COUNTED = (
    ("streaming", "tile_of"),
    ("streaming", "zone_from_error"),
)

# Per-layer metrics: name -> (unit, better). Every traced run reports all
# of them; a layer a workload never calls reads 0.
PER_LAYER = {
    "traces.generate_synthetic_trace.s": ("s", "lower"),
    "traces.generate_synthetic_trace.gops": ("count", "lower"),
    "harness.generate_trace_set.s": ("s", "lower"),
    "traces.load_traces.s": ("s", "lower"),
    "traces.load_traces.rows": ("count", "lower"),
    "traces.load_traces.mb_per_s": ("MB/s", "higher"),
    "traces.write_traces.s": ("s", "lower"),
    "traces.write_traces.rows": ("count", "lower"),
    "traces.write_traces.mb_per_s": ("MB/s", "higher"),
    "traces.prediction_errors.s": ("s", "lower"),
    "traces.prediction_errors.elems": ("count", "lower"),
    "baselines.perturb_rows.s": ("s", "lower"),
    "baselines.perturb_rows.rows": ("count", "lower"),
    "baselines.calibrate_noise_scale.s": ("s", "lower"),
    "baselines.calibrate_noise_scale.calls": ("count", "lower"),
    "baselines.calibrate_noise_scale.scan_evals": ("count", "lower"),
    "baselines.calib_cache_hit_ratio": ("ratio", "higher"),
    "baselines.feasible_ratio": ("ratio", "higher"),
    "bpea.optimal_noise_batch.s": ("s", "lower"),
    "bpea.optimal_noise_batch.elems": ("count", "lower"),
    "bpea.optimal_noise_batch.melems_per_s": ("Melem/s", "higher"),
    "bpea.conditional_leakage_noisy.s": ("s", "lower"),
    "bpea.conditional_leakage_noisy.elems": ("count", "lower"),
    "bpea.conditional_leakage_noisy.melems_per_s": ("Melem/s", "higher"),
    "leakage.conditional_leakage.s": ("s", "lower"),
    "leakage.conditional_leakage.elems": ("count", "lower"),
    "streaming.apply_policy.s": ("s", "lower"),
    "streaming.apply_policy.gops": ("count", "lower"),
    "streaming.simulate_session.self_s": ("s", "lower"),
    "streaming.simulate_session.gops": ("count", "lower"),
    "streaming.qoe_score.s": ("s", "lower"),
    "streaming.qoe_score.gops": ("count", "lower"),
    "streaming.tile_of.calls": ("count", "lower"),
    "streaming.zone_from_error.calls": ("count", "lower"),
    "oracle.grid_attacker_best.s": ("s", "lower"),
    "oracle.grid_attacker_best.pairs": ("count", "lower"),
    "oracle.grid_attacker_best.gpairs_per_s": ("Gpair/s", "higher"),
    "oracle.grid_attacker_best.flops_computed": ("flop", "lower"),
    "oracle.grid_attacker_best.bytes_computed": ("B", "lower"),
    "oracle.empirical_conditional_leakage.s": ("s", "lower"),
    "oracle.empirical_conditional_leakage.trials": ("count", "lower"),
    "sphere.points_at_distance.s": ("s", "lower"),
    "sphere.points_at_distance.points": ("count", "lower"),
    "harness.run_tradeoff_experiment.self_s": ("s", "lower"),
    "harness.write_results.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """Spans and counts for one run; spans stay in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.last_lattice = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _span(self, name: str, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a viewpriv module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "viewpriv" or n.startswith("viewpriv."))]
        plan = []
        for m, f, hook in SPANNED:
            original = _lookup(m, f)
            plan.append((original, self._span(f"{m}.{f}", original, hook)))
        for m, f in COUNTED:
            original = _lookup(m, f)
            plan.append((original, self._counter(f"{m}.{f}.calls", original)))
        for original, wrapper in plan:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced section that took ``wall_s``."""
        inclusive: dict = defaultdict(float)   # outermost spans of each name
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[index]
            if not self._has_ancestor(index, name):
                inclusive[name] += end - start

        c = self.counts
        calib_perturbs = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "baselines.perturb_rows"
            and self._has_ancestor(i, "baselines.calibrate_noise_scale")
        )
        scan_evals = c["baselines.calibrate_noise_scale.scan_evals"]
        calibrations = calls["baselines.calibrate_noise_scale"]
        pairs = c["oracle.grid_attacker_best.pairs"]
        out = {
            "traces.generate_synthetic_trace.s": inclusive["traces.generate_synthetic_trace"],
            "traces.generate_synthetic_trace.gops": c["traces.generate_synthetic_trace.gops"],
            "harness.generate_trace_set.s": inclusive["harness.generate_trace_set"],
            "baselines.calibrate_noise_scale.s": inclusive["baselines.calibrate_noise_scale"],
            "baselines.calibrate_noise_scale.calls": calibrations,
            "baselines.calibrate_noise_scale.scan_evals": scan_evals,
            "baselines.calib_cache_hit_ratio":
                1.0 - calib_perturbs / scan_evals if scan_evals else 0.0,
            "baselines.feasible_ratio":
                c["baselines.calibrate_noise_scale.feasible"] / calibrations if calibrations else 0.0,
            "streaming.simulate_session.self_s": self_time["streaming.simulate_session"],
            "streaming.tile_of.calls": c["streaming.tile_of.calls"],
            "streaming.zone_from_error.calls": c["streaming.zone_from_error.calls"],
            "oracle.grid_attacker_best.pairs": pairs,
            "oracle.grid_attacker_best.gpairs_per_s":
                _rate(pairs / 1e9, inclusive["oracle.grid_attacker_best"]),
            "oracle.grid_attacker_best.flops_computed": _FLOPS_PER_PAIR * pairs,
            "oracle.grid_attacker_best.bytes_computed": _BYTES_PER_PAIR * pairs,
            "harness.run_tradeoff_experiment.self_s": self_time["harness.run_tradeoff_experiment"],
            "cli.main.self_s": self_time["cli.main"],
            "trace.wall_s": wall_s,
            "trace.spans": len(self.spans),
        }
        for name in ("traces.load_traces", "traces.write_traces"):
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.rows"] = c[f"{name}.rows"]
            out[f"{name}.mb_per_s"] = _rate(c[f"{name}.bytes"] / 1e6, inclusive[name])
        for name, work in (
            ("traces.prediction_errors", "elems"),
            ("baselines.perturb_rows", "rows"),
            ("bpea.optimal_noise_batch", "elems"),
            ("bpea.conditional_leakage_noisy", "elems"),
            ("leakage.conditional_leakage", "elems"),
            ("streaming.apply_policy", "gops"),
            ("streaming.qoe_score", "gops"),
            ("oracle.empirical_conditional_leakage", "trials"),
            ("sphere.points_at_distance", "points"),
        ):
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.{work}"] = c[f"{name}.{work}"]
        for name in ("bpea.optimal_noise_batch", "bpea.conditional_leakage_noisy"):
            out[f"{name}.melems_per_s"] = _rate(c[f"{name}.elems"] / 1e6, inclusive[name])
        out["streaming.simulate_session.gops"] = c["streaming.simulate_session.gops"]
        out["oracle.grid_attacker_best.s"] = inclusive["oracle.grid_attacker_best"]
        out["harness.write_results.s"] = inclusive["harness.write_results"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                t for name, t in self_time.items() if name.split(".")[0] == layer
            )
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _lookup(module_name: str, func_name: str):
    return getattr(sys.modules[f"viewpriv.{module_name}"], func_name)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 and math.isfinite(seconds) else 0.0
