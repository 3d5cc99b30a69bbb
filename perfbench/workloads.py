"""The four benchmark workloads: inputs made from the seed, the calls into
viewpriv's public API, and the checks on their outputs.

A workload seed selects one of ``INSTANCES`` input instances; each instance
has reference outputs recorded by ``record_reference.py`` under
``reference/<workload>/``. The checks compare against them, so a change
that alters results fails the benchmark instead of looking faster.

Every workload reaches viewpriv through module attributes at call time
(``streaming.apply_policy(...)``, not a name bound at import) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from viewpriv import bpea, cli, harness, oracle, streaming, traces
from viewpriv.harness import ExperimentConfig
from viewpriv.policies import BpeaPolicy, NoObfuscation

INSTANCES = 16
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

EPS = harness.DEFAULT_PRECISION
Q_GRID = harness.default_q_grid()

# Relative and absolute tolerance on results-CSV floats: admits the ~1e-13
# drift a reordered trace walk gives, rejects any change of method.
CSV_REL_TOL = 1e-9
CSV_ABS_TOL = 1e-12
# load_traces renormalises every row, so a written coordinate can come back
# one ulp off; two ulps of 1.0 bounds that.
ROUND_TRIP_TOL = 2.0 * float(np.spacing(1.0))
NOISE_TOL = 1e-12


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def _rng(instance: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([instance, tag]))


class Checks:
    """Counts checked outputs; each failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict = {}

    def expect(self, ok, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=CSV_REL_TOL, abs_tol=CSV_ABS_TOL)


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_results_csv(checks: Checks, rows: list[list[str]], reference: dict) -> None:
    header, body = rows[0], rows[1:]
    ref_rows = reference["rows"]
    checks.expect(header == reference["header"] and len(body) == len(ref_rows),
                  f"results CSV has {len(body)} rows, header {header}")
    p = header.index("policy")
    for row, ref in zip(body, ref_rows):
        same = (len(row) == len(ref) and row[0] == ref[0] and row[p] == ref[p]
                and all(_close(a, b) for i, (a, b) in enumerate(zip(row, ref)) if i not in (0, p)))
        checks.expect(same, f"row {ref[0]},{ref[p]}: {row} != reference {ref}")
    for row in body:
        if row[p] == "bpea":
            checks.expect(float(row[header.index("pspr")]) == 1.0,
                          f"bpea pspr at q={row[0]} is {row[header.index('pspr')]}")


def _csv_reference(rows: list[list[str]]) -> dict:
    return {"header": rows[0], "rows": rows[1:]}


class _Experiment:
    """Shape shared by the two tradeoff-experiment workloads."""

    work_unit = "evaluated GoPs x q values x policies"
    probes = ("calls",)   # machine-speed probes that scale its CPU time (probe.py)
    videos = 4
    train_videos = 5
    policies = ("bpea", "gaussian", "laplace")
    users: int
    gops: int

    @property
    def work(self) -> int:
        return self.users * self.videos * self.gops * len(Q_GRID) * len(self.policies)

    def sizes(self) -> dict:
        return {"users": self.users, "traces": self.users * (self.videos + self.train_videos),
                "eval_traces": self.users * self.videos, "gops_per_trace": self.gops,
                "q_values": len(Q_GRID), "policies": len(self.policies)}


class TradeoffQoe(_Experiment):
    """ROADMAP W1 through the CLI: 4 eval + 5 train videos, 60 GoPs, 21 q
    values, bpea/gaussian/laplace, fine 0.05 calibration step. Users are cut
    from 48 to 4 so one run fits the benchmark's time budget; every stage
    scales with the user count, so the layer shares keep their shape."""

    name = "tradeoff_qoe"
    users = 4
    gops = 60

    def __init__(self, instance: int, workdir: str, tag: str):
        self.instance = instance
        self.out = os.path.join(workdir, f"{self.name}-{tag}.csv")
        self.argv = ["tradeoff", "--users", str(self.users), "--videos", str(self.videos),
                     "--train-videos", str(self.train_videos), "--gops", str(self.gops),
                     "--policies", ",".join(self.policies), "--seed", str(instance),
                     "--out", self.out]

    @property
    def operations(self) -> int:
        return 2 + len(Q_GRID) * (len(self.policies) + 1)

    def run(self):
        exit_code = cli.main(self.argv)
        return exit_code, _read_csv(self.out)

    def reference_of(self, result) -> dict:
        exit_code, rows = result
        return {"exit_code": exit_code, **_csv_reference(rows)}

    def check(self, result, reference: dict) -> Checks:
        checks = Checks()
        exit_code, rows = result
        checks.expect(exit_code == reference["exit_code"],
                      f"exit code {exit_code}, expected {reference['exit_code']}")
        _check_results_csv(checks, rows, reference)
        return checks


class UploadLong(_Experiment):
    """ROADMAP W2 (acceptance criterion 5): upload pipeline only, no QoE,
    calibration step 1.0, 2000-GoP traces. Users are cut from 48 to 2."""

    name = "upload_long"
    users = 2
    gops = 2000

    def __init__(self, instance: int, workdir: str, tag: str):
        self.instance = instance
        self.cfg = ExperimentConfig(
            num_users=self.users, num_videos=self.videos, num_train_videos=self.train_videos,
            gops_per_video=self.gops, seed=instance, policies=self.policies,
            compute_qoe=False, calibration_step=1.0,
            out_path=os.path.join(workdir, f"{self.name}-{tag}.csv"),
        )

    @property
    def operations(self) -> int:
        return 1 + len(Q_GRID) * (len(self.policies) + 1)

    def run(self):
        harness.run_tradeoff_experiment(self.cfg)
        return _read_csv(self.cfg.out_path)

    def reference_of(self, result) -> dict:
        return _csv_reference(result)

    def check(self, result, reference: dict) -> Checks:
        checks = Checks()
        _check_results_csv(checks, result, reference)
        return checks


class TraceIngest:
    """Recorded-trace replay: write a trace set with pred_* columns, load
    it back, and run the upload pipeline (``none`` once, ``bpea`` per q) on
    the loaded traces through the supplied-prediction path."""

    name = "trace_ingest"
    work_unit = "trace rows written + read"
    probes = ("calls",)
    num_traces = 16
    gops = 1000
    horizon = traces.DEFAULT_HORIZON

    def __init__(self, instance: int, workdir: str, tag: str):
        self.instance = instance
        self.path = os.path.join(workdir, f"{self.name}-{tag}.csv")
        self.traces = self._make_traces(_rng(instance, 3))

    def _make_traces(self, rng: np.random.Generator) -> list:
        # A smooth head walk plus a noisy lagged prediction, built with numpy
        # so that trace synthesis stays out of this workload.
        shape = (self.num_traces, self.gops, 3)
        walk = rng.normal(size=(self.num_traces, 1, 3)) + np.cumsum(
            rng.normal(scale=0.12, size=shape), axis=1)
        walk /= np.linalg.norm(walk, axis=-1, keepdims=True)
        lagged = walk[:, np.maximum(np.arange(self.gops) - self.horizon, 0), :]
        predicted = lagged + rng.normal(scale=0.08, size=shape)
        predicted /= np.linalg.norm(predicted, axis=-1, keepdims=True)
        return [traces.SessionTrace(i // 4, i % 4, walk[i], predicted[i])
                for i in range(self.num_traces)]

    @property
    def rows(self) -> int:
        return self.num_traces * self.gops

    @property
    def work(self) -> int:
        return 2 * self.rows

    @property
    def operations(self) -> int:
        return 2 + self.num_traces * (1 + len(Q_GRID)) + 1 + len(Q_GRID)

    def sizes(self) -> dict:
        return {"traces": self.num_traces, "gops_per_trace": self.gops, "rows": self.rows,
                "q_values": len(Q_GRID)}

    def run(self):
        traces.write_traces(self.traces, self.path)
        loaded = traces.load_traces(self.path)
        rng = np.random.default_rng(0)   # none and bpea draw nothing
        applied = {"none": [streaming.apply_policy(t, NoObfuscation(), EPS, rng, self.horizon)
                            for t in loaded]}
        for q in Q_GRID:
            policy = BpeaPolicy(q=q)
            applied[repr(q)] = [streaming.apply_policy(t, policy, EPS, rng, self.horizon)
                                for t in loaded]
        with open(self.path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return digest, loaded, applied

    def reference_of(self, result) -> dict:
        digest, _, applied = result
        return {"csv_sha256": digest, "summary": _summaries(applied)}

    def check(self, result, reference: dict) -> Checks:
        checks = Checks()
        digest, loaded, applied = result
        checks.expect(digest == reference["csv_sha256"], "written trace CSV differs from reference")
        keys = [(t.user_id, t.video_id) for t in loaded]
        checks.expect(keys == [(t.user_id, t.video_id) for t in self.traces],
                      f"loaded trace keys {keys[:4]}... differ from the written ones")
        for src, got in zip(self.traces, loaded):
            ok = all(
                a is not None and b is not None and a.shape == b.shape
                and float(np.max(np.abs(a - b))) <= ROUND_TRIP_TOL
                for a, b in ((src.actual, got.actual), (src.predicted, got.predicted))
            )
            checks.expect(ok, f"trace {(src.user_id, src.video_id)} did not round-trip")
        for key, ref in reference["summary"].items():
            got = _summaries({key: applied[key]})[key]
            checks.expect(all(math.isclose(a, b, rel_tol=CSV_REL_TOL, abs_tol=CSV_ABS_TOL)
                              for a, b in zip(got, ref)),
                          f"{key}: summary {got} != reference {ref}")
        for q in Q_GRID:
            for t, app in zip(loaded, applied[repr(q)]):
                worst = float(np.max(app.per_gop_leakage))
                checks.expect(worst <= q, f"bpea leakage {worst} > q={q} on trace "
                                          f"{(t.user_id, t.video_id)}")
        checks.notes["round_trip_coords_not_bit_identical"] = sum(
            int(np.sum(a.actual != b.actual)) + int(np.sum(a.predicted != b.predicted))
            for a, b in zip(self.traces, loaded) if a.actual.shape == b.actual.shape)
        return checks


def _summaries(applied: dict) -> dict:
    """Per policy key: summed per-GoP leakage, mean error, mean |noise|."""
    return {
        key: [float(sum(np.sum(a.per_gop_leakage) for a in apps)),
              float(np.mean([a.mean_error_rad for a in apps])),
              float(np.mean([a.mean_abs_noise_rad for a in apps]))]
        for key, apps in applied.items()
    }


class AttackGrid:
    """Closed forms checked from geometry: solve the noise on an (e, q)
    grid, estimate the leakage at each (e, n*) by Monte Carlo, and run the
    grid attacker at a few mid-range errors."""

    name = "attack_grid"
    work_unit = "attacker (guess, actual-viewpoint) pairs scored"
    # Chunked products in grid_attacker_best, small-array calls around them.
    probes = ("calls", "matmul")
    num_errors = 12
    q_values = (0.0, 0.05, 0.1, 0.2, 0.4)
    num_grid_errors = 2
    trials = 20_000
    grid_resolution = 0.1

    def __init__(self, instance: int, workdir: str, tag: str):
        self.instance = instance
        rng = _rng(instance, 4)
        # Stratified errors over [0, pi), so every regime of e is present.
        self.errors = (np.arange(self.num_errors) + rng.random(self.num_errors)) \
            * (math.pi / self.num_errors)
        self.grid_errors = rng.uniform(0.5, math.pi - 0.5, self.num_grid_errors)
        self.cfg = oracle.OracleConfig(trials=self.trials, grid_resolution=self.grid_resolution,
                                       seed=instance)

    @property
    def lattice(self) -> int:
        # Nominal lattice size for the resolution, as grid_attacker_best
        # documents it (covering radius ~ sqrt(4*pi/count)).
        return max(64, int(math.ceil(16.0 * math.pi / self.grid_resolution ** 2)))

    @property
    def work(self) -> int:
        return (self.num_errors * len(self.q_values) * self.trials
                + self.num_grid_errors * self.lattice * self.trials)

    @property
    def operations(self) -> int:
        return len(self.q_values) * (1 + self.num_errors) + self.num_grid_errors

    def sizes(self) -> dict:
        return {"errors": self.num_errors, "q_values": len(self.q_values),
                "grid_errors": self.num_grid_errors, "trials": self.trials,
                "lattice": self.lattice}

    def run(self):
        noises, estimates = {}, {}
        for q in self.q_values:
            noise = bpea.optimal_noise_batch(self.errors, EPS, q)
            noises[repr(q)] = [float(n) for n in noise]
            estimates[repr(q)] = [
                [est.value, est.half_width]
                for est in (oracle.empirical_conditional_leakage(float(e), float(n), EPS, self.cfg)
                            for e, n in zip(self.errors, noise))
            ]
        grid = []
        for e in self.grid_errors:
            best, prob = oracle.grid_attacker_best(float(e), EPS, self.cfg)
            grid.append([prob, [float(x) for x in best.as_array()]])
        return {"noises": noises, "estimates": estimates, "grid": grid}

    def reference_of(self, result) -> dict:
        return result

    def check(self, result, reference: dict) -> Checks:
        checks = Checks()
        for q in self.q_values:
            key = repr(q)
            got, ref = result["noises"][key], reference["noises"][key]
            checks.expect(len(got) == len(ref) and np.allclose(got, ref, rtol=0.0, atol=NOISE_TOL),
                          f"q={key}: noise {got} != reference {ref}")
            for i, (g, r) in enumerate(zip(result["estimates"][key], reference["estimates"][key])):
                checks.expect(g == r, f"q={key}, e={self.errors[i]!r}: estimate {g} != {r}")
        for (prob, point), (ref_prob, ref_point) in zip(result["grid"], reference["grid"]):
            checks.expect(prob == ref_prob and np.allclose(point, ref_point, rtol=0.0, atol=NOISE_TOL),
                          f"grid attacker {prob} at {point} != reference {ref_prob} at {ref_point}")
        return checks


WORKLOADS = {w.name: w for w in (TradeoffQoe, UploadLong, TraceIngest, AttackGrid)}


def reference_path(name: str, instance: int) -> str:
    return os.path.join(REFERENCE_DIR, name, f"instance-{instance:02d}.json")


def load_reference(name: str, instance: int) -> dict:
    with open(reference_path(name, instance), encoding="utf-8") as fh:
        return json.load(fh)
