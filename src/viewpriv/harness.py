"""Experiment orchestration: synthetic trace sets, baseline calibration on a
training split, tradeoff rows over a privacy-requirement grid, and the
results CSV.

Every random draw is seeded from integers derived from the experiment seed
plus the grid point (requirement, policy, user, video), so results do not
depend on evaluation order and identical configurations produce
byte-identical output files.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import baselines
from .baselines import calibrate_noise_scales, perturb_rows, pspr
from .bpea import DEFAULT_MARGIN, check_margin
from .leakage import check_precision, check_requirement
from .policies import NoObfuscation, apply_policy, bpea_uploads
from .streaming import DEFAULT_BUDGET_MBIT, SessionConfig, score_sessions, tiles_of
from .traces import (
    DEFAULT_CONCENTRATION,
    MIN_GOPS,
    SessionTrace,
    check_concentration,
    generate_synthetic_traces,
    persistence_predict,
    prediction_errors,
)

DEFAULT_PRECISION = 0.1 * math.pi

# A policy's index here, and a baseline kind's in ``SEARCH_MAX``, key its RNG streams.
POLICY_NAMES = ("none", "bpea", *baselines.SEARCH_MAX)
_POLICY_IDS = {name: i for i, name in enumerate(POLICY_NAMES)}


def default_q_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(21))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _q_id(q: float) -> int:
    """A requirement's word of ``_rng``'s key: q in millionths."""
    return int(round(q * 1_000_000))


def check_seed(seed) -> int:
    """An experiment seed: an integer in [0, 2^32), one word of ``_rng``'s key."""
    if not (_is_int(seed) and 0 <= seed < 2 ** 32):
        raise ValueError(f"seed must be an integer in [0, 2^32), got {seed!r}")
    return int(seed)


def check_out_path(path) -> None:
    """Fail before any work when ``path`` names a directory, or the directory
    it would be written in is missing."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path!r} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"output directory {directory!r} does not exist")


@dataclass(frozen=True)
class ExperimentConfig:
    eps: float = DEFAULT_PRECISION
    q_grid: tuple = field(default_factory=default_q_grid)
    policies: tuple = ("bpea", "gaussian", "laplace")
    num_users: int = 48
    num_videos: int = 4            # evaluation videos per user
    num_train_videos: int = 5      # calibration videos per user
    gops_per_video: int = 60
    seed: int = 0
    budget_mbit: float = DEFAULT_BUDGET_MBIT
    margin: float = DEFAULT_MARGIN
    concentration: float = DEFAULT_CONCENTRATION
    calibration_step: float = baselines.DEFAULT_SEARCH_STEP
    compute_qoe: bool = True   # False runs the upload pipeline only (QoE column = nan)
    out_path: str | None = None

    def __post_init__(self):
        check_precision(self.eps)
        if not self.q_grid:
            raise ValueError("q grid must not be empty")
        keys: dict = {}
        for q in self.q_grid:
            check_requirement(q)
            if (prior := keys.get(_q_id(q))) is not None:
                raise ValueError(f"q values {prior!r} and {q!r} repeat or round to the same "
                                 "millionth, which seeds their baseline noise")
            keys[_q_id(q)] = q
        if not self.policies:
            raise ValueError("need at least one policy")
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policies must not repeat, got {self.policies}")
        for name in ("num_users", "num_videos", "num_train_videos", "gops_per_video"):
            if not _is_int(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        check_seed(self.seed)
        if min(self.num_users, self.num_videos) < 1 or self.num_train_videos < 1:
            raise ValueError("need at least one user and one video per split")
        if self.gops_per_video < MIN_GOPS:
            raise ValueError(f"traces need at least {MIN_GOPS} GoPs")
        SessionConfig(self.budget_mbit)   # rejects a negative or NaN budget
        check_margin(self.margin)
        check_concentration(self.concentration)
        baselines.check_search_step(self.calibration_step)
        if self.out_path is not None:
            check_out_path(self.out_path)


@dataclass(frozen=True)
class TradeoffRow:
    q: float
    policy: str
    pr_leak: float
    mean_error_rad: float
    mean_abs_noise_rad: float
    qoe: float
    pspr: float


RESULTS_HEADER = [f.name for f in fields(TradeoffRow)]


@dataclass
class ExperimentResult:
    rows: list
    calibrations: dict
    calibration_trace_keys: frozenset
    evaluation_trace_keys: frozenset

    @property
    def any_infeasible(self) -> bool:
        return any(not c.feasible for c in self.calibrations.values())


def _rng(*parts: int) -> np.random.Generator:
    # Key words lie in [0, 2^32); numpy raises on a Python int outside that range.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(parts, np.uint32))))


def synthesize_traces(seed: int, users: int, videos: int, gops: int,
                      concentration: float = DEFAULT_CONCENTRATION) -> list[SessionTrace]:
    """Synthetic traces for every (user, video) pair, user-major. Each trace
    draws from its own RNG seeded by (seed, user, video), so the same pair
    gives the same trace in every command and split."""
    check_seed(seed)
    if min(users, videos) < 1:
        raise ValueError("need at least one user and one video")
    keys = [(user, video) for user in range(users) for video in range(videos)]
    rngs = [_rng(seed, 1, user, video) for user, video in keys]
    return generate_synthetic_traces(keys, gops, rngs, concentration)


def generate_trace_set(cfg: ExperimentConfig) -> tuple[list[SessionTrace], list[SessionTrace]]:
    """Synthesize the (training, evaluation) trace split."""
    traces = synthesize_traces(cfg.seed, cfg.num_users, cfg.num_train_videos + cfg.num_videos,
                               cfg.gops_per_video, cfg.concentration)
    train = [t for t in traces if t.video_id < cfg.num_train_videos]
    return train, [t for t in traces if t.video_id >= cfg.num_train_videos]


def _calibration_pipeline(cfg: ExperimentConfig, kind: str, train: list[SessionTrace]):
    """Scales -> (scales, errors) prediction errors over the stacked training
    traces, with one RNG per (kind, scale), per the seed discipline for
    calibration. Training traces must share a GoP count (synthetic sets do).
    """
    stacked = np.stack([t.actual for t in train])
    rows = stacked.reshape(-1, 3)
    kind_id = tuple(baselines.SEARCH_MAX).index(kind)

    def pipeline(scales: np.ndarray) -> np.ndarray:
        noisy = np.stack([
            perturb_rows(rows, kind, scale,
                         _rng(cfg.seed, 2, kind_id, int(round(scale / cfg.calibration_step))))
            for scale in scales.tolist()
        ]).reshape((len(scales),) + stacked.shape)
        return prediction_errors(persistence_predict(noisy), stacked).reshape(len(scales), -1)

    return pipeline


def calibrate_baselines(cfg: ExperimentConfig, train: list[SessionTrace]) -> dict:
    """{(policy, q): CalibrationResult} for every baseline policy of ``cfg``
    and every q of its grid, from one forward scan per policy on ``train``."""
    calibrations: dict = {}
    for kind in cfg.policies:
        if kind in baselines.SEARCH_MAX:
            pipeline = _calibration_pipeline(cfg, kind, train)
            results = calibrate_noise_scales(pipeline, cfg.eps, cfg.q_grid, kind,
                                             step=cfg.calibration_step)
            calibrations.update(((kind, q), r) for q, r in zip(cfg.q_grid, results))
    return calibrations


def run_tradeoff_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Calibrate, simulate, and aggregate one row per (q, policy)."""
    train, evaluation = generate_trace_set(cfg)
    calibrations = calibrate_baselines(cfg, train)

    # Rows without viewpoint noise upload the clean persistence errors of all traces at once.
    actual = np.stack([t.actual for t in evaluation])
    clean = apply_policy(actual, NoObfuscation(), cfg.eps, None)
    if cfg.compute_qoe:
        actual_tiles, clean_tiles = tiles_of(actual), tiles_of(clean.predicted)

    def measure(app):
        """An upload's (pr_leak, mean_error_rad, mean_abs_noise_rad, qoe, per-trace leakage)."""
        qoe = math.nan
        if cfg.compute_qoe:
            pfov = clean_tiles if app.predicted is clean.predicted else tiles_of(app.predicted)
            reports = score_sessions(pfov, app.uploaded, actual_tiles,
                                     SessionConfig(cfg.budget_mbit))
            qoe = np.mean([r.qoe for r in reports])
        errs, noises, leak = app.errors, app.noises, app.per_gop_leakage
        return (float(np.mean(leak)), float(np.mean(np.mean(errs, axis=1))),
                float(np.mean(np.mean(np.abs(noises), axis=1))), float(qoe), np.mean(leak, axis=1))

    def measured_uploads(name):
        """Yield the measured upload of policy ``name`` at each q of the grid."""
        if name == "bpea":   # one solver on the clean errors, freed when this generator ends
            yield from map(measure, bpea_uploads(clean.predicted, clean.errors, cfg.eps,
                                                 cfg.margin, cfg.q_grid))
            return
        for q in cfg.q_grid:
            if name != "none" and (scale := calibrations[(name, q)].scale).value > 0.0:
                # One RNG per trace, seeded by (q, policy, user, video).
                rngs = [_rng(cfg.seed, 3, _q_id(q), _POLICY_IDS[name], t.user_id, t.video_id)
                        for t in evaluation]
                yield measure(apply_policy(actual, scale, cfg.eps, rngs))
            else:   # no noise: "none", or a baseline at scale 0, which perturbs nothing
                yield clean_measured

    clean_measured = measure(clean)
    # Each policy's rows are measured in turn, then interleaved q-major.
    columns = [list(measured_uploads(name)) for name in cfg.policies]
    rows = [TradeoffRow(q, name, *values, pspr(per_trace_leak, q))
            for q, *measured in zip(cfg.q_grid, *columns)
            for name, (*values, per_trace_leak) in zip(cfg.policies, measured)]

    result = ExperimentResult(
        rows=rows,
        calibrations=calibrations,
        # Calibration reads every training trace, and only baselines calibrate.
        calibration_trace_keys=frozenset((t.user_id, t.video_id) for t in train if calibrations),
        evaluation_trace_keys=frozenset((t.user_id, t.video_id) for t in evaluation),
    )
    if cfg.out_path is not None:
        write_results(rows, cfg.out_path)
    return result


def write_results(rows: list, path) -> None:
    """Write tradeoff rows; float fields use repr for byte-stable output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in astuple(row)])
