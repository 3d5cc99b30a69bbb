"""Experiment orchestration: synthetic trace sets, baseline calibration on a
training split, tradeoff rows over a privacy-requirement grid, and the
results CSV.

Every random draw has its own RNG, keyed by the experiment seed, a word
naming the stage and the draw's place in it: ``(seed, 1, user, video)``
synthesizes a trace, ``(seed, 2, kind id, scale index)`` perturbs the
training traces at one calibration scale, and ``(seed, 3, q in millionths,
policy id, user, video)`` perturbs one evaluation trace of a baseline row.
So results do not depend on evaluation order, and identical configurations
produce byte-identical output files.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import baselines
from .baselines import calibrate_noise_scales, perturb_traces, pspr
from .bpea import DEFAULT_MARGIN, check_margin
from .leakage import check_precision, check_requirement
from .policies import NoObfuscation, apply_policy, bpea_uploads
from .sphere import is_integer, norm
from .streaming import DEFAULT_BUDGET_MBIT, check_budget, score_sessions, tiles_of
from .traces import (
    DEFAULT_CONCENTRATION,
    check_concentration,
    check_gops,
    generate_synthetic_traces,
    persistence_predict,
    prediction_errors,
)

DEFAULT_PRECISION = 0.1 * math.pi
# Fewest scale keys a calibration key window is seeded with: a scan at the default
# step (at most 141 scales) seeds one window, and a fine step one window past its end.
SCALE_KEYS_PER_PASS = 256

# A policy's index here, and a baseline kind's in ``SEARCH_MAX``, key its RNG streams.
POLICY_NAMES = ("none", "bpea", *baselines.SEARCH_MAX)


def default_q_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(21))


def _check_integers(**counts) -> None:
    for name, value in counts.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _q_id(q: float) -> int:
    """A requirement's word of its baseline rows' RNG keys: q in millionths."""
    return int(round(q * 1_000_000))


def check_seed(seed) -> int:
    """An experiment seed: an integer in [0, 2^32), the first word of every RNG key."""
    if not (is_integer(seed) and 0 <= seed < 2 ** 32):
        raise ValueError(f"seed must be an integer in [0, 2^32), got {seed!r}")
    return int(seed)


def check_out_path(path) -> None:
    """Fail before any work when ``path`` is empty or names a directory, or
    the directory it would be written in is missing."""
    if not os.fspath(path):
        raise ValueError("output path must not be empty")
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
        for name in ("q_grid", "policies"):   # a one-shot iterable is read once, here
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        _check_integers(**{name: getattr(self, name) for name in (
            "num_users", "num_videos", "num_train_videos", "gops_per_video")})
        check_seed(self.seed)
        if min(self.num_users, self.num_videos) < 1 or self.num_train_videos < 1:
            raise ValueError("need at least one user and one video per split")
        check_gops(self.gops_per_video)
        check_budget(self.budget_mbit)
        check_margin(self.margin, self.eps if "bpea" in self.policies else None)   # only bpea solves
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), for ``_seed_words``.
_POOL_SIZE, _XSHIFT = 4, np.uint32(16)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32: init, then each times ``mult`` again, mod 2^32."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, np.uint32)[:, None]


def _seed_words(*parts) -> np.ndarray:
    """PCG64 seed words of every key that the integer arrays ``parts``
    broadcast to: for the key (w_1, ..., w_L) at each element of the
    broadcast, ``SeedSequence([w_1, ..., w_L]).generate_state(4, np.uint64)``,
    as a (..., 4) array. It runs SeedSequence's hash over all keys at once, so
    a batch pays numpy's per-call cost once. Every word must be an integer in
    [0, 2^32), where SeedSequence takes it as one 32-bit word."""
    words = []
    for part in map(np.asarray, parts):
        if part.dtype.kind not in "iu" or part.size and not (part.min() >= 0
                                                             and part.max() < 2 ** 32):
            raise OverflowError(f"key words must be integers in [0, 2^32), got {part!r}")
        words.append(part.astype(np.uint32))
    words = np.stack(np.broadcast_arrays(*words))
    shape, words = words.shape[1:], words.reshape(len(parts), -1)   # one column per key
    # Each hashmix XORs the value with one constant and multiplies by the next.
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + 1
                             + _POOL_SIZE * max(len(parts) - _POOL_SIZE, 0))

    def hashmix(value, start, count):
        value = value ^ consts[start:start + count]
        value *= consts[start + 1:start + count + 1]
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        x *= _MIX_MULT_L
        x -= y * _MIX_MULT_R
        x ^= x >> _XSHIFT
        return x

    pool = np.zeros((_POOL_SIZE, words.shape[1]), np.uint32)   # a short key hashes zeros after it
    pool[:len(parts)] = words[:_POOL_SIZE]
    pool, used = hashmix(pool, 0, _POOL_SIZE), _POOL_SIZE
    for src in range(_POOL_SIZE):   # every pool word into every other, in order
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], used, _POOL_SIZE - 1))
        used += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, len(parts)):   # then each further key word into the pool
        pool = mix(pool, hashmix(words[src], used, _POOL_SIZE))
        used += _POOL_SIZE
    out_consts = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    state = np.concatenate((pool, pool)) ^ out_consts[:-1]   # 8 words, cycling the pool
    state *= out_consts[1:]
    state ^= state >> _XSHIFT
    # Pairs of little-endian 32-bit words make each 64-bit word, as in generate_state.
    return (np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
            .reshape(shape + (4,)))


@functools.cache
def _seed_words_type() -> type:
    """A numpy ``ISeedSequence`` that holds only the four words PCG64 asks
    for. It is made on first use, so importing the harness does not import
    ``numpy.random``, which costs every command's start-up time and memory."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise NotImplementedError("only PCG64's request, 4 uint64 words, is kept")
            return self.words

    return SeedWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence(key)))`` from the key's ``_seed_words``."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def synthesize_traces(seed: int, users: int, videos: int, gops: int,
                      concentration: float = DEFAULT_CONCENTRATION) -> np.ndarray:
    """The synthetic walk of every (user, video) pair, as a C-contiguous
    (users, videos, GoPs, 3) stack of rows not yet renormalised. Each trace
    draws from its own RNG seeded by (seed, user, video), so the same pair
    gives the same trace in every command and split."""
    check_seed(seed)
    _check_integers(users=users, videos=videos, gops=gops)
    if min(users, videos) < 1:
        raise ValueError("need at least one user and one video")
    check_gops(gops)
    check_concentration(concentration)   # every argument is checked before any key is seeded
    words = _seed_words(seed, 1, np.arange(users)[:, None], np.arange(videos))
    rngs = [_generator(w) for w in words.reshape(-1, 4)]
    return generate_synthetic_traces(gops, rngs, concentration).reshape(users, videos, gops, 3)


def generate_trace_set(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the (training, evaluation) split as C-contiguous, user-major
    (traces, GoPs, 3) stacks: each user's first ``num_train_videos`` videos,
    then the rest."""
    stack = synthesize_traces(cfg.seed, cfg.num_users, cfg.num_train_videos + cfg.num_videos,
                              cfg.gops_per_video, cfg.concentration)
    # Each row over its norm, as ``unit_rows`` gives it: in place and a user at a
    # time, since the whole stack's temporaries would raise the peak memory.
    for user in stack:
        user /= norm(user)[..., None]
    gops, split = cfg.gops_per_video, cfg.num_train_videos
    # Each reshape copies its slice into a C-contiguous stack (or views a contiguous one).
    return stack[:, :split].reshape(-1, gops, 3), stack[:, split:].reshape(-1, gops, 3)


def _calibration_pipeline(cfg: ExperimentConfig, kind: str, stacked: np.ndarray):
    """(scale indices, scales) -> prediction errors over the stacked (traces,
    GoPs, 3) training viewpoints, with one RNG per (kind, scale index), per
    the seed discipline for calibration: scale keys are seeded into one window,
    reseeded from the first scale of a block that runs past it, and a block of
    scales builds its own RNGs and is perturbed in one call."""
    rows = stacked.reshape(-1, 3)
    kind_id = tuple(baselines.SEARCH_MAX).index(kind)
    words, first = np.empty((0, 4), np.uint64), 0   # seed words of scale indices first, ...

    def pipeline(indices: np.ndarray, scales: np.ndarray) -> np.ndarray:
        nonlocal words, first
        if indices[-1] >= first + len(words):   # blocks ascend: no later block reads keys below
            first, count = indices[0], max(len(indices), SCALE_KEYS_PER_PASS)
            words = _seed_words(cfg.seed, 2, kind_id, np.arange(first, first + count))
        rngs = [_generator(w) for w in words[indices - first]]
        noisy = perturb_traces(np.broadcast_to(rows, (len(scales),) + rows.shape), kind, scales,
                               rngs).reshape((len(scales),) + stacked.shape)
        return prediction_errors(persistence_predict(noisy), stacked).reshape(len(scales), -1)

    return pipeline


def calibrate_baselines(cfg: ExperimentConfig, train: np.ndarray) -> dict:
    """{(policy, q): CalibrationResult} for every baseline policy of ``cfg``
    and every q of its grid, from one forward scan per policy on the
    (traces, GoPs, 3) training stack ``train``."""
    calibrations: dict = {}
    for kind in [name for name in cfg.policies if name in baselines.SEARCH_MAX]:
        results = calibrate_noise_scales(_calibration_pipeline(cfg, kind, train), cfg.eps,
                                         cfg.q_grid, kind, step=cfg.calibration_step)
        calibrations.update(((kind, q), r) for q, r in zip(cfg.q_grid, results))
    return calibrations


def run_tradeoff_experiment(cfg: ExperimentConfig) -> tuple[list, dict]:
    """Calibrate, simulate, and aggregate one row per (q, policy); returns (rows, calibrations)."""
    train, actual = generate_trace_set(cfg)
    calibrations = calibrate_baselines(cfg, train)
    del train   # calibration is its only reader

    # Rows without viewpoint noise upload the clean persistence errors of all traces at once.
    clean = apply_policy(actual, NoObfuscation(), cfg.eps, None)
    if cfg.compute_qoe:
        actual_tiles, clean_tiles = tiles_of(actual), tiles_of(clean.predicted)

    def measure(app):
        """An upload's (pr_leak, mean_error_rad, mean_abs_noise_rad, qoe, per-trace leakage)."""
        qoe = math.nan
        if cfg.compute_qoe:
            pfov = clean_tiles if app.predicted is clean.predicted else tiles_of(app.predicted)
            reports = score_sessions(pfov, app.uploaded, actual_tiles, cfg.budget_mbit)
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
        if name != "none":   # one RNG per trace per q, keyed by (q, policy, user, video)
            q_ids = np.array([_q_id(q) for q in cfg.q_grid])[:, None, None]
            words = _seed_words(cfg.seed, 3, q_ids, POLICY_NAMES.index(name),
                                np.arange(cfg.num_users)[:, None],
                                cfg.num_train_videos + np.arange(cfg.num_videos))
        for i, q in enumerate(cfg.q_grid):
            if name != "none" and (scale := calibrations[(name, q)].scale).value > 0.0:
                rngs = [_generator(w) for w in words[i].reshape(-1, 4)]
                yield measure(apply_policy(actual, scale, cfg.eps, rngs))
            else:   # no noise: "none", or a baseline at scale 0, which perturbs nothing
                yield clean_measured

    clean_measured = measure(clean)
    # Each policy's rows are measured in turn, then interleaved q-major.
    columns = [list(measured_uploads(name)) for name in cfg.policies]
    rows = [TradeoffRow(q, name, *values, pspr(per_trace_leak, q))
            for q, *measured in zip(cfg.q_grid, *columns)
            for name, (*values, per_trace_leak) in zip(cfg.policies, measured)]

    if cfg.out_path is not None:
        write_results(rows, cfg.out_path)
    return rows, calibrations


def write_results(rows: list, path) -> None:
    """Write tradeoff rows in ``RESULTS_HEADER`` order; floats use repr for byte-stable output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            values = [getattr(row, name) for name in RESULTS_HEADER]
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in values])
