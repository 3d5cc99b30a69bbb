"""Viewpoint-noise baselines, their calibration, and the requirement
satisfaction ratio.

The baselines perturb three-dimensional viewpoint coordinates with zero-mean
Gaussian or Laplace noise and renormalize to the unit sphere. Such noise
only reshapes the error distribution, and eps/pi bounds the leakage of every
error distribution; as its scale grows, coordinate noise tends to
``uniform_error_leakage(eps)``, above that bound. Calibration searches the
scale parameter with one forward scan per noise kind, shared by every
requirement, and reports infeasibility when no scale meets a requirement.
A ``NoiseScale`` (noise kind and scale) is itself the baseline policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .leakage import check_precision, check_requirement, conditional_leakage
from .sphere import norm

GAUSSIAN_KIND = "gaussian"
LAPLACE_KIND = "laplace"

# Largest scale the one-dimensional calibration search scans, per kind.
SEARCH_MAX = {GAUSSIAN_KIND: 7.0, LAPLACE_KIND: 6.0}
DEFAULT_SEARCH_STEP = 0.05
# Errors one pipeline call of a scan evaluates at most, after scale 0. Small
# sets pay numpy's per-call cost once per block of scales, not per scale.
SCAN_BLOCK_ERRORS = 16_384
# Scales one scan holds at most; a fine step with an infeasible q scans them all.
MAX_SCAN_SCALES = 2 ** 23


def check_search_step(step: float) -> float:
    if not 0.0 < step < math.inf:
        raise ValueError(f"search step must be positive, got {step!r}")
    if step < (least := max(SEARCH_MAX.values()) / (MAX_SCAN_SCALES - 1)):
        raise ValueError(f"search step must be at least {least!r}, a scan of at most "
                         f"{MAX_SCAN_SCALES} scales, got {step!r}")
    return step


@dataclass(frozen=True)
class NoiseScale:
    """The baseline policy named ``kind``: zero-mean noise of scale ``value``
    (Gaussian sigma, Laplace b) on each viewpoint coordinate."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in SEARCH_MAX:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"noise scale must be non-negative, got {self.value!r}")


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the forward scan over noise scales.

    ``scale`` is the scale to run: the smallest scanned scale meeting the
    requirement when ``feasible``, otherwise the first scanned scale with the
    lowest achieved leakage, for callers that must run a baseline even when
    the requirement is unattainable. ``achieved_leakage`` belongs to ``scale``.
    """

    scale: NoiseScale
    achieved_leakage: float
    search_evals: int
    feasible: bool


def perturb_traces(points: np.ndarray, kind: str, value, rngs: Sequence) -> np.ndarray:
    """Add per-coordinate noise to (traces, n, 3) unit rows and renormalize.
    ``value`` is one scale, or one per trace. Trace i draws its (n, 3) noise from
    ``rngs[i]`` alone, at its own scale; at scale 0 it draws nothing and comes back
    unchanged. A row perturbed to (numerically) zero, of probability zero, raises."""
    pts = np.asarray(points, dtype=float)
    values = np.asarray(value, dtype=float)
    if (pts.ndim != 3 or pts.shape[2] != 3 or not len(pts) or len(rngs) != len(pts)
            or values.ndim > 1 or values.size not in (1, len(pts))):
        raise ValueError(f"need (traces, n, 3) rows, one RNG per trace and one scale or one "
                         f"per trace, got {pts.shape}, {len(rngs)} RNGs, {values.size} scales")
    values = np.broadcast_to(values, len(pts))
    for extreme in (values.min(), values.max()):   # checks every scale: a NaN is both
        NoiseScale(kind, float(extreme))
    if not values.any():   # no trace draws
        return pts.copy()
    scales = values.tolist()
    draws = [rng.normal if kind == GAUSSIAN_KIND else rng.laplace for rng in rngs]
    if len(pts) == 1:   # a lone trace adds its rows to its draw, with no second buffer
        noisy = draws[0](0.0, scales[0], size=pts.shape[1:])[None]
        noisy += pts
    else:   # each draw is added into its slab of a copy of the block, so no draw is copied
        noisy = pts.copy()
        for draw, scale, slab in zip(draws, scales, noisy):
            if scale:   # a trace at scale 0 draws nothing
                slab += draw(0.0, scale, size=pts.shape[1:])
    norms = norm(noisy)
    norms[values == 0.0] = 1.0   # a trace at scale 0 is divided by 1: unchanged
    finite = np.isfinite(norms).all(axis=-1)   # a non-finite coordinate gives a non-finite norm
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        if np.all(np.isfinite(pts[i])):
            raise ValueError(f"noise scale {scales[i]!r} is too large: squared row norms overflow")
        raise ValueError("rows must be finite and nonzero")
    if np.any(norms < 1e-12):
        raise ValueError("a row was perturbed to (numerically) zero")
    noisy /= norms[..., None]
    return noisy


def perturb_rows(points: np.ndarray, kind: str, value: float, rng: np.random.Generator) -> np.ndarray:
    """``perturb_traces`` of one trace's (n, 3) unit rows, with one RNG."""
    return perturb_traces(np.asarray(points, dtype=float)[None], kind, value, [rng])[0]


def calibrate_noise_scales(
    error_pipeline: Callable[[np.ndarray, np.ndarray], np.ndarray],
    eps: float,
    q_grid,
    kind: str,
    step: float = DEFAULT_SEARCH_STEP,
) -> list[CalibrationResult]:
    """One forward scan over noise scales that calibrates every requirement
    in ``q_grid``; returns one result per q, in grid order.

    ``error_pipeline(indices, scales)`` maps a block of k scales, given by
    their indices in the scan (scale i is ``min(i * step, SEARCH_MAX[kind])``)
    and their values, to a (k, n) array: row j holds the prediction errors
    measured on the calibration traces after obfuscation at scale j. It must
    be deterministic per scale (callers key its randomness by the index, not
    by the block). Scale 0 is evaluated alone; then blocks of at most
    ``SCAN_BLOCK_ERRORS`` errors (at least one scale) are evaluated in order
    until a block holds a scale meeting ``min(q_grid)`` or the scales run
    out. Each q reads its result from the first scale meeting it, so scales
    evaluated past that one in its block change nothing. A forward scan is
    used instead of bisection because the achieved leakage need not be
    monotone in the scale near the eps/pi floor. ``search_evals`` counts the
    scales a one-scale-per-call scan for that q alone would have visited.
    """
    check_precision(eps)
    qs = [check_requirement(q) for q in q_grid]
    check_search_step(step)
    if kind not in SEARCH_MAX:
        raise ValueError(f"unknown noise kind {kind!r}")
    search_max = SEARCH_MAX[kind]

    target = min(qs)   # an empty grid raises ValueError here, before any scan
    leaks = np.empty(int(math.floor(search_max / step + 1e-9)) + 1)   # per scale, as reached
    start, end, per_call = 0, 0, 1   # leaks[start:end] is the last block; scale 0 goes alone
    while end < len(leaks) and not (leaks[start:end] <= target).any():
        indices = np.arange(end, min(end + per_call, len(leaks)))
        errors = np.asarray(error_pipeline(indices, np.minimum(indices * step, search_max)),
                            dtype=float)
        if errors.ndim != 2 or len(errors) != len(indices) or errors.size == 0:
            raise ValueError(f"error pipeline must give one non-empty row of errors per scale, "
                             f"got shape {errors.shape} for {len(indices)} scales")
        leaks[end:end + len(indices)] = conditional_leakage(errors, eps).mean(axis=-1)
        start, end, per_call = end, end + len(indices), max(1, SCAN_BLOCK_ERRORS // errors.shape[1])

    leaks, results = leaks[:end], []
    for q in qs:
        meets = leaks <= q
        i = int(meets.argmax() if meets.any() else leaks.argmin())   # else the first lowest
        scale = NoiseScale(kind, float(min(i * step, search_max)))
        evals = i + 1 if meets[i] else end
        results.append(CalibrationResult(scale, float(leaks[i]), evals, bool(meets[i])))
    return results


def calibrate_noise_scale(
    error_pipeline: Callable[[np.ndarray], np.ndarray],
    eps: float,
    q: float,
    kind: str,
    step: float = DEFAULT_SEARCH_STEP,
) -> CalibrationResult:
    """Smallest scanned scale whose leakage meets q: the one-requirement
    call of ``calibrate_noise_scales``."""
    return calibrate_noise_scales(error_pipeline, eps, (q,), kind, step)[0]


def pspr(per_trace_leakage, q: float) -> float:
    """Fraction of per-trace leakage values meeting the requirement q."""
    q = check_requirement(q)
    values = np.asarray(per_trace_leakage, dtype=float)
    if values.size == 0:
        raise ValueError("cannot compute a satisfaction ratio over no traces")
    return float(np.mean(values <= q))
