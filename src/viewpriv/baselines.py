"""Viewpoint-noise baselines, their calibration, and the requirement
satisfaction ratio.

The baselines perturb three-dimensional viewpoint coordinates with
zero-mean Gaussian or Laplace noise and renormalize to the unit sphere.
Because such noise only reshapes the error distribution, the achievable
leakage is floored at eps/pi regardless of scale; calibration searches the
scale parameter with one forward scan per noise kind, shared by every
requirement, and reports infeasibility when no scale meets a requirement.
A ``NoiseScale`` (noise kind and scale) is itself the baseline policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .leakage import (
    check_precision, check_requirement, conditional_leakage, optimal_error_distribution,
)
from .sphere import norm

GAUSSIAN_KIND = "gaussian"
LAPLACE_KIND = "laplace"

# Largest scale the one-dimensional calibration search scans, per kind.
SEARCH_MAX = {GAUSSIAN_KIND: 7.0, LAPLACE_KIND: 6.0}
DEFAULT_SEARCH_STEP = 0.05
# Errors one pipeline call of a scan below the leakage floor evaluates at most.
# Small sets pay numpy's per-call cost once per block of scales, not per scale.
SCAN_BLOCK_ERRORS = 16_384


def check_search_step(step: float) -> float:
    if not 0.0 < step < math.inf:
        raise ValueError(f"search step must be positive, got {step!r}")
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
    ``value`` is one scale, or one per trace. Trace i draws from ``rngs[i]``
    alone, at its own scale: its (n, 3) noise, then redraws of any rows
    perturbed to (numerically) zero, an event of probability zero. A trace at
    scale 0 comes back unchanged."""
    pts = np.asarray(points, dtype=float)
    values = np.asarray(value, dtype=float)
    if (pts.ndim != 3 or pts.shape[2] != 3 or not len(pts) or len(rngs) != len(pts)
            or values.ndim > 1 or values.size not in (1, len(pts))):
        raise ValueError(f"need (traces, n, 3) rows, one RNG per trace and one scale or one "
                         f"per trace, got {pts.shape}, {len(rngs)} RNGs, {values.size} scales")
    values = np.broadcast_to(values, len(pts))
    for extreme in (values.min(), values.max()):   # checks every scale: a NaN is both
        NoiseScale(kind, float(extreme))
    live = np.flatnonzero(values)
    if len(live) < len(pts):   # traces at scale 0 take no draw
        out = pts.copy()
        if len(live):
            out[live] = perturb_traces(pts[live], kind, values[live], [rngs[i] for i in live])
        return out
    scales = values.tolist()
    draws = [rng.normal if kind == GAUSSIAN_KIND else rng.laplace for rng in rngs]
    if len(pts) == 1:   # a lone trace adds its rows to its draw, with no second buffer
        noisy = draws[0](0.0, scales[0], size=pts.shape[1:])[None]
        noisy += pts
    else:   # each draw is added into its slab of the block, so no draw is copied
        noisy = np.empty(pts.shape)
        for draw, scale, slab, rows in zip(draws, scales, noisy, pts):
            np.add(draw(0.0, scale, size=pts.shape[1:]), rows, out=slab)
    norms = norm(noisy)
    bad = norms < 1e-12
    for i in np.flatnonzero(bad.any(axis=-1)):
        while np.any(bad[i]):
            redraw = draws[i](0.0, scales[i], size=(int(np.sum(bad[i])), 3))
            noisy[i, bad[i]] = pts[i, bad[i]] + redraw
            norms[i] = norm(noisy[i])
            bad[i] = norms[i] < 1e-12
    finite = np.isfinite(norms).all(axis=-1)   # a non-finite coordinate gives a non-finite norm
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        if np.all(np.isfinite(pts[i])):
            raise ValueError(f"noise scale {scales[i]!r} is too large: squared row norms overflow")
        raise ValueError("rows must be finite and nonzero")
    noisy /= norms[..., None]
    return noisy


def perturb_rows(points: np.ndarray, kind: str, value: float, rng: np.random.Generator) -> np.ndarray:
    """``perturb_traces`` of one trace's (n, 3) unit rows, with one RNG."""
    return perturb_traces(np.asarray(points, dtype=float)[None], kind, value, [rng])[0]


def calibrate_noise_scales(
    error_pipeline: Callable[[np.ndarray], np.ndarray],
    eps: float,
    q_grid,
    kind: str,
    step: float = DEFAULT_SEARCH_STEP,
) -> list[CalibrationResult]:
    """One forward scan over noise scales that calibrates every requirement
    in ``q_grid``; returns one result per q, in grid order.

    ``error_pipeline`` maps a 1-D array of k scale values to a (k, n) array:
    row i holds the prediction errors measured on the calibration traces
    after obfuscation at scale i. It must be deterministic per scale
    (callers derive its randomness from the scale, not from the block).
    Scales 0, step, ... are visited once each and the scan stops at the
    first one meeting ``min(q_grid)``. Scale 0 is evaluated alone. When
    ``min(q_grid)`` lies below the eps/pi floor, which no error
    distribution reaches, the scan visits every scale, so it evaluates the
    rest in blocks of at most ``SCAN_BLOCK_ERRORS`` errors; otherwise one
    scale per call. A forward scan is used instead of bisection because the
    achieved leakage need not be monotone in the scale near the floor.
    ``search_evals`` counts the scales a scan for that q alone would have
    visited.
    """
    check_precision(eps)
    qs = [check_requirement(q) for q in q_grid]
    check_search_step(step)
    if kind not in SEARCH_MAX:
        raise ValueError(f"unknown noise kind {kind!r}")
    search_max = SEARCH_MAX[kind]

    target = min(qs)   # an empty grid raises ValueError here, before any scan
    scales = np.minimum(np.arange(int(math.floor(search_max / step + 1e-9)) + 1) * step,
                        search_max)

    # Below the eps/pi floor no scale meets the target and the scan visits
    # them all. The margin sits far above the rounding of a mean of values
    # >= the floor.
    below_floor = target < optimal_error_distribution(eps)[1] * (1.0 - 1e-9)
    leaks, per_call = [], 1   # scale 0 alone; its error count sizes the blocks
    while len(leaks) < len(scales) and not (leaks and leaks[-1] <= target):
        block = scales[len(leaks):len(leaks) + per_call]
        errors = np.asarray(error_pipeline(block), dtype=float)
        if errors.ndim != 2 or len(errors) != len(block) or errors.size == 0:
            raise ValueError(f"error pipeline must give one non-empty row of errors per scale, "
                             f"got shape {errors.shape} for {len(block)} scales")
        leaks += conditional_leakage(errors, eps).mean(axis=-1).tolist()
        if below_floor:
            per_call = max(1, SCAN_BLOCK_ERRORS // errors.shape[1])

    results = []
    for q in qs:
        meeting = [i for i, leak in enumerate(leaks) if leak <= q]
        i = meeting[0] if meeting else leaks.index(min(leaks))   # else the first lowest
        scale = NoiseScale(kind, float(scales[i]))
        evals = i + 1 if meeting else len(leaks)
        results.append(CalibrationResult(scale, leaks[i], evals, bool(meeting)))
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
