"""Noisy-error obfuscation: leakage under additive error noise and the
minimal-|noise| choice meeting a per-sample leakage cap.

Instead of the exact prediction error e, the user uploads e + n with
n in [-e, pi - e] so the noisy value stays a plausible error in [0, pi].
The attacker, unaware of the noise, applies the strategy from
:mod:`viewpriv.leakage` to the noisy value. The resulting conditional
leakage probability is piecewise in (e, n):

    =====================  ================  =====================  ==================
    regime of e            n <= eps - e      eps - e < n < b        n >= b
    =====================  ================  =====================  ==================
    e <= eps               1                 mid(e, n)              0
    eps < e < pi - eps     0                 mid(e, n)              0
    e >= pi - eps          0                 mid(e, n)              1
    =====================  ================  =====================  ==================

with b = pi - e - eps and mid(e, n) = min(eff / (pi * sin e), 1), where
eff = arccos(cos eps / cos(min(|n|, eps))) is the effective precision: the
half-arc of the attacker's neighborhood intersected with the circle of
possible actual viewpoints. mid does not rise with |n| > 0 and is exactly
0 once |n| >= eps. At n = 0 eff is eps exactly, while arccos(cos eps) at
tiny |n| > 0 can round above eps, so mid(e, 0) can lie below mid at tiny |n|.

``optimal_noise`` returns the signed noise of smallest magnitude whose
leakage does not exceed the requirement q. Where the optimum sits at an
open-interval edge, a small margin (default ``DEFAULT_MARGIN``) keeps the
returned value strictly inside. The function is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .leakage import check_errors, check_precision, check_requirement
from .sphere import check_angle

# The margin lies in [MIN_MARGIN, pi - 2 eps): below one ulp of pi, left + margin rounds
# back onto the cell edge; from pi - 2 eps on, it overshoots the cell it nudges into.
DEFAULT_MARGIN = 1e-4
MIN_MARGIN = float(np.spacing(math.pi))
# Crossing candidates the refinement tries per error before it gives up.
REFINE_STEPS = 200
# Candidates one refinement pass evaluates at most, over all short errors.
REFINE_BLOCK_EVALS = 2048


def check_margin(margin: float, eps: float | None = None) -> float:
    margin = float(margin)
    if not math.isfinite(margin) or margin <= 0.0:
        raise ValueError(f"solver margin must be positive, got {margin!r}")
    top = math.inf if eps is None else math.pi - 2.0 * eps   # BpeaPolicy knows no eps
    if not MIN_MARGIN <= margin < top:
        raise ValueError(f"solver margin must lie in [{MIN_MARGIN!r}, {top!r}), from one ulp of "
                         f"pi to pi - 2 eps, got {margin!r}")
    return margin


def noise_bounds(error: float) -> tuple[float, float]:
    """Admissible noise range [-e, pi - e] for a given error."""
    error = check_angle(error, 0.0, math.pi, "error")
    return -error, math.pi - error


def _effective(noise, eps: float, cos_eps: float):
    """The effective precision eff of noise n, on checked inputs, with cos(eps)."""
    n = np.abs(noise)
    # The ratio is at least cos eps > 0 (eps < pi/2), so only the upper clamp acts.
    ratio = np.minimum(cos_eps / np.cos(np.minimum(n, eps)), 1.0)
    return np.where(n == 0.0, eps, np.arccos(ratio))


def _mid_leakage(noise, eps: float, cos_eps: float, denom):
    """The middle-regime leakage formula on checked inputs, with cos(eps) and
    denom = max(pi * sin e, 1e-300), safe at sin(e) = 0, computed once by the
    caller per error set. eff is never negative, and eff = 0 gives +0.0."""
    return np.minimum(_effective(noise, eps, cos_eps) / denom, 1.0)


def _cell_leakage(n, left, right, low, high, eps: float, cos_eps: float, denom):
    """The leakage table for noise n, given the checked terms its errors share."""
    left, right = n <= left, n >= right
    ones = (low & left) | (high & right)
    return np.where(ones, 1.0, np.where(left | right, 0.0, _mid_leakage(n, eps, cos_eps, denom)))


def conditional_leakage_noisy(error, noise, eps: float):
    """Leakage probability when error ``e`` is uploaded as ``e + n``.

    ``error`` and ``noise`` may be scalars or broadcastable arrays; noise
    values outside [-e, pi - e] are rejected since the attacker could detect
    such an upload.
    """
    eps = check_precision(eps)
    e = check_errors(error)
    n = np.asarray(noise, dtype=float)
    if not np.all(np.isfinite(n)) or np.any(n < -e) or np.any(n > math.pi - e):
        raise ValueError("noise must lie in [-e, pi - e]")
    out = _cell_leakage(n, eps - e, math.pi - e - eps, e <= eps, e >= math.pi - eps, eps,
                        math.cos(eps), np.maximum(math.pi * np.sin(e), 1e-300))
    return float(out) if np.ndim(error) == 0 and np.ndim(noise) == 0 else out


def optimal_noise(error: float, eps: float, q: float, margin: float = DEFAULT_MARGIN) -> float:
    """Signed noise of minimal magnitude with leakage at most q; the
    one-error call of ``optimal_noise_batch``."""
    error = check_angle(error, 0.0, math.pi, "error")
    return float(optimal_noise_batch(error, eps, q, margin))


def optimal_noise_batch(errors, eps: float, q: float, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Minimal-|noise| meeting q for each of an array of errors: one ``noise_solver`` step."""
    return noise_solver(errors, eps, margin)(q)[0]


def noise_solver(errors, eps: float, margin: float = DEFAULT_MARGIN):
    """``solve(q) -> (noises, leakage)`` on one error set, whose checks and
    q-independent terms run once: the signed minimal-|noise| meeting q, and
    its leakage by ``conditional_leakage_noisy``'s table (once the noise's
    work arrays are freed, for a lower peak), both shaped like ``errors``.

    Every regime has a zero-leakage cell, so q is always met; a tie between
    a positive and a negative noise goes to the positive one, which enlarges
    the streamed zone. Inside the middle regime the noise is the crossing
    where mid(e, n) = q. Its arccos inversion can land a hair short of q, so
    a short crossing moves up by doubling steps, up to REFINE_BLOCK_EVALS
    candidates at a time over all short errors, to the first that meets q
    (within ~1e-13); ``solve`` raises ArithmeticError after ``REFINE_STEPS``.
    """
    eps = check_precision(eps)
    margin = check_margin(margin, eps)
    shape = np.shape(errors)
    e = check_errors(errors).ravel()
    cos_eps = math.cos(eps)
    sin_e = np.sin(e)
    denom = np.maximum(math.pi * sin_e, 1e-300)
    left, right = eps - e, math.pi - e - eps
    low, high = e <= eps, e >= math.pi - eps
    m_left = _mid_leakage(left, eps, cos_eps, denom)
    m_right = _mid_leakage(right, eps, cos_eps, denom)
    m_zero = np.minimum(eps / denom, 1.0)  # mid(e, 0): eff is eps exactly at n = 0
    m_own = np.where(low, m_left, np.where(high, m_right, m_zero))

    def noise_for(q: float) -> np.ndarray:
        # Magnitude solving mid-regime leakage == q; clamp keeps arccos in
        # domain where the value is masked out as unused.
        target = q * math.pi * sin_e
        crossing = np.arccos(np.minimum(cos_eps / np.cos(np.minimum(target, eps)), 1.0))
        # Zero target means |n| must reach the saturation point eps exactly;
        # keep the arccos round-trip from landing an ulp short of it.
        crossing = np.where(target <= 0.0, np.maximum(crossing, eps), crossing)
        # Refine only where the crossing is used, because the regime's own bound
        # leaks more than q, and only what is short. Each such use needs |n| > 0,
        # where mid can lie above mid(0), so a crossing of 0 is short there.
        short = np.flatnonzero(m_own > q)
        c = crossing[short]
        short = short[(c == 0.0) | (_mid_leakage(c, eps, cos_eps, denom[short]) > q)]
        step = np.maximum(np.spacing(crossing[short]), 1e-18)
        tried = 1
        while short.size:
            block = min(max(REFINE_BLOCK_EVALS // short.size, 1), REFINE_STEPS - tried)
            if block <= 0:
                raise ArithmeticError("crossing refinement did not converge at "
                                      f"e={float(e[short[0]])!r}, q={q!r}")
            # Candidates c + s, c + s + 2s, ...: the sequential additions of a
            # step that doubles after each one (doubling is exact).
            candidates = np.ldexp(step[:, None], np.arange(block))
            candidates[:, 0] += crossing[short]
            candidates = np.add.accumulate(candidates, axis=1)
            meets = _mid_leakage(candidates, eps, cos_eps, denom[short, None]) <= q
            first = meets.argmax(axis=1)
            rows = np.arange(short.size)
            done = meets[rows, first]
            # An error still short keeps its last candidate; its next step is past it.
            crossing[short] = candidates[rows, np.where(done, first, block - 1)]
            short, step = short[~done], np.ldexp(step[~done], block)
            tried += block
        low_val = np.where(m_left <= q, left + margin, np.where(m_right <= q, crossing, right))
        high_val = np.where(m_right <= q, right - margin, np.where(m_left <= q, -crossing, left))
        # The nearer bound is -left or right, and mid is even in n. Where even the far
        # bound leaks more than q, mid not rising with |n| > 0 puts the crossing past both.
        bound_val = np.where(-left <= right, left, right)
        with_crossing = np.where(crossing < np.minimum(-left, right), crossing, bound_val)
        mid_val = np.where(m_zero <= q, 0.0, with_crossing)
        return np.where(low, low_val, np.where(high, high_val, mid_val))

    def solve(q: float) -> tuple[np.ndarray, np.ndarray]:
        q = check_requirement(q)
        noise = noise_for(q) if q < 1.0 else np.zeros_like(e)   # q = 1 needs no noise
        leakage = _cell_leakage(noise, left, right, low, high, eps, cos_eps, denom)
        return noise.reshape(shape), leakage.reshape(shape)

    return solve


def obfuscate_error(error: float, eps: float, q: float, margin: float = DEFAULT_MARGIN) -> float:
    """The value to upload in place of the exact error: e + optimal noise."""
    noisy = error + optimal_noise(error, eps, q, margin)
    # Guard against float drift past the admissible range.
    return min(max(noisy, 0.0), math.pi)
