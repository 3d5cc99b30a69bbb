"""Viewpoint-leakage probabilities when predicted viewpoint and exact
prediction error are uploaded, under the attacker strategy attaining them.

The attacker intercepts the predicted viewpoint P and the reported error e,
concludes that the actual viewpoint lies on the circle of arc radius e
around P, and picks the inferred viewpoint that maximizes the chance of
landing within the required precision ``eps`` of the actual one:

* e <= eps: pick P itself (the whole circle is inside its neighborhood),
* e >= pi - eps: pick the antipode of P,
* otherwise: pick a uniformly random point on the circle itself.

The resulting conditional leakage probability is 1 in the two outer regimes
and min(eps / (pi * sin e), 1) in the middle one. Boundary errors e = eps
and e = pi - eps are assigned to the value-1 regime. This module holds only
these closed forms and the eps/pi floor; :mod:`viewpriv.oracle` implements
the strategy itself and checks the closed forms from geometry.
"""

from __future__ import annotations

import math

import numpy as np

# Required inference precision must stay below a quarter turn; at and above
# 0.5*pi the middle regime vanishes and leakage is always 1.
MAX_PRECISION = 0.5 * math.pi


def check_precision(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or not 0.0 < eps < MAX_PRECISION:
        raise ValueError(f"precision must lie in (0, 0.5*pi), got {eps!r}")
    return eps


def check_requirement(q: float) -> float:
    q = float(q)
    if not math.isfinite(q) or not 0.0 <= q <= 1.0:
        raise ValueError(f"privacy requirement must lie in [0, 1], got {q!r}")
    return q


def check_errors(errors) -> np.ndarray:
    """Errors as a float array, every value finite and within [0, pi]."""
    e = np.asarray(errors, dtype=float)
    if not np.all((e >= 0.0) & (e <= math.pi)):
        raise ValueError("errors must lie in [0, pi]")
    return e


def conditional_leakage(error, eps: float):
    """Leakage probability given a reported exact error.

    Accepts a scalar or array of errors in [0, pi]; returns the same shape.
    """
    eps = check_precision(eps)
    e = check_errors(error)
    sine = np.maximum(np.sin(e), 1e-300)
    middle = np.minimum(eps / (math.pi * sine), 1.0)
    out = np.where((e <= eps) | (e >= math.pi - eps), 1.0, middle)
    return float(out) if np.ndim(error) == 0 else out


def leakage_sample_mean(errors, eps: float) -> float:
    """Sample-mean leakage over a set of reported errors."""
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise ValueError("cannot estimate leakage from an empty error list")
    return float(np.mean(conditional_leakage(e.ravel(), eps)))


def optimal_error_distribution(eps: float) -> tuple[float, float]:
    """Error value and leakage of the leakage-minimizing error distribution.

    The minimizing distribution is a point mass; this returns its location
    (0.5*pi) and the floor probability eps/pi.
    """
    eps = check_precision(eps)
    return 0.5 * math.pi, eps / math.pi


def uniform_error_leakage(eps: float) -> float:
    """Expected leakage when the reported error is that of a uniformly random
    prediction, with density sin(e)/2 on [0, pi]: (1 - cos eps), from the two
    outer regimes, plus eps*(pi - 2*eps)/(2*pi) from the middle one.
    Coordinate noise tends to it as its scale grows. It lies above the eps/pi
    floor: 0.17461 against 0.1 at eps = 0.1*pi."""
    eps = check_precision(eps)
    return (1.0 - math.cos(eps)) + eps * (math.pi - 2.0 * eps) / (2.0 * math.pi)

