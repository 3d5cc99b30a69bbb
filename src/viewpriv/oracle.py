"""Monte-Carlo and grid-search attacker.

Verifies the analytic leakage expressions from geometry alone: the actual
viewpoint is drawn uniformly on its circle around a fixed predicted
viewpoint, the attacker applies the strategy stated in
:mod:`viewpriv.leakage`'s docstring to the (possibly noisy) reported error,
and a trial counts as leakage when the guess lands within the required
precision of the actual viewpoint. No closed-form leakage formula is
consulted anywhere in this module; it is the library's only attacker code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bpea import noise_bounds
from .leakage import check_precision
from .sphere import SpherePoint, TWO_PI, check_angle, dot, points_at_bearings, unit_rows

# The predicted viewpoint is fixed here; leakage is rotation invariant.
REFERENCE_POINT = SpherePoint(0.0, 0.0, 1.0)

# 16 rows by the draws within their bearing windows: a product that stays in cache.
_CANDIDATE_CHUNK = 16

# The largest lattice scored (resolution ~0.0049 rad); it grows as 1/resolution^2.
_MAX_LATTICE = 2**21


@dataclass(frozen=True)
class LeakageEstimate:
    """A Monte-Carlo leak fraction over ``trials`` draws, with its binomial
    confidence half-width."""

    value: float
    trials: int
    half_width: float


@dataclass(frozen=True)
class OracleConfig:
    trials: int = 100_000
    grid_resolution: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, value, least in (("trials", self.trials, 1_000), ("seed", self.seed, 0)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0.0 < self.grid_resolution <= 0.1:
            raise ValueError(
                f"grid resolution must lie in (0, 0.1], got {self.grid_resolution!r}"
            )
        if (size := _lattice_size(self.grid_resolution)) > _MAX_LATTICE:
            raise ValueError(f"grid resolution {self.grid_resolution!r} needs a lattice of "
                             f"{size:,} candidates, more than {_MAX_LATTICE:,}")


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent sub-streams for the viewer's and the attacker's draws."""
    viewer_seq, attacker_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(viewer_seq), np.random.default_rng(attacker_seq)


@functools.lru_cache(maxsize=2)
def _bearings(seed: int, trials: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Read-only (cos, sin) of the viewer's and the attacker's bearings, and
    the viewer's (bearing, cos, sin) sorted by bearing. Each call with one
    (seed, trials) would draw the same, so they are drawn once."""
    drawn = [rng.uniform(0.0, TWO_PI, trials) for rng in _streams(seed)]
    groups = [(np.cos(b), np.sin(b)) for b in drawn]
    order = np.argsort(drawn[0])
    groups.append((drawn[0][order], *(a[order] for a in groups[0])))
    for group in groups:
        for a in group:
            a.flags.writeable = False
    return tuple(groups)


def empirical_conditional_leakage(
    error: float, noise: float, eps: float, cfg: OracleConfig
) -> LeakageEstimate:
    """Monte-Carlo estimate of the leakage probability at (e, n).

    Returns the leak fraction with a 4-standard-deviation binomial
    confidence half-width.
    """
    eps = check_precision(eps)
    error = check_angle(error, 0.0, math.pi, "error")
    lo, hi = noise_bounds(error)
    noise = check_angle(noise, lo, hi, "noise")

    viewer, attacker, _ = _bearings(cfg.seed, cfg.trials)
    actual = points_at_bearings(REFERENCE_POINT, error, *viewer)

    reported = error + noise
    if reported <= eps:
        guesses = REFERENCE_POINT.as_array()[None, :]
    elif reported >= math.pi - eps:
        guesses = -REFERENCE_POINT.as_array()[None, :]
    else:
        guesses = points_at_bearings(REFERENCE_POINT, reported, *attacker)

    # d(V, Vhat) <= eps is equivalent to dot(V, Vhat) >= cos(eps).
    # An exact integer count over one division: bit-equal to np.mean of the mask.
    p = int(np.count_nonzero(dot(actual, guesses) >= math.cos(eps))) / cfg.trials
    half_width = 4.0 * math.sqrt(p * (1.0 - p) / cfg.trials)
    return LeakageEstimate(p, cfg.trials, half_width)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Near-uniform (count, 3) point set from the golden-angle spiral."""
    if count < 1:
        raise ValueError("need at least one lattice point")
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden * i
    return unit_rows(np.column_stack((radius * np.cos(theta), radius * np.sin(theta), z)))


def _lattice_size(resolution: float) -> int:
    # Lattice dense enough that every sphere point has a neighbor well
    # within `resolution` (covering radius ~ sqrt(4*pi/count)).
    return max(64, int(math.ceil(16.0 * math.pi / resolution**2)))


def grid_attacker_best(error: float, eps: float, cfg: OracleConfig) -> tuple[SpherePoint, float]:
    """Exhaustive search for the best inferred viewpoint.

    Scans a Fibonacci lattice of candidate guesses, scoring each by the
    Monte-Carlo leak fraction over a shared set of actual-viewpoint draws on
    the circle. Candidates too far from the circle to come within ``eps`` of
    any draw score 0 without a product, and the others are scored only
    against the draws whose bearing lies near their own. Returns the argmax
    candidate and its estimated probability.
    """
    eps = check_precision(eps)
    error = check_angle(error, 0.0, math.pi, "error")
    if not eps < error < math.pi - eps:
        raise ValueError("grid search applies to mid-range errors only")

    candidates = fibonacci_sphere(_lattice_size(cfg.grid_resolution))
    _, _, (bearing, cos_b, sin_b) = _bearings(cfg.seed, cfg.trials)
    actual = points_at_bearings(REFERENCE_POINT, error, cos_b, sin_b).T   # (3, N), by bearing
    n = len(bearing)

    # Triangle inequality, not a leakage formula: a candidate at polar angle
    # t is at least |t - e| from every draw, so none of its products exceeds
    # cos(t - e) = z cos e + r sin e. Below cos(eps) by a margin far above
    # the products' rounding (~1e-16), its count is exactly 0. Lattice z
    # falls with the index, so the live candidates lie in one index range.
    cos_eps, cos_e, sin_e = math.cos(eps), math.cos(error), math.sin(error)
    x, y, z = candidates.T
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    live = np.flatnonzero(z * cos_e + r * sin_e >= cos_eps - 1e-9)
    counts = np.zeros(len(candidates), dtype=np.int64)
    if len(live):
        # A (1, 3) @ (3, N) product takes another BLAS path, whose last bit can
        # differ: a lone row is scored with a neighbour, a 1-row tail joins its chunk.
        lo, hi = int(live[0]), int(live[-1]) + 1
        rows = np.arange(max(min(lo, hi - 2), 0), max(hi, 2))
        # Cosine rule: a draw whose bearing lies more than w from the
        # candidate's bearing phi has a product below cos(eps) - 1e-9, with
        # cos w = (cos(eps) - 1e-9 - cos t cos e) / (sin t sin e).
        den = r[rows] * sin_e
        kappa = np.divide(cos_eps - 1e-9 - z[rows] * cos_e, den,
                          out=np.full(len(rows), -1.0), where=den > 0.0)
        w = np.arccos(np.clip(kappa, -1.0, 1.0))
        phi = np.arctan2(y[rows], x[rows]) % TWO_PI
        order = np.argsort(phi)
        rows, phi, w = rows[order], phi[order], w[order]
        edges = [*range(0, len(rows) - 1, _CANDIDATE_CHUNK), len(rows)]
        first = np.minimum.reduceat(phi - w, edges[:-1])
        last = np.maximum.reduceat(phi + w, edges[:-1])
        # Each chunk's draws, as an index range into the sorted draws unwrapped
        # around the circle: [-n, 0) and [n, 2n) repeat them 2 pi below and above.
        starts = np.searchsorted(bearing, first % TWO_PI) - n * (first < 0.0)
        stops = np.searchsorted(bearing, last % TWO_PI, "right") + n * (last >= TWO_PI)
        chunks = candidates[rows]
        for a, b, start, stop in zip(edges, edges[1:], starts.tolist(), stops.tolist()):
            if stop - start >= n:
                start, stop = 0, n
            for shift in (-n, 0, n):   # the range's parts below, on and above the circle
                p, q = max(start - shift, 0), min(stop - shift, n)
                if q - p == 1:   # a (k, 3) @ (3, 1) product takes the gemv path; the
                    # added draw lies outside every window of the chunk, so it counts 0
                    p, q = (p, q + 1) if q < n else (p - 1, q)
                if q > p:
                    # count_nonzero per row: with axis=1 it is slower but on the narrowest runs.
                    hits = chunks[a:b] @ actual[:, p:q] >= cos_eps
                    counts[rows[a:b]] += [np.count_nonzero(row) for row in hits]

    best = int(np.argmax(counts))
    return SpherePoint.from_array(candidates[best]), float(counts[best] / cfg.trials)
