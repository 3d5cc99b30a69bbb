import math
import sys

import numpy as np
import pytest

from viewpriv.bpea import conditional_leakage_noisy
from viewpriv import oracle
from viewpriv.oracle import (
    LeakageEstimate,
    OracleConfig,
    REFERENCE_POINT,
    _CANDIDATE_CHUNK,
    _MAX_LATTICE,
    _bearings,
    _lattice_size,
    _streams,
    empirical_conditional_leakage,
    fibonacci_sphere,
    grid_attacker_best,
)
from viewpriv.sphere import (
    SpherePoint,
    TWO_PI,
    dot,
    points_at_bearings,
    points_at_distance,
    spherical_distance,
)

EPS = 0.1 * math.pi


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(trials=10)
    with pytest.raises(ValueError):
        OracleConfig(grid_resolution=0.2)
    with pytest.raises(ValueError):
        OracleConfig(grid_resolution=0.0)
    # Trials and seed are integers, checked here rather than failing inside numpy.
    for bad in ({"trials": 1e4}, {"trials": math.nan}, {"trials": True}, {"trials": 999},
                {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"}):
        with pytest.raises(ValueError):
            OracleConfig(**bad)
    # A lattice larger than 2^21 candidates is refused before it is built.
    with pytest.raises(ValueError, match="50,265,483 candidates"):
        OracleConfig(grid_resolution=0.001)
    assert _lattice_size(0.0049) <= _MAX_LATTICE < _lattice_size(0.0048)
    OracleConfig(grid_resolution=0.0049)
    # Numpy integers are stored as Python ints.
    cfg = OracleConfig(trials=np.int64(1_000), seed=np.uint32(7))
    assert (cfg.trials, cfg.seed) == (1_000, 7)
    assert type(cfg.trials) is int and type(cfg.seed) is int


def test_noise_bounds_enforced():
    cfg = OracleConfig(trials=1000, seed=0)
    with pytest.raises(ValueError):
        empirical_conditional_leakage(0.3, -0.4, EPS, cfg)


def test_degenerate_cells_reproduce_exactly():
    cfg = OracleConfig(trials=20_000, seed=3)
    certain = [(0.05 * math.pi, 0.0), (0.95 * math.pi, math.pi - 0.95 * math.pi)]
    for e, n in certain:
        assert empirical_conditional_leakage(e, n, EPS, cfg).value == 1.0
    zero = [
        (0.05 * math.pi, 0.9 * math.pi),
        (0.5 * math.pi, EPS - 0.5 * math.pi),
        (0.5 * math.pi, 0.42 * math.pi),
        (0.95 * math.pi, EPS - 0.95 * math.pi),
    ]
    for e, n in zero:
        assert empirical_conditional_leakage(e, n, EPS, cfg).value == 0.0


def test_saturating_noise_zero_exactly():
    cfg = OracleConfig(trials=100_000, seed=1)
    assert empirical_conditional_leakage(0.5 * math.pi, 0.2 * math.pi, EPS, cfg).value == 0.0


def exact_attack_success(e, n):
    """Exact success probability of the selection rule, from spherical
    trigonometry alone: guess uniform on the circle of radius e + n, actual
    uniform on the circle of radius e, leak when within EPS."""
    reported = e + n
    if reported <= EPS:
        return 1.0 if e <= EPS else 0.0
    if reported >= math.pi - EPS:
        return 1.0 if math.pi - e <= EPS else 0.0
    denom = math.sin(reported) * math.sin(e)
    if denom <= 0.0:
        return 1.0 if abs(reported - e) <= EPS else 0.0
    x = (math.cos(EPS) - math.cos(reported) * math.cos(e)) / denom
    if x >= 1.0:
        return 0.0
    if x <= -1.0:
        return 1.0
    return math.acos(x) / math.pi


def _agreement_grid():
    es = np.linspace(EPS, math.pi - EPS, 22)[1:-1]
    return [(float(e), float(n)) for e in es for n in np.linspace(-e, math.pi - e, 20)]


@pytest.mark.xfail(
    strict=True,
    reason="the mid-cell closed form is a small-cap approximation; its bias "
    "(up to ~0.037 on this grid) exceeds the 4-sigma Monte-Carlo band at "
    "1e5 trials, so an exact-geometry oracle cannot match it this tightly",
)
def test_agreement_with_analytic_noisy_leakage_at_stated_tolerance():
    # 20x20 (e, n) sweep across all three noise columns.
    cfg = OracleConfig(trials=100_000, seed=42)
    for e, n in _agreement_grid():
        analytic = conditional_leakage_noisy(e, n, EPS)
        est = empirical_conditional_leakage(e, n, EPS, cfg)
        tol = 4.0 * math.sqrt(analytic * (1.0 - analytic) / cfg.trials) + 1e-3
        assert abs(est.value - analytic) <= tol, (e, n, est.value, analytic)


def test_oracle_matches_exact_geometry():
    # The Monte-Carlo oracle does agree, at the same tolerance, with the
    # exact spherical-trigonometry value of the attack success probability.
    cfg = OracleConfig(trials=100_000, seed=42)
    for e, n in _agreement_grid():
        exact = exact_attack_success(e, n)
        est = empirical_conditional_leakage(e, n, EPS, cfg)
        tol = 4.0 * math.sqrt(exact * (1.0 - exact) / cfg.trials) + 1e-3
        assert abs(est.value - exact) <= tol, (e, n, est.value, exact)


def test_mid_cell_formula_bias_is_bounded_on_grid():
    # Documents the approximation gap between the closed form and exact
    # geometry over the agreement grid.
    worst = 0.0
    for e, n in _agreement_grid():
        worst = max(worst, abs(conditional_leakage_noisy(e, n, EPS) - exact_attack_success(e, n)))
    assert 0.02 <= worst <= 0.06, worst


def test_estimate_metadata():
    for trials in (5_000, np.int64(5_000)):
        cfg = OracleConfig(trials=trials, seed=9)
        est = empirical_conditional_leakage(0.5 * math.pi, 0.0, EPS, cfg)
        assert est.trials == 5_000
        assert type(est.value) is float and type(est.trials) is int
        assert type(est.half_width) is float
        assert est.half_width == pytest.approx(
            4.0 * math.sqrt(est.value * (1.0 - est.value) / 5_000), abs=1e-15
        )


def test_seeded_determinism():
    cfg = OracleConfig(trials=30_000, seed=123)
    a = empirical_conditional_leakage(0.4 * math.pi, 0.1, EPS, cfg)
    b = empirical_conditional_leakage(0.4 * math.pi, 0.1, EPS, cfg)
    assert a == b
    other = empirical_conditional_leakage(
        0.4 * math.pi, 0.1, EPS, OracleConfig(trials=30_000, seed=124)
    )
    assert other.value != a.value


def test_fibonacci_sphere_is_near_uniform():
    pts = fibonacci_sphere(2_000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # Octant occupancy within 20% of uniform.
    octants = (pts > 0).astype(int) @ np.array([1, 2, 4])
    counts = np.bincount(octants, minlength=8)
    assert counts.min() > 0.8 * 2_000 / 8 and counts.max() < 1.2 * 2_000 / 8


def test_grid_attacker_finds_the_circle():
    cfg = OracleConfig(trials=30_000, grid_resolution=0.1, seed=11)
    for e in (0.3 * math.pi, 0.5 * math.pi):
        best, prob = grid_attacker_best(e, EPS, cfg)
        assert abs(spherical_distance(best, REFERENCE_POINT) - e) <= cfg.grid_resolution
        assert prob > EPS / math.pi - 0.02


def test_grid_attacker_rejects_outer_errors():
    cfg = OracleConfig(trials=1_000, seed=0)
    with pytest.raises(ValueError):
        grid_attacker_best(0.05 * math.pi, EPS, cfg)


def brute_force_counts(error, eps, cfg):
    """The lattice and every candidate's leak count over the viewer's draws,
    each candidate scored against every draw in 256-row chunks."""
    candidates = fibonacci_sphere(_lattice_size(cfg.grid_resolution))
    viewer_rng, _ = _streams(cfg.seed)
    actual = points_at_distance(REFERENCE_POINT, error, viewer_rng.uniform(0.0, TWO_PI, cfg.trials))
    counts = np.empty(len(candidates), dtype=np.int64)
    for start in range(0, len(candidates), 256):
        chunk = candidates[start : start + 256]
        counts[start : start + len(chunk)] = np.sum(chunk @ actual.T >= math.cos(eps), axis=1)
    return candidates, counts


def brute_force_grid_attacker(error, eps, cfg):
    """Every lattice candidate scored against every draw."""
    candidates, counts = brute_force_counts(error, eps, cfg)
    best = int(np.argmax(counts))
    return SpherePoint.from_array(candidates[best]), float(counts[best] / cfg.trials)


def beyond_reach(candidates, error, eps):
    """Candidates whose polar angle t puts them farther than eps from the
    circle, with the attacker's 1e-9 allowance: cos(t - e) < cos(eps) - 1e-9."""
    t = np.arccos(np.clip(candidates[:, 2], -1.0, 1.0))
    return np.cos(t - error) < math.cos(eps) - 1e-9


def test_candidates_beyond_reach_never_leak():
    skipped = leaking = 0
    for eps in (EPS, 0.01):
        for res, seed in ((0.1, 11), (0.07, 3)):
            cfg = OracleConfig(trials=5_000, grid_resolution=res, seed=seed)
            for e in (eps + 1e-9, 0.3 * math.pi, 0.5 * math.pi, math.pi - eps - 1e-9):
                candidates, counts = brute_force_counts(e, eps, cfg)
                far = beyond_reach(candidates, e, eps)
                assert not np.any(counts[far]), (eps, res, e)
                skipped += np.count_nonzero(far)
                leaking += np.count_nonzero(counts)
    assert skipped and leaking


def bearing_windows(candidates, error, eps):
    """Each candidate's bearing phi in [0, 2 pi) and half-window w. By the
    cosine rule, a draw whose bearing lies more than w from phi has a product
    below cos(eps) - 1e-9; where sin t = 0 the window is the whole circle."""
    z = candidates[:, 2]
    den = np.sqrt(np.maximum(1.0 - z * z, 0.0)) * math.sin(error)
    kappa = np.divide(math.cos(eps) - 1e-9 - z * math.cos(error), den,
                      out=np.full(len(z), -1.0), where=den > 0.0)
    phi = np.arctan2(candidates[:, 1], candidates[:, 0]) % TWO_PI
    return phi, np.arccos(np.clip(kappa, -1.0, 1.0))


def test_pairs_outside_bearing_windows_never_leak():
    # The lattice with both poles added, so that some window is the whole circle.
    wrapping = whole = outside = 0
    for eps in (EPS, 0.01):
        for res, seed in ((0.1, 11), (0.07, 3)):
            cfg = OracleConfig(trials=5_000, grid_resolution=res, seed=seed)
            lattice = fibonacci_sphere(_lattice_size(res))
            candidates = np.vstack(([0.0, 0.0, 1.0], lattice, [0.0, 0.0, -1.0]))
            bearings = _streams(cfg.seed)[0].uniform(0.0, TWO_PI, cfg.trials)
            for e in (eps + 1e-9, 0.3 * math.pi, 0.5 * math.pi, math.pi - eps - 1e-9):
                actual = points_at_distance(REFERENCE_POINT, e, bearings)
                live = candidates[~beyond_reach(candidates, e, eps)]
                phi, w = bearing_windows(live, e, eps)
                for start in range(0, len(live), 256):
                    rows = slice(start, start + 256)
                    gap = np.abs(bearings - phi[rows, None])
                    far = np.minimum(gap, TWO_PI - gap) > w[rows, None]
                    products = live[rows] @ actual.T
                    assert np.all(products[far] < math.cos(eps)), (eps, res, e)
                    outside += np.count_nonzero(far)
                wrapping += np.count_nonzero((phi - w < 0.0) | (phi + w >= TWO_PI))
                whole += np.count_nonzero(w >= math.pi)
    assert wrapping and whole and outside


def test_grid_attacker_scores_pole_candidates(monkeypatch):
    # At a pole sin t = 0: its window is the whole circle, with no division warning.
    candidates = np.vstack(([0.0, 0.0, 1.0], fibonacci_sphere(_lattice_size(0.1)), [0.0, 0.0, -1.0]))
    for module in (oracle, sys.modules[__name__]):
        monkeypatch.setattr(module, "fibonacci_sphere", lambda count: candidates)
    cfg = OracleConfig(trials=1_000, grid_resolution=0.1, seed=4)
    for eps in (EPS, 0.01):
        for e in (eps + 1e-9, math.pi - eps - 1e-9):
            assert grid_attacker_best(e, eps, cfg) == brute_force_grid_attacker(e, eps, cfg), (eps, e)


def chunk_cases(error, eps, cfg):
    """Which column-range cases the attacker's chunks of bearing-sorted rows
    reach: a union of windows that wraps past 0/2 pi, a side of it that holds
    a single draw, and one that covers the whole circle."""
    candidates = fibonacci_sphere(_lattice_size(cfg.grid_resolution))
    live = np.flatnonzero(~beyond_reach(candidates, error, eps))
    if not len(live):
        return set()
    lo, hi = int(live[0]), int(live[-1]) + 1
    phi, w = bearing_windows(candidates[max(min(lo, hi - 2), 0) : max(hi, 2)], error, eps)
    order = np.argsort(phi)
    phi, w = phi[order], w[order]
    bearings = _streams(cfg.seed)[0].uniform(0.0, TWO_PI, cfg.trials)
    edges = [*range(0, len(phi) - 1, _CANDIDATE_CHUNK), len(phi)]
    cases = set()
    for a, b in zip(edges, edges[1:]):
        first, last = np.min(phi[a:b] - w[a:b]), np.max(phi[a:b] + w[a:b])
        if last - first >= TWO_PI:
            cases.add("whole")
        elif first < 0.0 or last >= TWO_PI:
            first, last = first % TWO_PI, last % TWO_PI
            cases.add("wrap")
            if 1 in (np.count_nonzero(bearings >= first), np.count_nonzero(bearings <= last)):
                cases.add("one draw")
    return cases


def live_rows(error, eps, cfg):
    """The number of lattice rows within the attacker's reach bound."""
    candidates = fibonacci_sphere(_lattice_size(cfg.grid_resolution))
    live = np.flatnonzero(~beyond_reach(candidates, error, eps))
    return int(live[-1] - live[0] + 1) if len(live) else 0


def test_pruned_grid_attacker_matches_brute_force():
    # The cases reach every path: no live row (eps = 1e-5), one live row
    # (eps = 0.01, next to a pole), a live range whose chunks leave a 1-row
    # tail, a chunk whose draws wrap past 0/2 pi, a side of a wrap that holds
    # a single draw, and a chunk that reaches every draw (eps = 0.01 at
    # resolution 0.04, next to a pole).
    rng = np.random.default_rng(8)
    seen = set()
    for eps in (EPS, 0.01, 1e-5):
        for seed in range(3):
            for res in (0.1, 0.07, 0.04) if eps == 0.01 else (0.1, 0.07):
                cfg = OracleConfig(trials=1_000, grid_resolution=res, seed=seed)
                for e in (eps + 1e-9, math.pi - eps - 1e-9, 0.5 * math.pi,
                          *rng.uniform(eps, math.pi - eps, 2)):
                    rows = live_rows(e, eps, cfg)
                    seen.add("none" if rows == 0 else "lone" if rows == 1
                             else "tail" if rows % _CANDIDATE_CHUNK == 1 else "other")
                    seen |= chunk_cases(e, eps, cfg)
                    got = grid_attacker_best(e, eps, cfg)
                    assert got == brute_force_grid_attacker(e, eps, cfg), (eps, seed, res, e)
    assert seen >= {"none", "lone", "tail", "wrap", "one draw", "whole"}, seen


@pytest.mark.parametrize("trials", [20_000, 100_000])
def test_lattice_products_do_not_depend_on_layout_or_chunk(trials):
    # The attacker's counts match any chunking of the lattice only if BLAS
    # gives every product the same bits whatever the operands' memory layout
    # and the chunk's row count. Rows: 529 of the live range, so each chunk
    # size ends on a 17-row chunk that holds a joined 1-row tail.
    cfg = OracleConfig(trials=trials, grid_resolution=0.1, seed=7)
    error = 0.4 * math.pi
    candidates = fibonacci_sphere(_lattice_size(cfg.grid_resolution))
    actual = points_at_bearings(REFERENCE_POINT, error, *_bearings(cfg.seed, cfg.trials)[0])
    assert actual.T.flags.c_contiguous
    packed = np.ascontiguousarray(actual)
    lo = int(np.flatnonzero(~beyond_reach(candidates, error, EPS))[0])
    hi = lo + 529

    def chunks(size, start=lo, stop=hi):
        edges = [*range(start, stop - 1, size), stop]
        return list(zip(edges, edges[1:]))

    compared = 0
    for start, stop in chunks(256):
        whole = candidates[start:stop] @ actual.T
        for size in (_CANDIDATE_CHUNK, 64):
            for a, b in chunks(size, start, stop):
                got = candidates[a:b] @ actual.T
                assert np.array_equal(got, whole[a - start : b - start]), (size, a, b)
                if size == _CANDIDATE_CHUNK:
                    assert np.array_equal(got, candidates[a:b] @ packed.T), (a, b)
                    compared += b - a
        del whole   # one 256-row product at a time: 205 MB at 1e5 draws
    assert compared == 529

    # The attacker multiplies chunks of its bearing-sorted rows against column
    # ranges of the bearing-sorted draws: any range of at least 2 columns must
    # give the bits of those columns of the whole product, and the whole
    # product those of the draws in their drawn order.
    bearings = _streams(cfg.seed)[0].uniform(0.0, TWO_PI, cfg.trials)
    ordered = points_at_bearings(REFERENCE_POINT, error, *_bearings(cfg.seed, cfg.trials)[2][1:]).T
    phi, _ = bearing_windows(candidates[lo:hi], error, EPS)
    rows = candidates[lo:hi][np.argsort(phi)]
    rng = np.random.default_rng(trials)
    n = cfg.trials
    for start, stop in [*chunks(_CANDIDATE_CHUNK, 0, 529)[:6], (0, 2), (100, 117)]:
        whole = rows[start:stop] @ ordered
        assert np.array_equal(whole, (rows[start:stop] @ actual.T)[:, np.argsort(bearings)])
        for width in (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 250, 1_001):
            for p in (0, n - width, *rng.integers(0, n - width, 3)):
                got = rows[start:stop] @ ordered[:, p : p + width]
                assert np.array_equal(got, whole[:, p : p + width]), (start, stop, p, width)


def per_call_draw_leakage(error, noise, eps, cfg):
    """The Monte-Carlo estimate with both bearing sets drawn afresh on every
    call, through ``points_at_distance``; the cached draw must match it bit
    for bit."""
    viewer_rng, attacker_rng = _streams(cfg.seed)
    actual = points_at_distance(REFERENCE_POINT, error, viewer_rng.uniform(0.0, TWO_PI, cfg.trials))
    reported = error + noise
    if reported <= eps:
        guesses = REFERENCE_POINT.as_array()[None, :]
    elif reported >= math.pi - eps:
        guesses = -REFERENCE_POINT.as_array()[None, :]
    else:
        guesses = points_at_distance(
            REFERENCE_POINT, reported, attacker_rng.uniform(0.0, TWO_PI, cfg.trials)
        )
    p = float(np.mean(dot(actual, guesses) >= math.cos(eps)))
    half_width = 4.0 * math.sqrt(p * (1.0 - p) / cfg.trials)
    return LeakageEstimate(p, cfg.trials, half_width)


def test_cached_bearings_match_per_call_draws():
    # Reported errors at or below eps, at or above pi - eps, and mid-range.
    cells = [(0.05 * math.pi, 0.0), (0.5 * math.pi, EPS - 0.5 * math.pi),
             (0.95 * math.pi, 0.05 * math.pi), (0.5 * math.pi, 0.4 * math.pi),
             (0.4 * math.pi, 0.1), (0.3 * math.pi, -0.2), (0.5 * math.pi, 0.0)]
    # Seeds 123, 124, 123 at two trial counts make four keys for the
    # two-entry cache, so each is used, evicted and drawn again. The last
    # config repeats the first with numpy integers.
    configs = [OracleConfig(trials=t, grid_resolution=0.1, seed=s)
               for s in (123, 124, 123) for t in (1_000, 30_000)]
    configs.append(OracleConfig(trials=np.int64(1_000), grid_resolution=0.1, seed=np.int64(123)))
    _bearings.cache_clear()
    results = []
    for cfg in configs:
        estimates = [empirical_conditional_leakage(e, n, EPS, cfg) for e, n in cells]
        assert estimates == [per_call_draw_leakage(e, n, EPS, cfg) for e, n in cells], cfg
        grid = grid_attacker_best(0.4 * math.pi, EPS, cfg)
        assert grid == brute_force_grid_attacker(0.4 * math.pi, EPS, cfg), cfg
        results.append((estimates, grid))
        cached = _bearings(int(cfg.seed), int(cfg.trials))
        for (cos_b, sin_b), rng in zip(cached, _streams(cfg.seed)):
            b = rng.uniform(0.0, TWO_PI, cfg.trials)
            assert np.array_equal(cos_b, np.cos(b)) and np.array_equal(sin_b, np.sin(b))
        # The viewer's draws in bearing order, for the attacker; read-only.
        viewer = _streams(cfg.seed)[0].uniform(0.0, TWO_PI, cfg.trials)
        order = np.argsort(viewer)
        bearing, cos_b, sin_b = cached[2]
        assert np.all(np.diff(bearing) >= 0.0) and np.array_equal(bearing, viewer[order])
        assert np.array_equal(cos_b, cached[0][0][order])
        assert np.array_equal(sin_b, cached[0][1][order])
        assert not any(a.flags.writeable for a in cached[2])
    assert results[-1] == results[0]
    info = _bearings.cache_info()
    assert info.hits > 0 and info.misses > 4, info


def test_cached_bearings_are_read_only():
    for pair in _bearings(5, 1_000):
        for values in pair:
            with pytest.raises(ValueError):
                values[0] = 0.0
