import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewpriv import bpea
from viewpriv.harness import default_q_grid
from viewpriv.leakage import conditional_leakage
from viewpriv.bpea import (
    DEFAULT_MARGIN,
    MIN_MARGIN,
    conditional_leakage_noisy,
    noise_bounds,
    obfuscate_error,
    optimal_noise,
    optimal_noise_batch,
)

EPS = 0.1 * math.pi
TAU = 1e-4


def mid_regime_leakage(e, absn, eps=EPS):
    """Test-local replica of the mid-regime formula, for oracle use."""
    if absn >= eps:
        return 0.0
    eff = math.acos(math.cos(eps) / math.cos(absn))
    return min(eff / (math.pi * math.sin(e)), 1.0)


# ---------------------------------------------------------------- effective precision


def effective_precision(noise, eps):
    """The solver's effective-precision kernel, as every leakage it computes calls it."""
    return bpea._effective(np.asarray(noise, dtype=float), eps, math.cos(eps))


def test_effective_precision_no_noise_is_full_precision():
    assert effective_precision(0.0, EPS) == pytest.approx(EPS, abs=1e-12)


def test_effective_precision_saturates_at_eps():
    assert effective_precision(EPS, EPS) == 0.0
    assert effective_precision(-EPS, EPS) == 0.0
    assert effective_precision(0.4 * math.pi, EPS) == 0.0


def test_effective_precision_against_high_precision_oracle():
    # arccos(cos eps / cos(0.05 pi)) at 50-digit precision.
    with mpmath.workdps(50):
        want = float(mpmath.acos(mpmath.cos(mpmath.pi / 10) / mpmath.cos(mpmath.pi / 20)))
    assert effective_precision(0.05 * math.pi, EPS) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(0.2732032144912512, abs=1e-14)


def test_zero_noise_leakage_is_exact_error_leakage():
    # Without noise the upload is the exact error, so both formulas must
    # agree to the bit, regime boundaries included.
    errors = np.linspace(0.0, math.pi, 100_001)
    noisy = conditional_leakage_noisy(errors, np.zeros_like(errors), EPS)
    assert np.array_equal(noisy, conditional_leakage(errors, EPS))


def test_effective_precision_bounded_by_eps():
    ns = np.linspace(-math.pi, math.pi, 1001)
    vals = effective_precision(ns, EPS)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= EPS + 1e-12)


# ------------------------------------------------------- noisy leakage table


def test_table_certain_cells():
    assert conditional_leakage_noisy(0.05 * math.pi, 0.0, EPS) == 1.0
    assert conditional_leakage_noisy(0.95 * math.pi, 0.04 * math.pi, EPS) == 1.0


def test_table_zero_cells():
    assert conditional_leakage_noisy(0.05 * math.pi, 0.9 * math.pi, EPS) == 0.0
    assert conditional_leakage_noisy(0.5 * math.pi, EPS - 0.5 * math.pi, EPS) == 0.0
    assert conditional_leakage_noisy(0.5 * math.pi, 0.42 * math.pi, EPS) == 0.0
    assert conditional_leakage_noisy(0.95 * math.pi, EPS - 0.95 * math.pi, EPS) == 0.0


def test_mid_cell_value_against_arithmetic_oracle():
    got = conditional_leakage_noisy(0.5 * math.pi, -0.3, EPS)
    assert got == pytest.approx(mid_regime_leakage(0.5 * math.pi, 0.3), abs=1e-14)
    assert got == pytest.approx(0.030141837255209818, abs=1e-12)


def test_saturating_noise_gives_exact_zero():
    assert conditional_leakage_noisy(0.5 * math.pi, EPS, EPS) == 0.0
    assert conditional_leakage_noisy(0.5 * math.pi, 0.2 * math.pi, EPS) == 0.0


def test_out_of_range_noise_rejected():
    with pytest.raises(ValueError):
        conditional_leakage_noisy(0.3, -0.31, EPS)
    with pytest.raises(ValueError):
        conditional_leakage_noisy(0.3, math.pi - 0.29, EPS)


def test_noise_bounds():
    lo, hi = noise_bounds(0.3)
    assert (lo, hi) == (-0.3, math.pi - 0.3)


@settings(max_examples=300, derandomize=True)
@given(
    st.floats(0.36, math.pi - 0.36),
    st.floats(0.0, EPS),
    st.floats(0.0, EPS),
)
def test_mid_column_monotone_in_noise_magnitude(e, n1, n2):
    # Inside the middle column, leakage never increases with |n|.
    lo, hi = sorted((n1, n2))
    if hi >= math.pi - e - EPS:  # keep both inside the open middle interval
        return
    assert conditional_leakage_noisy(e, hi, EPS) <= conditional_leakage_noisy(e, lo, EPS) + 1e-12


def test_mid_cell_never_rises_with_nonzero_noise_magnitude():
    # To the last bit, on a grid of |n| > 0 and each point's next float. The
    # solver relies on it: where the far noise bound leaks more than q, the
    # crossing it found lies past both bounds. n = 0 is left out: there eff
    # is eps exactly, while at |n| below ~1e-8 cos n rounds to 1 and eff is
    # arccos(cos eps), which can lie above eps. So the solver counts a
    # crossing of 0 as short wherever a regime uses the crossing.
    rng = np.random.default_rng(12)
    for eps in (0.01, EPS, 0.3, 0.7, 1.2, 1.5):
        es = np.concatenate([rng.uniform(0.0, math.pi, 150), [eps, 0.5 * math.pi, math.pi - eps]])
        grid = np.concatenate([np.linspace(0.0, eps, 2_000)[1:], np.geomspace(1e-12, eps, 500),
                               [5e-324, 1e-300, 1e-16, 1e-9]])
        magnitudes = np.unique(np.concatenate([grid, np.nextafter(grid, math.inf)]))
        for sign in (1.0, -1.0):
            n = sign * magnitudes[None, :]
            inside = (n > eps - es[:, None]) & (n < math.pi - es[:, None] - eps)
            leak = conditional_leakage_noisy(es[:, None], np.where(inside, n, 0.0), eps)
            rises = np.diff(np.where(inside, leak, np.nan), axis=1) > 0.0
            assert not np.any(rises), (eps, sign, np.argwhere(rises)[:3])
            assert np.count_nonzero(inside) > 30_000, (eps, sign)


# ------------------------------------------------------------- noise solving


def test_optimal_noise_crossing_endpoints():
    # At e = pi/2 the crossing magnitude reaches eps at q = 0, and
    # q pi sin e == eps makes the required extra arc zero: the no-noise
    # leakage is exactly q, so no noise is needed.
    assert optimal_noise(0.5 * math.pi, EPS, 0.0) == pytest.approx(EPS, abs=1e-12)
    assert optimal_noise(0.5 * math.pi, EPS, 0.1) == 0.0
    assert conditional_leakage_noisy(0.5 * math.pi, 0.0, EPS) == 0.1


def test_optimal_noise_against_bisection_oracle():
    # Bisection on the mid-regime formula over |n| in [0, eps], tol 1e-10.
    e, q = 0.5 * math.pi, 0.05
    lo, hi = 0.0, EPS
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if mid_regime_leakage(e, mid) > q:
            lo = mid
        else:
            hi = mid
    got = optimal_noise(e, EPS, q)
    assert got == pytest.approx(0.5 * (lo + hi), abs=1e-9)
    assert got == pytest.approx(0.2732032144912512, abs=1e-12)


def test_crossing_refinement_raises_when_it_cannot_converge(monkeypatch):
    # A leakage that never falls to q exhausts the 200 refinement steps.
    # _mid_leakage is the unchecked helper every evaluation in the solver calls.
    monkeypatch.setattr(bpea, "_mid_leakage", lambda noise, *args: np.ones_like(noise))
    with pytest.raises(ArithmeticError):
        optimal_noise_batch([1.0], EPS, 0.05)


def test_refinement_tries_the_capped_sequence_of_candidates(monkeypatch):
    # Blocks or not, the candidates are the inversion c and the sequential
    # sums c + s, c + s + 2s, ..., and exactly REFINE_STEPS of them are tried.
    tried = []

    def never_meets(noise, *args):
        tried.append(np.array(noise, dtype=float).ravel())
        return np.ones_like(noise)

    monkeypatch.setattr(bpea, "_mid_leakage", never_meets)
    with pytest.raises(ArithmeticError, match="did not converge"):
        optimal_noise_batch([1.0], EPS, 0.05)
    got = np.concatenate(tried[2:])   # after m_left and m_right
    c, s, want = got[0], max(np.spacing(got[0]), 1e-18), [got[0]]
    for _ in range(bpea.REFINE_STEPS - 1):
        c += s
        s *= 2.0
        want.append(c)
    assert got.tobytes() == np.array(want).tobytes()


def test_optimal_noise_zero_when_requirement_already_met():
    # Mid-range error whose no-noise leakage 0.1 stays under q.
    assert optimal_noise(0.5 * math.pi, EPS, 0.2, TAU) == 0.0


def test_optimal_noise_small_error_zero_requirement():
    # The mid-regime saturates to zero leakage at |n| = eps, which is
    # cheaper than jumping to the far zero cell at pi - e - eps.
    n = optimal_noise(0.05 * math.pi, EPS, 0.0, TAU)
    assert n == pytest.approx(EPS, abs=1e-12)
    assert conditional_leakage_noisy(0.05 * math.pi, n, EPS) == 0.0


def test_optimal_noise_matches_crossing_magnitude():
    n = optimal_noise(0.5 * math.pi, EPS, 0.05, TAU)
    crossing = math.acos(math.cos(EPS) / math.cos(0.05 * math.pi * math.sin(0.5 * math.pi)))
    assert n == pytest.approx(crossing, abs=1e-12)
    assert n > 0.0  # positive sign preferred on symmetric candidates


def test_optimal_noise_near_antipodal_is_negative():
    n = optimal_noise(0.95 * math.pi, EPS, 0.0, TAU)
    assert n == pytest.approx(-EPS, abs=1e-12)
    assert conditional_leakage_noisy(0.95 * math.pi, n, EPS) == 0.0


def test_optimal_noise_case_boundaries_stay_feasible():
    # At e == eps the zero-noise upload sits in the certain-leakage cell, so
    # a margin-sized nudge is required.
    n = optimal_noise(EPS, EPS, 0.5, TAU)
    assert n == pytest.approx(TAU, abs=1e-15)
    assert conditional_leakage_noisy(EPS, n, EPS) <= 0.5


def test_optimal_noise_q_one_is_zero():
    for e in (0.0, 0.05 * math.pi, 0.5 * math.pi, math.pi):
        assert optimal_noise(e, EPS, 1.0, TAU) == 0.0


def test_optimal_noise_extreme_errors():
    n0 = optimal_noise(0.0, EPS, 0.0, TAU)
    assert n0 == pytest.approx(EPS + TAU, abs=1e-12)
    assert conditional_leakage_noisy(0.0, n0, EPS) == 0.0
    npi = optimal_noise(math.pi, EPS, 0.0, TAU)
    assert npi == pytest.approx(-EPS - TAU, abs=1e-12)
    assert conditional_leakage_noisy(math.pi, npi, EPS) == 0.0


def test_guarantee_on_dense_grid():
    es = np.arange(0.01, 1.0, 0.01) * math.pi
    qs = np.arange(0.0, 1.0001, 0.01)
    for e in es:
        noises = np.array([optimal_noise(float(e), EPS, float(q), TAU) for q in qs])
        leaks = conditional_leakage_noisy(float(e), noises, EPS)
        assert np.all(leaks <= qs + 1e-12)
        assert np.all(e + noises >= -1e-12) and np.all(e + noises <= math.pi + 1e-12)


def test_requirement_one_ulp_below_the_no_noise_leakage_is_met():
    # q*pi*sin(e) rounds above eps here while mid(e, 0) is one ulp above q;
    # the solver used to keep noise 0, which leaked 0.3404423986722801.
    e, q = 0.7135108934498613, 0.34044239867228004
    n = optimal_noise(e, 0.7, q)
    assert n > 0.0 and conditional_leakage_noisy(e, n, 0.7) <= q


def test_edge_requirements_are_met():
    # q at mid(e, 0) and one ulp either side, on errors over [0, pi] and a
    # hair either side of eps and pi - eps. Just inside the outer regimes mid
    # at tiny |n| > 0 lies above mid(e, 0), and noise 0 used to leak 1 there.
    for eps in (0.01, EPS, 0.3, 0.7, 1.2):
        d = np.geomspace(1e-17, 1e-7, 40)
        es = np.concatenate([np.linspace(0.0, math.pi, 201),
                             eps - d, eps + d, math.pi - eps - d, math.pi - eps + d])
        m_zero = np.minimum(eps / np.maximum(math.pi * np.sin(es), 1e-300), 1.0)
        for qs in (m_zero, np.nextafter(m_zero, 0.0), np.nextafter(m_zero, 1.0)):
            for e, q in zip(es.tolist(), qs.tolist()):
                n = optimal_noise_batch([e], eps, q)
                assert conditional_leakage_noisy(e, n[0], eps) <= q, (eps, e, q)


def test_noise_magnitude_monotone_in_requirement():
    rng = np.random.default_rng(12)
    for _ in range(1_000):
        e = rng.uniform(0.0, math.pi)
        q1, q2 = sorted(rng.uniform(0.0, 1.0, 2))
        assert abs(optimal_noise(e, EPS, q2, TAU)) <= abs(optimal_noise(e, EPS, q1, TAU)) + 1e-12


def test_zero_leakage_always_reachable():
    rng = np.random.default_rng(13)
    for _ in range(300):
        e = rng.uniform(0.0, math.pi)
        n = optimal_noise(e, EPS, 0.0, TAU)
        assert conditional_leakage_noisy(e, n, EPS) == 0.0


def test_optimal_noise_deterministic():
    args = (0.37, EPS, 0.123, TAU)
    values = {optimal_noise(*args) for _ in range(32)}
    assert len(values) == 1


def test_batch_matches_scalar():
    rng = np.random.default_rng(21)
    es = rng.uniform(0.0, math.pi, 500)
    for q in (0.0, 0.03, 0.2, 0.5, 1.0):
        batch = optimal_noise_batch(es, EPS, q, TAU)
        scalar = np.array([optimal_noise(float(e), EPS, q, TAU) for e in es])
        assert np.allclose(batch, scalar, rtol=0.0, atol=1e-15)


def _reference_effective(noise, eps):
    # The effective precision with numpy's clip, as the solver first wrote it.
    n = np.abs(np.asarray(noise, dtype=float))
    ratio = np.clip(math.cos(eps) / np.cos(np.minimum(n, eps)), -1.0, 1.0)
    return np.where(n == 0.0, eps, np.arccos(ratio))


def _reference_mid_leakage(error, noise, eps):
    # The middle-regime formula as the solver evaluated it before it took
    # cos(eps) and the denominators precomputed: everything on each call.
    eff = _reference_effective(noise, eps)
    denom = np.maximum(math.pi * np.sin(np.asarray(error, dtype=float)), 1e-300)
    return np.where(eff <= 0.0, 0.0, np.minimum(eff / denom, 1.0))


def _reference_optimal_noise_batch(e, eps, q, margin):
    """The solver with per-pass fixed work, kept as the bit-exact reference."""
    if q >= 1.0:
        return np.zeros(np.shape(e))
    left = eps - e
    right = math.pi - e - eps
    m_left = _reference_mid_leakage(e, left, eps)
    m_right = _reference_mid_leakage(e, right, eps)
    m_zero = _reference_mid_leakage(e, 0.0, eps)
    target = q * math.pi * np.sin(e)
    ratio = np.clip(math.cos(eps) / np.cos(np.minimum(target, eps)), -1.0, 1.0)
    crossing = np.arccos(ratio)
    crossing = np.where(target <= 0.0, np.maximum(crossing, eps), crossing)
    short = np.flatnonzero(target <= eps)
    step = np.maximum(np.spacing(crossing), 1e-18)
    for _ in range(200):
        short = short[_reference_mid_leakage(e[short], crossing[short], eps) > q]
        if not short.size:
            break
        crossing[short] += step[short]
        step[short] *= 2.0
    else:
        raise ArithmeticError("reference refinement did not converge")
    low_val = np.where(m_left <= q, left + margin, np.where(m_right <= q, crossing, right))
    high_val = np.where(m_right <= q, right - margin, np.where(m_left <= q, -crossing, left))
    farthest = np.maximum(-left, right)
    m_far = _reference_mid_leakage(e, farthest, eps)
    bound_val = np.where(-left <= right, left, right)
    bound_mag = np.minimum(-left, right)
    with_crossing = np.where(crossing < bound_mag, crossing, bound_val)
    mid_val = np.where(m_zero <= q, 0.0, np.where(m_far <= q, with_crossing, bound_val))
    return np.where(e <= eps, low_val, np.where(e >= math.pi - eps, high_val, mid_val))


def test_batch_matches_the_per_pass_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for eps, count in ((EPS, 200_000), (0.01, 5_000), (0.7, 5_000), (1.5, 5_000)):
        special = [0.0, 1e-300, math.pi, eps, 0.5 * math.pi, math.pi - eps]
        near = np.nextafter(np.repeat(special, 2), np.tile([-1.0, 4.0], len(special)))
        es = np.concatenate([special, np.clip(near, 0.0, math.pi),
                             rng.uniform(0.0, math.pi, count), rng.uniform(0.0, 1e-9, 1_000),
                             math.pi - rng.uniform(0.0, 1e-9, 1_000)])
        noise = np.concatenate([-es, rng.uniform(-math.pi, math.pi, 2_000), [0.0, eps]])
        assert np.array_equal(effective_precision(noise, eps), _reference_effective(noise, eps))
        for q in (0.0, 0.01, 0.05, 0.1, 0.3, 0.6, 0.95, 1.0):
            want = _reference_optimal_noise_batch(es, eps, q, TAU)
            assert optimal_noise_batch(es, eps, q, TAU).tobytes() == want.tobytes(), (eps, q)


def test_per_row_solves_match_the_stacked_solve(monkeypatch):
    # The refinement sizes its blocks from the short set, so a (16, 1000)
    # solve and each of its rows refine in different blocks. Errors near 0
    # and pi put the inversion where arccos is ill-conditioned.
    rng = np.random.default_rng(5)
    es = np.concatenate([rng.uniform(0.0, math.pi, (16, 500)), rng.uniform(0.0, 0.12, (16, 250)),
                         math.pi - rng.uniform(0.0, 0.12, (16, 250))], axis=1)
    evaluations, reference = [], _reference_mid_leakage

    def spy(error, noise, eps):
        evaluations.append(np.size(noise))
        return reference(error, noise, eps)

    monkeypatch.setattr(sys.modules[__name__], "_reference_mid_leakage", spy)
    for q in default_q_grid():
        stacked = optimal_noise_batch(es, EPS, q, TAU)
        doublings = []
        for row, got in zip(es, stacked):
            evaluations.clear()
            want = _reference_optimal_noise_batch(row, EPS, q, TAU).tobytes()
            assert optimal_noise_batch(row, EPS, q, TAU).tobytes() == got.tobytes() == want, q
            # Four evaluations outside the loop, and the pass that finds none short.
            doublings.append(len(evaluations) - 5)
        if 0.85 <= q < 1.0:   # q = 1 needs no noise and returns early
            assert min(doublings) >= 8, (q, doublings)


def test_the_split_solver_gives_each_one_q_solve_and_its_leakage():
    # One solver per error set serves every q: each step is bit for bit a
    # fresh one-q solve, its leakage is conditional_leakage_noisy's on the
    # returned noise, and the order of the steps does not matter. Errors
    # within 1e-9 of eps and pi - eps put solves at the regime edges.
    rng = np.random.default_rng(19)
    qs = (0.0, 1e-9, 0.05, 0.2, 0.5, 1.0)
    for eps in (0.01, 0.1 * math.pi, 0.7, 1.2):
        near = rng.uniform(-1e-9, 1e-9, (2, 500))
        es = np.concatenate([rng.uniform(0.0, math.pi, 4_000), eps + near[0],
                             math.pi - eps + near[1]])
        solve = bpea.noise_solver(es, eps, TAU)
        forward = [solve(q) for q in qs]
        backward = [solve(q) for q in reversed(qs)][::-1]
        for q, (noise, leak), (noise_back, leak_back) in zip(qs, forward, backward):
            assert np.array_equal(noise, optimal_noise_batch(es, eps, q, TAU)), (eps, q)
            assert np.array_equal(leak, conditional_leakage_noisy(es, noise, eps)), (eps, q)
            assert np.array_equal(noise_back, noise) and np.array_equal(leak_back, leak), (eps, q)
            assert np.all(leak <= q), (eps, q)


def test_the_split_solver_keeps_the_error_shape_and_checks_q():
    es = np.random.default_rng(20).uniform(0.0, math.pi, (3, 7))
    solve = bpea.noise_solver(es, EPS)
    noise, leak = solve(0.1)
    assert noise.shape == leak.shape == es.shape
    assert np.array_equal(noise, optimal_noise_batch(es, EPS, 0.1))
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            solve(bad)
    with pytest.raises(ValueError):
        bpea.noise_solver([1.0, 4.0], EPS)


def test_obfuscate_error_examples():
    assert obfuscate_error(0.5 * math.pi, EPS, 1.0, TAU) == 0.5 * math.pi
    assert obfuscate_error(0.05 * math.pi, EPS, 0.0, TAU) == pytest.approx(
        0.05 * math.pi + EPS, abs=1e-12
    )
    n = optimal_noise(0.5 * math.pi, EPS, 0.05, TAU)
    assert obfuscate_error(0.5 * math.pi, EPS, 0.05, TAU) == pytest.approx(
        0.5 * math.pi + n, abs=1e-15
    )


def test_obfuscate_error_stays_in_range():
    rng = np.random.default_rng(17)
    for _ in range(500):
        e = rng.uniform(0.0, math.pi)
        q = rng.uniform(0.0, 1.0)
        assert 0.0 <= obfuscate_error(e, EPS, q, TAU) <= math.pi


def test_margin_validation():
    with pytest.raises(ValueError):
        optimal_noise(0.3, EPS, 0.5, 0.0)
    with pytest.raises(ValueError):
        optimal_noise(0.3, EPS, -0.1, DEFAULT_MARGIN)
    # Below one ulp of pi, left + margin rounds back onto the cell edge, where
    # leakage is 1; from pi - 2 eps on, the margin overshoots the cell it nudges
    # into, and past pi - eps it leaves [-e, pi - e]. Both are refused.
    assert MIN_MARGIN == np.spacing(math.pi)
    top = math.pi - 2.0 * EPS
    bounds = rf"\[{MIN_MARGIN!r}, {top!r}\), from one ulp of pi to pi - 2 eps"
    for margin in (1e-20, 1e-17, 1e-16, float(np.nextafter(MIN_MARGIN, 0.0))):
        with pytest.raises(ValueError, match=bounds):
            optimal_noise(0.2, EPS, 0.9, margin)
        with pytest.raises(ValueError, match=rf"\[{MIN_MARGIN!r}, inf\)"):
            bpea.check_margin(margin)
    for margin in (top, 2.9, 3.0):
        with pytest.raises(ValueError, match=bounds):
            optimal_noise(0.0, EPS, 0.0, margin)
        assert bpea.check_margin(margin) == margin   # no eps: the lower bound alone
    for margin in (MIN_MARGIN, DEFAULT_MARGIN, 1e-3, float(np.nextafter(top, 0.0))):
        assert bpea.check_margin(margin, EPS) == margin


@pytest.mark.parametrize("eps", [0.01, 0.1 * math.pi, 0.7, 1.5])
def test_solves_at_both_margin_bounds_stay_admissible_and_meet_q(eps):
    # The errors pack the cell edges of both end regimes, and e = 0 and pi.
    rng = np.random.default_rng(29)
    special = np.array([0.0, eps, math.pi - eps, math.pi, 0.5 * eps, math.pi - 0.5 * eps])
    near = np.nextafter(np.repeat(special, 2), np.tile([-1.0, 4.0], len(special)))
    errors = np.clip(np.concatenate([special, near, np.linspace(0.0, math.pi, 1_001),
                                     rng.uniform(0.0, math.pi, 1_000)]), 0.0, math.pi)
    for margin in (MIN_MARGIN, float(np.nextafter(math.pi - 2.0 * eps, 0.0))):
        solve = bpea.noise_solver(errors, eps, margin)
        for q in np.linspace(0.0, 1.0, 41):
            noises, leakage = solve(q)
            assert np.all(noises >= -errors) and np.all(noises <= math.pi - errors), (margin, q)
            assert np.all(conditional_leakage_noisy(errors, noises, eps) <= q), (margin, q)
            assert np.all(leakage <= q), (margin, q)
