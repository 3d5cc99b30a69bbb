"""Acceptance suite.

One test per acceptance criterion, each pinned to its stated tolerance and
runtime budget and printing a single PASS/FAIL line (run pytest with -s to
see them).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from viewpriv.bpea import conditional_leakage_noisy, optimal_noise
from viewpriv.harness import ExperimentConfig, run_tradeoff_experiment
from viewpriv.leakage import conditional_leakage, optimal_error_distribution
from viewpriv.oracle import (
    OracleConfig,
    REFERENCE_POINT,
    empirical_conditional_leakage,
    grid_attacker_best,
)
from viewpriv.policies import BpeaPolicy, NoObfuscation
from viewpriv.sphere import SpherePoint, points_at_distance, random_point, spherical_distance
from viewpriv.streaming import (
    GOP_SECONDS,
    HIGH_MBPS,
    LOW_MBPS,
    TILE_COLS,
    TILE_ROWS,
    ZONE_SHAPES,
    allocate_quality,
    simulate_session,
)
from viewpriv.traces import generate_synthetic_trace

EPS = 0.1 * math.pi
TAU = 1e-4


@contextmanager
def criterion(cid, name, budget_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {cid} ({name}): FAIL")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, f"criterion {cid} took {elapsed:.1f}s"
    print(f"\nACCEPTANCE {cid} ({name}): PASS in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 1


def grid_min_leakage(eps, bins):
    """Least leakage of any error distribution on ``bins`` evenly spaced errors in [0, pi]:
    the objective is linear in the distribution, so the best is the best single point."""
    return float(np.min(conditional_leakage(np.linspace(0.0, math.pi, bins), eps)))


def test_criterion_1_minimal_leakage_bound():
    with criterion(1, "minimal-leakage bound", 1.0):
        location, floor = optimal_error_distribution(EPS)
        assert location == math.pi / 2
        assert floor == pytest.approx(0.1, abs=1e-12)
        assert grid_min_leakage(EPS, 10_000) == pytest.approx(0.1, abs=1e-4)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_analytic_vs_oracle_agreement():
    with criterion(2, "analytic vs oracle agreement", 60.0):
        cfg = OracleConfig(trials=100_000, grid_resolution=0.1, seed=6)
        for k in range(3, 18):
            e = 0.05 * math.pi * k
            analytic = conditional_leakage(e, EPS)
            estimate = empirical_conditional_leakage(e, 0.0, EPS, cfg)
            tol = 4.0 * math.sqrt(analytic * (1.0 - analytic) / cfg.trials) + 1e-3
            assert abs(estimate.value - analytic) <= tol, (k, estimate.value, analytic)

        grid_cfg = OracleConfig(trials=30_000, grid_resolution=0.1, seed=11)
        for e in (0.3 * math.pi, 0.5 * math.pi, 0.7 * math.pi):
            best, prob = grid_attacker_best(e, EPS, grid_cfg)
            distance = spherical_distance(best, REFERENCE_POINT)
            assert abs(distance - e) <= grid_cfg.grid_resolution, (e, distance)
            half_width = 4.0 * math.sqrt(prob * (1.0 - prob) / grid_cfg.trials)
            assert abs(prob - conditional_leakage(e, EPS)) <= half_width, (e, prob)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_constant_cell_exactness():
    with criterion(3, "constant-cell exactness", 10.0):
        cfg = OracleConfig(trials=20_000, grid_resolution=0.1, seed=3)
        e_low, e_mid, e_high = 0.05 * math.pi, 0.5 * math.pi, 0.95 * math.pi
        cells = [
            (e_low, 0.0, 1.0),                       # small error, small noise
            (e_high, math.pi - e_high, 1.0),         # near-antipodal, noise to pi
            (e_low, 0.9 * math.pi, 0.0),             # small error pushed far out
            (e_mid, EPS - e_mid, 0.0),               # mid error pulled under eps
            (e_mid, 0.42 * math.pi, 0.0),            # mid error pushed past pi-eps
            (e_high, EPS - e_high, 0.0),             # near-antipodal pulled under eps
        ]
        for e, n, want in cells:
            assert conditional_leakage_noisy(e, n, EPS) == want, ("analytic", e, n)
            assert empirical_conditional_leakage(e, n, EPS, cfg).value == want, ("mc", e, n)


# --------------------------------------------------------------- criterion 4


def _piecewise_leakage_curve(e, noises):
    """Independent vectorized replica of the noisy-leakage table for the
    brute-force scan."""
    n = np.asarray(noises)
    eff = np.arccos(np.clip(math.cos(EPS) / np.cos(np.minimum(np.abs(n), EPS)), -1.0, 1.0))
    mid = np.where(
        eff <= 0.0, 0.0, np.minimum(eff / max(math.pi * math.sin(e), 1e-300), 1.0)
    )
    left = n <= EPS - e
    right = n >= math.pi - e - EPS
    if e <= EPS:
        ones, zeros = left, right
    elif e >= math.pi - EPS:
        ones, zeros = right, left
    else:
        ones = np.zeros_like(left)
        zeros = left | right
    return np.where(ones, 1.0, np.where(zeros, 0.0, mid))


def test_criterion_4_solver_optimality():
    with criterion(4, "noise-solver optimality vs brute force", 120.0):
        resolution = 1e-5
        magnitudes = np.arange(0.0, math.pi + resolution, resolution)
        errors = np.linspace(0.0, math.pi, 52)[1:-1]
        requirements = np.linspace(0.0, 1.0, 50)
        for e in errors:
            e = float(e)
            pos_valid = magnitudes <= math.pi - e
            neg_valid = magnitudes <= e
            leak_pos = np.where(
                pos_valid, _piecewise_leakage_curve(e, magnitudes), np.inf
            )
            leak_neg = np.where(
                neg_valid, _piecewise_leakage_curve(e, -magnitudes), np.inf
            )
            for q in requirements:
                q = float(q)
                n_star = optimal_noise(e, EPS, q, TAU)
                achieved = conditional_leakage_noisy(e, n_star, EPS)
                assert achieved <= q + 1e-12, ("constraint", e, q, n_star, achieved)
                if q == 0.0:
                    assert achieved == 0.0, ("exact-zero", e, n_star)
                feasible = (leak_pos <= q) | (leak_neg <= q)
                idx = int(np.argmax(feasible))
                assert feasible[idx], ("oracle found nothing", e, q)
                assert abs(abs(n_star) - magnitudes[idx]) <= TAU + resolution, (
                    "magnitude", e, q, n_star, magnitudes[idx],
                )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_pspr_contrast():
    with criterion(5, "requirement-satisfaction contrast", 300.0):
        cfg = ExperimentConfig(
            num_users=48, num_videos=4, num_train_videos=5, gops_per_video=2000,
            seed=0, compute_qoe=False, calibration_step=1.0,
        )
        measured, _ = run_tradeoff_experiment(cfg)
        by_policy = {}
        for row in measured:
            by_policy.setdefault(row.policy, []).append(row)

        for row in by_policy["bpea"]:
            assert row.pspr == 1.0, ("bpea", row.q, row.pspr)
        for name in ("gaussian", "laplace"):
            rows = sorted(by_policy[name], key=lambda r: r.q)
            for row in rows:
                if row.q < 0.1:
                    assert row.pspr == 0.0, (name, row.q, row.pspr)
            ratios = [r.pspr for r in rows]
            assert all(b >= a for a, b in zip(ratios, ratios[1:])), (name, ratios)


# --------------------------------------------------------------- criterion 6


def test_criterion_6_tradeoff_shape():
    with criterion(6, "tradeoff shape", 600.0):
        q_grid = tuple(round(0.1 * i, 1) for i in range(8)) + (1.0,)
        cfg = ExperimentConfig(
            num_users=24, num_videos=4, num_train_videos=5, gops_per_video=60,
            seed=0, policies=("none", "bpea", "gaussian", "laplace"), q_grid=q_grid,
        )
        measured, _ = run_tradeoff_experiment(cfg)
        rows = {(r.policy, r.q): r for r in measured}

        # (a) vacuous requirement: no uploaded-error inflation, no QoE loss.
        vacuous, baseline_free = rows[("bpea", 1.0)], rows[("none", 1.0)]
        assert vacuous.mean_abs_noise_rad == 0.0
        assert vacuous.mean_error_rad == baseline_free.mean_error_rad
        assert vacuous.qoe == baseline_free.qoe
        assert vacuous.pr_leak == baseline_free.pr_leak
        # Prediction performance is untouched at every requirement.
        bpea_rows = [rows[("bpea", q)] for q in q_grid]
        assert all(r.mean_error_rad == baseline_free.mean_error_rad for r in bpea_rows)

        # (b) at matched achieved leakage, the noisy-error mechanism keeps
        # errors no larger and QoE no smaller than either baseline.
        matched = 0
        for name in ("gaussian", "laplace"):
            pairs = 0
            for q in q_grid:
                base = rows[(name, q)]
                closest = min(bpea_rows, key=lambda r: abs(r.pr_leak - base.pr_leak))
                if abs(closest.pr_leak - base.pr_leak) > 0.06:
                    continue
                pairs += 1
                assert closest.mean_error_rad <= base.mean_error_rad + 1e-12, (name, q)
                assert closest.qoe >= base.qoe - 1e-12, (name, q)
            assert pairs >= 4, (name, pairs)
            matched += pairs
        assert matched >= 8


# --------------------------------------------------------------- criterion 7


def test_criterion_7_property_suites(tmp_path):
    with criterion(7, "property suites", 120.0):
        # Sphere round trip: 1e4 random cases at 1e-9.
        rng = np.random.default_rng(2718)
        for _ in range(10_000):
            origin = random_point(rng)
            d = rng.uniform(0.0, math.pi)
            row = points_at_distance(origin, d, [rng.uniform(0.0, 2.0 * math.pi)])[0]
            out = SpherePoint.from_array(row)
            assert abs(spherical_distance(origin, out) - d) <= 1e-9

        # Mid-column monotonicity in |n|: 1e3 cases.
        for _ in range(1_000):
            e = rng.uniform(EPS + 0.05, math.pi - EPS - 0.05)
            hi_mag = min(EPS, e - EPS, math.pi - e - EPS) - 1e-9
            if hi_mag <= 0:
                continue
            a, b = np.sort(rng.uniform(0.0, hi_mag, 2))
            sa = rng.choice([-1.0, 1.0])
            assert conditional_leakage_noisy(e, sa * b, EPS) <= (
                conditional_leakage_noisy(e, sa * a, EPS) + 1e-12
            )

        # Noise magnitude monotone non-increasing in q: 1e3 cases.
        for _ in range(1_000):
            e = rng.uniform(0.0, math.pi)
            q1, q2 = np.sort(rng.uniform(0.0, 1.0, 2))
            assert abs(optimal_noise(e, EPS, float(q2), TAU)) <= (
                abs(optimal_noise(e, EPS, float(q1), TAU)) + 1e-12
            )

        # Determinism: repeated solves and byte-identical experiment CSVs.
        assert len({optimal_noise(0.4, EPS, 0.2, TAU) for _ in range(64)}) == 1
        small = dict(
            num_users=3, num_videos=2, num_train_videos=2, gops_per_video=12,
            seed=5, q_grid=(0.0, 0.5, 1.0), calibration_step=1.0,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_tradeoff_experiment(ExperimentConfig(out_path=str(a), **small))
        run_tradeoff_experiment(ExperimentConfig(out_path=str(b), **small))
        assert a.read_bytes() == b.read_bytes()

        # Budget conservation: exhaustive over every reachable allocation at
        # the budgets used below, then QoE bounds over 1e3 sessions.
        budgets = (40.0, 95.4)
        # A streamed tile's quality is its rate over HIGH_MBPS.
        rate = {LOW_MBPS / HIGH_MBPS: LOW_MBPS, HIGH_MBPS / HIGH_MBPS: HIGH_MBPS}
        for budget in budgets:
            for r in range(TILE_ROWS):
                for c in range(TILE_COLS):
                    for shape in ZONE_SHAPES:
                        quality, _ = allocate_quality((r, c), shape, budget)
                        spent = sum(rate[q] for q in quality.values()) * GOP_SECONDS
                        assert spent <= budget + 1e-9
        session_rng = np.random.default_rng(41)
        for i in range(1_000):
            trace = generate_synthetic_trace(0, i, 6, session_rng)
            policy = BpeaPolicy(q=float(session_rng.uniform(0.0, 1.0))) if i % 2 else NoObfuscation()
            report, _ = simulate_session(trace, policy, budgets[i % len(budgets)], EPS,
                                         session_rng)
            assert 1.0 <= report.qoe <= 5.0
