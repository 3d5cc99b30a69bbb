"""Command-line interface.

Exit codes: 0 on success, 2 for invalid configuration or an output path
that cannot be written, 3 when a baseline calibration cannot meet the
requested requirement (results are still written).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import baselines, bpea, harness, leakage, oracle
from .harness import DEFAULT_PRECISION, ExperimentConfig
from .sphere import spherical_distance
from .traces import SessionTrace, write_traces

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_eps(parser):
    parser.add_argument("--eps", type=float, default=DEFAULT_PRECISION,
                        help="required inference precision in radians (default 0.1*pi)")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_trace_set(parser, cfg: ExperimentConfig, videos: int, videos_help: str | None = None):
    """The flags that describe a synthetic trace set, defaulting to ``cfg``'s."""
    parser.add_argument("--users", type=int, default=cfg.num_users)
    parser.add_argument("--videos", type=int, default=videos, help=videos_help)
    parser.add_argument("--gops", type=int, default=cfg.gops_per_video)
    parser.add_argument("--concentration", type=float, default=cfg.concentration)
    _add_seed(parser)


def build_parser() -> argparse.ArgumentParser:
    cfg = ExperimentConfig()   # the tradeoff, calibrate and gen-traces defaults
    attack = oracle.OracleConfig()   # the attack-sim defaults
    parser = argparse.ArgumentParser(
        prog="viewpriv", allow_abbrev=False,
        description="Viewpoint-leakage analysis and noisy-error obfuscation "
                    "for proactive tile-based VR streaming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)   # no flag prefixes

    p = add_parser("leakage", help="evaluate conditional leakage at (e, n)")
    p.add_argument("--e", type=float, required=True, help="prediction error in radians")
    p.add_argument("--n", type=float, default=None, help="additive error noise in radians")
    p.add_argument("--q", type=float, default=None, help="requirement to compare against")
    _add_eps(p)
    p.set_defaults(run=_cmd_leakage)

    p = add_parser("solve-noise", help="minimal-|noise| solution for a requirement")
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tau", type=float, default=bpea.DEFAULT_MARGIN,
                   help="open-interval margin (default 1e-4)")
    _add_eps(p)
    p.set_defaults(run=_cmd_solve_noise)

    p = add_parser("attack-sim", help="Monte-Carlo attacker at (e, n), plus grid search")
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--n", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=attack.trials)
    p.add_argument("--grid-resolution", type=float, default=attack.grid_resolution)
    p.add_argument("--skip-grid", action="store_true", help="skip the grid attacker search")
    _add_eps(p)
    _add_seed(p)
    p.set_defaults(run=_cmd_attack_sim)

    p = add_parser("calibrate", help="one-dimensional baseline noise-scale search")
    p.add_argument("--kind", choices=tuple(baselines.SEARCH_MAX), required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--step", type=float, default=cfg.calibration_step)
    _add_trace_set(p, cfg, cfg.num_train_videos, "calibration videos per user")
    _add_eps(p)
    p.set_defaults(run=_cmd_calibrate)

    p = add_parser("tradeoff", help="full QoE-privacy tradeoff experiment to CSV")
    p.add_argument("--q-grid", type=str, default=None,
                   help="comma-separated requirements (default 0,0.05,...,1)")
    p.add_argument("--policies", type=str, default=",".join(cfg.policies))
    _add_trace_set(p, cfg, cfg.num_videos, "evaluation videos per user")
    p.add_argument("--train-videos", type=int, default=cfg.num_train_videos)
    p.add_argument("--budget-mbit", type=float, default=cfg.budget_mbit)
    p.add_argument("--tau", type=float, default=cfg.margin)
    p.add_argument("--out", type=str, required=True)
    _add_eps(p)
    p.set_defaults(run=_cmd_tradeoff)

    p = add_parser("gen-traces", help="synthesize head traces to CSV")
    _add_trace_set(p, cfg, cfg.num_train_videos + cfg.num_videos)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(run=_cmd_gen_traces)

    return parser


def _cmd_leakage(args) -> int:
    q = None if args.q is None else leakage.check_requirement(args.q)
    if args.n is None:
        value = leakage.conditional_leakage(args.e, args.eps)
        print(f"conditional_leakage(e={args.e:.6g}, eps={args.eps:.6g}) = {value:.10g}")
    else:
        value = bpea.conditional_leakage_noisy(args.e, args.n, args.eps)
        print(f"conditional_leakage_noisy(e={args.e:.6g}, n={args.n:.6g}, "
              f"eps={args.eps:.6g}) = {value:.10g}")
    if q is not None:
        print(f"requirement q={q:.6g}: {'met' if value <= q else 'NOT met'}")
    return EXIT_OK


def _cmd_solve_noise(args) -> int:
    noise = bpea.optimal_noise(args.e, args.eps, args.q, args.tau)
    achieved = bpea.conditional_leakage_noisy(args.e, noise, args.eps)
    print(f"optimal noise n* = {noise:.10g} rad (|n*| = {abs(noise):.10g})")
    print(f"uploaded error   = {bpea.obfuscate_error(args.e, args.eps, args.q, args.tau):.10g} rad")
    print(f"achieved leakage = {achieved:.10g} (requirement {args.q:.6g})")
    return EXIT_OK


def _cmd_attack_sim(args) -> int:
    cfg = oracle.OracleConfig(trials=args.trials, grid_resolution=args.grid_resolution,
                              seed=args.seed)
    estimate = oracle.empirical_conditional_leakage(args.e, args.n, args.eps, cfg)
    analytic = bpea.conditional_leakage_noisy(args.e, args.n, args.eps)
    print(f"empirical leakage = {estimate.value:.6f} +- {estimate.half_width:.6f} "
          f"({estimate.trials} trials)")
    print(f"analytic leakage  = {analytic:.6f}")
    if not args.skip_grid and args.eps < args.e < math.pi - args.eps:
        best, prob = oracle.grid_attacker_best(args.e, args.eps, cfg)
        distance = spherical_distance(best, oracle.REFERENCE_POINT)
        print(f"grid attacker: best guess at distance {distance:.6f} rad "
              f"(true error {args.e:.6f}), leak {prob:.6f}")
    return EXIT_OK


def _noise_limit(eps: float) -> str:
    """The leakage baselines approach at large scale, for infeasible calibrations."""
    limit = leakage.uniform_error_leakage(eps)
    return f"coordinate noise tends to leakage {limit:.4f} as its scale grows"


def _cmd_calibrate(args) -> int:
    cfg = ExperimentConfig(
        eps=args.eps, q_grid=(args.q,), policies=(args.kind,),
        num_users=args.users, num_videos=1, num_train_videos=args.videos,
        gops_per_video=args.gops, seed=args.seed, concentration=args.concentration,
        calibration_step=args.step,
    )
    train, _ = harness.generate_trace_set(cfg)
    result = harness.calibrate_baselines(cfg, train)[(args.kind, args.q)]
    if result.feasible:
        print(f"feasible: scale {result.scale.value:.4g} achieves leakage "
              f"{result.achieved_leakage:.6f} <= q={args.q:.6g} "
              f"(first met at scan step {result.search_evals})")
        return EXIT_OK
    print(f"infeasible: best leakage {result.achieved_leakage:.6f} at scale "
          f"{result.scale.value:.4g} exceeds q={args.q:.6g} "
          f"({result.search_evals} scales scanned; {_noise_limit(args.eps)})")
    return EXIT_INFEASIBLE


def _cmd_tradeoff(args) -> int:
    if args.q_grid is None:
        q_grid = harness.default_q_grid()
    else:
        q_grid = tuple(float(x) for x in args.q_grid.split(",") if x.strip() != "")
    policies = tuple(x.strip() for x in args.policies.split(",") if x.strip() != "")
    cfg = ExperimentConfig(
        eps=args.eps, q_grid=q_grid, policies=policies,
        num_users=args.users, num_videos=args.videos, num_train_videos=args.train_videos,
        gops_per_video=args.gops, seed=args.seed, budget_mbit=args.budget_mbit,
        margin=args.tau, concentration=args.concentration, out_path=args.out,
    )
    result = harness.run_tradeoff_experiment(cfg)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    infeasible = sorted(k for k, c in result.calibrations.items() if not c.feasible)
    if infeasible:
        print(f"warning: {len(infeasible)} calibration points infeasible "
              f"(fallback scales used; {_noise_limit(args.eps)}): "
              f"{infeasible[:6]}{'...' if len(infeasible) > 6 else ''}")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_gen_traces(args) -> int:
    harness.check_out_path(args.out)
    walks = harness.synthesize_traces(args.seed, args.users, args.videos, args.gops,
                                      args.concentration)
    traces = [SessionTrace(user, video, walk) for user, videos in enumerate(walks)
              for video, walk in enumerate(videos)]
    write_traces(traces, args.out)
    print(f"wrote {len(traces)} traces ({args.users} users x {args.videos} videos, "
          f"{args.gops} GoPs each) to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
