"""Batch command-line frontend.

Subcommands: ``generate`` (problem + noisy data containers), ``select``
(choose alpha by any rule, JSON on stdout), ``study`` (replicate harness,
CSV reports) and ``curve`` (risk-style curves as CSV).

Exit codes: 0 success, 2 usage/config error, 3 degenerate data,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import bench, problems, rules
from .errors import ConvergenceError, DegenerateDataError
from .risk import RiskCurve, lower_bound_T, predictive_risk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_CONVERGENCE = 4


def _fallback_seed(value):
    if value is not None:
        return value
    return int(os.environ.get("RISKREG_SEED", "0"))


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


_finite_float.__name__ = "float"  # argparse names the type in its error for non-numbers


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse fills a fresh namespace
    whose ``run`` is the command's function."""
    parser = argparse.ArgumentParser(prog="riskreg",
                                     description="Regularization-parameter selection "
                                                 "for linear inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark problem and noisy data")
    gen.add_argument("--problem", required=True)
    gen.add_argument("--variant", type=int, default=None)
    gen.add_argument("--n", type=int, default=64)
    gen.add_argument("--xi", type=_finite_float, default=10.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--replicate", type=int, default=0, help="first replicate index")
    gen.add_argument("--replicates", type=int, default=1,
                     help="number of consecutive replicates to write")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(run=_cmd_generate)

    sel = sub.add_parser("select", help="choose alpha for a data container")
    sel.add_argument("--data", required=True, help="container file with the data")
    sel.add_argument("--rule", required=True, choices=rules.RULE_NAMES)
    sel.add_argument("--rho2", type=_finite_float, default=None)
    sel.add_argument("--sigma2", type=_finite_float, default=None)
    sel.add_argument("--sigma", type=_finite_float, default=None)
    sel.add_argument("--alpha-init", type=_finite_float, default=None)
    sel.add_argument("--grid-min", type=_finite_float, default=None)
    sel.add_argument("--grid-max", type=_finite_float, default=None)
    sel.add_argument("--grid-points", type=int, default=None)
    sel.add_argument("--matrix-free", action="store_true")
    sel.add_argument("--probes", type=int, default=bench.DEFAULT_PROBES)
    sel.add_argument("--seed", type=int, default=None)
    sel.add_argument("--bp-gamma", type=_finite_float, default=0.25)
    sel.add_argument("--bp-c", type=_finite_float, default=1.5)
    sel.set_defaults(run=_cmd_select)

    study = sub.add_parser("study", help="run a replicate study from a config file")
    study.add_argument("--config", required=True)
    study.add_argument("--out", required=True, help="output directory for the CSVs")
    study.add_argument("--workers", type=int, default=1)
    study.set_defaults(run=_cmd_study)

    curve = sub.add_parser("curve", help="emit a risk-style curve as CSV")
    curve.add_argument("--data", required=True)
    curve.add_argument("--kind", required=True,
                       choices=("lower_bound", "predictive", "upre", "gcv", "lcurve"))
    curve.add_argument("--grid-min", type=_finite_float, default=None)
    curve.add_argument("--grid-max", type=_finite_float, default=None)
    curve.add_argument("--grid-points", type=int, default=None)
    curve.add_argument("--out", default=None, help="output file (default stdout)")
    curve.set_defaults(run=_cmd_curve)
    return parser


def _cmd_generate(args) -> int:
    seed = _fallback_seed(args.seed)
    if args.replicates < 1:
        raise ValueError("need at least one replicate")
    if args.replicate < 0:
        raise ValueError(f"need a nonnegative first replicate, got {args.replicate}")
    problem = problems.make_problem(args.problem, args.variant, args.n)
    os.makedirs(args.out, exist_ok=True)
    tag = problem.name if problem.variant is None else f"{problem.name}{problem.variant}"
    ppath = os.path.join(args.out, f"problem_{tag}_n{args.n}.rr")
    problems.save_container(ppath, problem=problem)
    paths = [ppath]
    for rep in range(args.replicate, args.replicate + args.replicates):
        data = problems.add_noise(problem, args.xi, seed, rep)
        dpath = os.path.join(args.out, f"data_{tag}_n{args.n}_xi{args.xi:g}_r{rep}.rr")
        problems.save_container(dpath, problem=problem, noisy=data)
        paths.append(dpath)
        if rep == args.replicate:
            print(f"sigma = {data.sigma:.12g}")
            print(f"xi = {data.xi:.12g}")
    for path in paths:
        print(path)
    return EXIT_OK


def _load_dataset(path):
    raw = problems.load_container(path)
    problem = problems.problem_from_container(raw)
    noisy = problems.noisy_from_container(raw) if "g" in raw else None
    return problem, noisy


_GRID_FLAGS = ("--grid-min", "--grid-max", "--grid-points")


def _check_grid_flags(args) -> None:
    bench._check_grid(args.grid_min, args.grid_max, args.grid_points, _GRID_FLAGS)


# Per rule, the noise input select needs ("sigma", "sigma2" or None) and the
# rule's call on (setup, g, sigma, sigma2, args).  A call fetches only what its
# rule reads, the measure or spectrum (``setup.source``) before the path, so a
# matrix-free select builds each only for its readers, and a rule that reads
# both fails on the measure before it builds the path.
_SELECT = {
    "pro": ("sigma2", lambda s, g, sigma, sigma2, a: (
        rules.pro_estimated(s.source, g, sigma2) if a.rho2 is None
        else rules.pro(s.source, a.rho2, sigma2, n=g.size))),
    # in grid mode (matrix-free) ipro reads its residuals from the path
    "ipro": (None, lambda s, g, sigma, sigma2, a: rules.ipro(
        s.source, g, alpha_init=a.alpha_init, path=s.path(g, False) if s.matrix_free else None)),
    "dp": ("sigma", lambda s, g, sigma, sigma2, a: rules.dp(s.path(g, False), sigma)),
    "upre": ("sigma2", lambda s, g, sigma, sigma2, a: rules.upre(
        trace_source=s.source, path=s.path(g, False), sigma2=sigma2)),
    "bp": ("sigma", lambda s, g, sigma, sigma2, a: rules.bp(
        noise_source=s.source, path=s.path(g, True), sigma=sigma, gamma=a.bp_gamma, c=a.bp_c)),
    "gcv": (None, lambda s, g, sigma, sigma2, a: rules.gcv(
        trace_source=s.source, path=s.path(g, False))),
    "lc": (None, lambda s, g, sigma, sigma2, a: rules.lc(s.path(g, False))),
    "qoc": (None, lambda s, g, sigma, sigma2, a: rules.qoc(s.path(g, True))),
}


def _cmd_select(args) -> int:
    if args.probes < 1:
        raise ValueError(f"need at least one probe, got {args.probes}")
    _check_grid_flags(args)  # also for the rules that read no grid or bp setting
    rules.check_bp(args.bp_gamma, args.bp_c, keys=("--bp-gamma", "--bp-c"))
    problem, noisy = _load_dataset(args.data)
    if noisy is None:
        _build_parser().error("container has no noisy data vector")
    g = noisy.g
    seed = _fallback_seed(args.seed)
    sigma = args.sigma if args.sigma is not None else (noisy.sigma or None)
    sigma2 = args.sigma2 if args.sigma2 is not None else (
        None if sigma is None else sigma * sigma)
    noise, select = _SELECT[args.rule]
    if noise == "sigma" and sigma is None:
        _build_parser().error(f"{args.rule} needs --sigma")
    if noise == "sigma2" and sigma2 is None:
        _build_parser().error(f"{args.rule} needs --sigma2 or --sigma")

    with np.errstate(over="raise", invalid="raise"):
        setup = bench.OperatorSetup(problem.A, args.matrix_free, args.grid_points,
                                    args.grid_min, args.grid_max, args.probes, seed,
                                    _GRID_FLAGS)
        selection = select(setup, g, sigma, sigma2, args)
    if not math.isfinite(selection.alpha):
        raise DegenerateDataError(f"{args.rule} selected a non-finite alpha")
    print(selection.to_json())
    return EXIT_OK


def _cmd_study(args) -> int:
    with open(args.config) as fh:
        config = bench.StudyConfig.from_json(fh.read())
    reports = bench.run_study(config, workers=args.workers)
    for fname in bench.write_reports(reports, args.out):
        print(fname)
    return EXIT_OK


def _cmd_curve(args) -> int:
    _check_grid_flags(args)
    problem, noisy = _load_dataset(args.data)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        setup = bench.OperatorSetup(problem.A, points=args.grid_points, lo=args.grid_min,
                                    hi=args.grid_max, keys=_GRID_FLAGS)
        dec, alphas = setup.dec, setup.grid.values
        sigma2 = None if noisy is None else noisy.sigma ** 2

        if args.kind in ("predictive", "lower_bound"):
            if problem.g_true is None:
                raise DegenerateDataError("curve kind needs the exact data in the container")
            if sigma2 is None:
                raise DegenerateDataError("curve kind needs the noise level in the container")
        if args.kind in ("upre", "gcv", "lcurve") and noisy is None:
            raise DegenerateDataError("curve kind needs noisy data in the container")

        if args.kind == "predictive":
            values = predictive_risk(dec, problem.g_true, sigma2, alphas)
        elif args.kind == "lower_bound":
            values = lower_bound_T(float(problem.g_true @ problem.g_true), sigma2, dec,
                                   alphas)
        else:
            path = setup.path(noisy.g, keep_solutions=False)
            if args.kind == "upre":
                values = rules.upre(path, dec, sigma2).diagnostics["objective_samples"]
            elif args.kind == "gcv":
                values = rules.gcv(path, dec).diagnostics["objective_samples"]

    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        if args.kind == "lcurve":
            out.write("alpha,residual_norm,solution_norm\n")
            for a, r, s in zip(alphas, path.residual_norms, path.solution_norms):
                out.write(f"{a:.12g},{r:.12g},{s:.12g}\n")
        else:
            RiskCurve(alphas, values, args.kind).to_csv(out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # from argparse, also parser.error inside a command
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (DegenerateDataError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # JSONDecodeError is a ValueError; MemoryError, an allocation numpy
        # refuses (a count flag too large for the machine)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
