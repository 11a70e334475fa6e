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
import json
import math
import os
import sys

import numpy as np

from . import bench, problems, rules, tikhonov
from .errors import ConvergenceError, DegenerateDataError
from .linop import largest_eigenvalue, svd
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
    """The command-line parser, built once per process; each parse fills a fresh namespace."""
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

    study = sub.add_parser("study", help="run a replicate study from a config file")
    study.add_argument("--config", required=True)
    study.add_argument("--out", required=True, help="output directory for the CSVs")
    study.add_argument("--workers", type=int, default=1)

    curve = sub.add_parser("curve", help="emit a risk-style curve as CSV")
    curve.add_argument("--data", required=True)
    curve.add_argument("--kind", required=True,
                       choices=("lower_bound", "predictive", "upre", "gcv", "lcurve"))
    curve.add_argument("--grid-min", type=_finite_float, default=None)
    curve.add_argument("--grid-max", type=_finite_float, default=None)
    curve.add_argument("--grid-points", type=int, default=None)
    curve.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _cmd_generate(args) -> int:
    seed = _fallback_seed(args.seed)
    if args.replicates < 1:
        raise ValueError("need at least one replicate")
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
    return raw, problem, noisy


def _dense_source(problem):
    dec = svd(problem.A)
    if dec.rank == 0:
        raise DegenerateDataError("the operator matrix is zero")
    return dec


def _cmd_select(args, parser) -> int:
    raw, problem, noisy = _load_dataset(args.data)
    if noisy is None:
        parser.error("container has no noisy data vector")
    g = noisy.g
    seed = _fallback_seed(args.seed)
    sigma = args.sigma if args.sigma is not None else (noisy.sigma or None)
    sigma2 = args.sigma2 if args.sigma2 is not None else (
        None if sigma is None else sigma * sigma)
    rule = rules.RULES[args.rule]
    if rule.noise == "sigma" and sigma is None:
        parser.error(f"{args.rule} needs --sigma")
    if rule.noise == "sigma2" and sigma2 is None:
        parser.error(f"{args.rule} needs --sigma2 or --sigma")

    with np.errstate(over="raise", invalid="raise"):
        matrix_free = args.matrix_free or problem.A.representation != "dense"
        if matrix_free:
            s1_sq = largest_eigenvalue(problem.A, seed=seed)
        else:
            source = _dense_source(problem)
            s1_sq = float(source.s[0]) ** 2
        path = None
        if rule.needs_path or matrix_free:
            grid = bench.build_grid(s1_sq, matrix_free, points=args.grid_points,
                                    lo=args.grid_min, hi=args.grid_max)
            if matrix_free:
                source = tikhonov.influence_path_stochastic(problem.A, grid.values,
                                                            args.probes, seed, lam1=s1_sq)
                path = tikhonov.iterative_path(problem.A, g, grid.values)
            else:
                path = tikhonov.spectral_path(source, g, grid.values)
        inputs = rules.SelectionInputs(g=g, source=source, path=path, sigma=sigma,
                                       sigma2=sigma2, rho2=args.rho2,
                                       alpha_init=args.alpha_init, bp_gamma=args.bp_gamma,
                                       bp_c=args.bp_c)
        selection = rule.run(inputs)
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


def _cmd_curve(args, parser) -> int:
    raw, problem, noisy = _load_dataset(args.data)
    dec = _dense_source(problem)
    grid = bench.build_grid(float(dec.s[0]) ** 2, matrix_free=False, points=args.grid_points,
                            lo=args.grid_min, hi=args.grid_max)
    alphas = grid.values
    sigma2 = None if noisy is None else noisy.sigma ** 2

    if args.kind in ("predictive", "lower_bound"):
        if problem.g_true is None:
            raise DegenerateDataError("curve kind needs the exact data in the container")
        if sigma2 is None:
            raise DegenerateDataError("curve kind needs the noise level in the container")
    if args.kind in ("upre", "gcv", "lcurve") and noisy is None:
        raise DegenerateDataError("curve kind needs noisy data in the container")

    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        if args.kind == "predictive":
            if problem.f_true is None:
                raise DegenerateDataError("predictive curve needs f_true in the container")
            values = predictive_risk(dec, problem.g_true, sigma2, alphas)
        elif args.kind == "lower_bound":
            values = lower_bound_T(float(problem.g_true @ problem.g_true), sigma2, dec,
                                   alphas)
        else:
            path = tikhonov.spectral_path(dec, noisy.g, alphas, keep_solutions=False)
            if args.kind == "lcurve":
                out.write("alpha,residual_norm,solution_norm\n")
                for a, r, s in zip(alphas, path.residual_norms, path.solution_norms):
                    out.write(f"{a:.12g},{r:.12g},{s:.12g}\n")
                return EXIT_OK
            sel = rules.upre(path, dec, sigma2) if args.kind == "upre" else rules.gcv(path, dec)
            values = sel.diagnostics["objective_samples"]
        RiskCurve(alphas, values, args.kind).to_csv(out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "select":
            return _cmd_select(args, parser)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "curve":
            return _cmd_curve(args, parser)
        parser.error(f"unknown command {args.command}")
    except SystemExit as exc:  # parser.error inside a command
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (ValueError, KeyError, OSError, json.JSONDecodeError, FloatingPointError) as exc:
        if isinstance(exc, (DegenerateDataError, FloatingPointError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
