"""Replicate-study harness: grids, oracle errors, efficiencies, and CSV reports.

A study cell is one (problem, SNR) pair.  For every replicate the solution
path is computed once on a shared log grid; every rule then selects a point of
that path, so each efficiency lies in (0, 1] by construction.  All randomness
is keyed by (seed, replicate), which makes the output independent of worker
count and scheduling.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rules as rules_mod
from .errors import ConvergenceError, DegenerateDataError
from .linop import largest_eigenvalue, svd
from .problems import add_noise, make_problem
from .tikhonov import (influence_path_exact, influence_path_stochastic,
                       iterative_path, spectral_path)

DEFAULT_GRID_POINTS = 200
GRID_MIN_FACTOR = 1e-12   # of s1^2
GRID_MAX_FACTOR = 0.5     # of s1^2
MATRIX_FREE_GRID_POINTS = 100
MATRIX_FREE_RANGE = (1e-8, 1e-2)   # of s1^2 / 2
DEFAULT_PROBES = 32


@dataclass(frozen=True)
class AlphaGrid:
    """Log-equispaced grid; endpoints are hit exactly.  ``values`` is computed
    once and is read-only."""

    min: float
    max: float
    points: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.min > 0 and self.max > self.min):
            raise ValueError("need 0 < min < max")
        if self.points < 2:
            raise ValueError("need at least two grid points")
        values = np.geomspace(self.min, self.max, self.points)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def default_grid(s1_sq: float, points: int = DEFAULT_GRID_POINTS) -> AlphaGrid:
    """The 1-D study grid: [1e-12, 1/2] * s1^2."""
    return AlphaGrid(GRID_MIN_FACTOR * s1_sq, GRID_MAX_FACTOR * s1_sq, points)


def matrix_free_grid(s1_sq: float, points: int = MATRIX_FREE_GRID_POINTS) -> AlphaGrid:
    """The large-scale grid: (1e-8, 1e-2) * s1^2 / 2."""
    lo, hi = MATRIX_FREE_RANGE
    return AlphaGrid(lo * s1_sq / 2.0, hi * s1_sq / 2.0, points)


def build_grid(s1_sq: float, matrix_free: bool, points: Optional[int] = None,
               lo: Optional[float] = None, hi: Optional[float] = None) -> AlphaGrid:
    """The default grid of the operator's representation, with any of its point
    count and endpoints overridden; used by both the study and the CLI."""
    if matrix_free:
        grid = matrix_free_grid(s1_sq, MATRIX_FREE_GRID_POINTS if points is None else points)
    else:
        grid = default_grid(s1_sq, DEFAULT_GRID_POINTS if points is None else points)
    return AlphaGrid(grid.min if lo is None else lo, grid.max if hi is None else hi,
                     grid.points)


def rel_error(f, f_true) -> float:
    """Relative l2 reconstruction error."""
    f_true = np.asarray(f_true, dtype=float)
    return float(np.linalg.norm(np.asarray(f, dtype=float) - f_true)
                 / np.linalg.norm(f_true))


def oracle_error(errors: np.ndarray) -> tuple[float, int]:
    """Minimum error along the path and its grid index (largest alpha on ties)."""
    errors = np.asarray(errors, dtype=float)
    idx = int(errors.size - 1 - np.argmin(errors[::-1]))
    return float(errors[idx]), idx


def efficiency(eps_oracle: float, eps_rule: float) -> float:
    """Oracle-to-rule error ratio, in (0, 1] when both come from one path."""
    return eps_oracle / eps_rule if eps_rule > 0 else 1.0


@dataclass
class ReplicateEntry:
    replicate: int
    alpha: float
    rel_error: float
    efficiency: float
    flags: tuple[str, ...] = ()


@dataclass
class EfficiencyReport:
    """Per-(problem, SNR, rule) replicate results with summary statistics."""

    problem: str
    variant: Optional[int]
    n: int
    xi: float
    rule: str
    entries: list[ReplicateEntry] = field(default_factory=list)
    median_oracle: float = float("nan")

    @property
    def efficiencies(self) -> np.ndarray:
        return np.array([e.efficiency for e in self.entries])

    def summary(self) -> dict:
        eff = self.efficiencies
        return {"problem": self.problem, "variant": self.variant, "n": self.n,
                "xi": self.xi, "rule": self.rule,
                "median_eff": float(np.median(eff)),
                "q1": float(np.percentile(eff, 25)),
                "q3": float(np.percentile(eff, 75)),
                "min": float(np.min(eff)), "max": float(np.max(eff)),
                "median_oracle": self.median_oracle}


_CONFIG_KEYS = {"version", "problems", "xis", "n", "rules", "replicates", "seed", "grid",
                "probes", "bp"}


def _json_object(value, where: str, keys: set) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - keys)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    return value


def _finite_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass
class StudyConfig:
    """Everything a study needs; serializes to a versioned JSON document."""

    problems: Sequence[tuple[str, Optional[int]]]
    xis: Sequence[float]
    n: int
    rules: Sequence[str]
    replicates: int
    seed: int = 0
    grid_points: int = DEFAULT_GRID_POINTS
    grid_min: Optional[float] = None
    grid_max: Optional[float] = None
    probes: int = DEFAULT_PROBES
    bp_gamma: float = 0.25
    bp_c: float = 1.5
    version: int = 1

    def __post_init__(self):
        self.problems = [(str(p), None if v is None else int(v))
                         for p, v in self.problems]
        unknown = [r for r in self.rules if r not in rules_mod.RULE_NAMES]
        if unknown:
            raise ValueError(f"unknown rules: {unknown}")
        if not all(_finite_number(x) for x in self.xis):
            raise ValueError(f"xis must be finite numbers, got {list(self.xis)}")
        for name in ("n", "replicates", "seed", "grid_points", "probes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("grid_min", "grid_max", "bp_gamma", "bp_c"):
            value = getattr(self, name)
            optional = name in ("grid_min", "grid_max")
            if not (_finite_number(value) or (optional and value is None)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.version != 1:
            raise ValueError("unsupported config version")

    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "problems": [{"name": p, "variant": v} for p, v in self.problems],
            "xis": list(self.xis), "n": self.n, "rules": list(self.rules),
            "replicates": self.replicates, "seed": self.seed,
            "grid": {"points": self.grid_points, "min": self.grid_min,
                     "max": self.grid_max},
            "probes": self.probes, "bp": {"gamma": self.bp_gamma, "c": self.bp_c},
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        """Parse a config document; a non-object or an unknown key at any level
        is a ValueError."""
        raw = _json_object(json.loads(text), "config", _CONFIG_KEYS)
        grid = _json_object(raw.get("grid", {}), "grid", {"points", "min", "max"})
        bp = _json_object(raw.get("bp", {}), "bp", {"gamma", "c"})
        problems = [_json_object(p, "problem", {"name", "variant"})
                    for p in raw["problems"]]
        return cls(problems=[(p["name"], p.get("variant")) for p in problems],
                   xis=raw["xis"], n=raw["n"], rules=raw["rules"],
                   replicates=raw["replicates"], seed=raw.get("seed", 0),
                   grid_points=grid.get("points", DEFAULT_GRID_POINTS),
                   grid_min=grid.get("min"), grid_max=grid.get("max"),
                   probes=raw.get("probes", DEFAULT_PROBES),
                   bp_gamma=bp.get("gamma", 0.25), bp_c=bp.get("c", 1.5),
                   version=raw.get("version", 1))


def _cell_setup(config: StudyConfig, name: str, variant: Optional[int]):
    """Problem, spectral data and grid for one study cell (pure in its inputs)."""
    problem = make_problem(name, variant, config.n)
    if problem.A.representation == "dense":
        dec = svd(problem.A)
        grid = build_grid(float(dec.s[0]) ** 2, matrix_free=False,
                          points=config.grid_points, lo=config.grid_min, hi=config.grid_max)
        influence = influence_path_exact(dec, grid.values)
    else:
        dec = None
        s1_sq = largest_eigenvalue(problem.A, seed=config.seed)
        grid = build_grid(s1_sq, matrix_free=True,
                          points=min(config.grid_points, MATRIX_FREE_GRID_POINTS),
                          lo=config.grid_min, hi=config.grid_max)
        influence = influence_path_stochastic(problem.A, grid.values, config.probes,
                                              config.seed, lam1=s1_sq)
    return problem, dec, grid, influence


def _evaluate_replicate(problem, dec, grid, influence, config: StudyConfig,
                        xi: float, replicate: int):
    """All rules on one replicate's shared path; returns (oracle_err, rows)."""
    data = add_noise(problem, xi, config.seed, replicate)
    if dec is not None:
        path = spectral_path(dec, data.g, grid.values)
    else:
        path = iterative_path(problem.A, data.g, grid.values)
    D = path.solutions - problem.f_true[None, :]
    D *= D
    errors = np.sqrt(np.add.reduce(D, axis=1)) / np.linalg.norm(problem.f_true)
    eps_o, _ = oracle_error(errors)
    # Grid mode on the shared path: the influence path is the source, dp does
    # not bisect off the grid, and pro falls back to the largest alpha rather
    # than abort the study on a replicate that looks like pure noise.
    inputs = rules_mod.SelectionInputs(g=data.g, source=influence, path=path,
                                       sigma=data.sigma, sigma2=data.sigma ** 2,
                                       on_degenerate="max_alpha", refine=False,
                                       bp_gamma=config.bp_gamma, bp_c=config.bp_c)
    rows = {}
    for rule in config.rules:
        flags: list[str] = []
        try:
            sel = rules_mod.RULES[rule].run(inputs)
            idx = sel.diagnostics.get("grid_index")
            if idx is None:
                idx = int(np.argmin(np.abs(np.log(grid.values) - np.log(sel.alpha))))
            flags.extend(sel.diagnostics.get("flags", []))
            alpha = float(grid.values[idx])
        except DegenerateDataError:
            idx = len(grid.values) - 1
            alpha = float(grid.values[idx])
            flags.append("degenerate")
        except ConvergenceError as exc:
            alpha = float(exc.last_iterate) if isinstance(exc.last_iterate, (int, float)) \
                else float(grid.values[-1])
            idx = int(np.argmin(np.abs(np.log(grid.values) - np.log(alpha))))
            flags.append("no_convergence")
        err = float(errors[idx])
        rows[rule] = ReplicateEntry(replicate=replicate, alpha=alpha, rel_error=err,
                                    efficiency=efficiency(eps_o, err),
                                    flags=tuple(flags))
    return eps_o, rows


def _run_chunk(config: StudyConfig, name: str, variant, xi: float,
               rep_lo: int, rep_hi: int):
    problem, dec, grid, influence = _cell_setup(config, name, variant)
    out = []
    for rep in range(rep_lo, rep_hi):
        out.append(_evaluate_replicate(problem, dec, grid, influence, config, xi, rep))
    return out


def _cap_blas_threads(threads: int) -> None:
    """Limit numpy's bundled OpenBLAS to ``threads`` threads in this process;
    nothing happens where that library or its setter is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        setter = ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(threads)


def run_study(config: StudyConfig, workers: int = 1) -> list[EfficiencyReport]:
    """Run every (problem, xi) cell of the study; deterministic for any worker count."""
    cells = [(name, variant, xi) for name, variant in config.problems
             for xi in config.xis]
    results: dict[tuple, list] = {}
    if workers <= 1:
        for name, variant, xi in cells:
            results[(name, variant, xi)] = _run_chunk(config, name, variant, xi,
                                                      0, config.replicates)
    else:
        chunk = max(1, -(-config.replicates // workers))
        tasks = {}
        # workers x BLAS threads would oversubscribe the cores
        nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        threads = max(1, nproc // workers)
        with ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas_threads,
                                 initargs=(threads,)) as pool:
            for cell in cells:
                name, variant, xi = cell
                for lo in range(0, config.replicates, chunk):
                    hi = min(lo + chunk, config.replicates)
                    tasks[pool.submit(_run_chunk, config, name, variant, xi, lo, hi)] \
                        = (cell, lo)
            gathered: dict[tuple, list[tuple[int, list]]] = {}
            for fut, (cell, lo) in tasks.items():
                gathered.setdefault(cell, []).append((lo, fut.result()))
        for cell, parts in gathered.items():
            results[cell] = [row for _, chunk_rows in sorted(parts) for row in chunk_rows]

    reports = []
    for name, variant, xi in cells:
        cell_rows = results[(name, variant, xi)]
        median_oracle = float(np.median([eps_o for eps_o, _ in cell_rows]))
        for rule in config.rules:
            rep = EfficiencyReport(problem=name, variant=variant, n=config.n,
                                   xi=xi, rule=rule, median_oracle=median_oracle)
            for eps_o, rows in cell_rows:
                rep.entries.append(rows[rule])
            reports.append(rep)
    return reports


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_reports(reports: list[EfficiencyReport], out_dir) -> list[str]:
    """Emit one detail CSV per SNR block plus a single summary CSV.

    Detail schema:  problem,variant,n,xi,rule,replicate,alpha,rel_error,efficiency,flags
    Summary schema: problem,variant,n,xi,rule,median_eff,q1,q3,median_oracle
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    xis = sorted({r.xi for r in reports})
    for xi in xis:
        fname = os.path.join(out_dir, f"details_xi{_fmt(xi)}.csv")
        with open(fname, "w", newline="") as fh:
            fh.write("problem,variant,n,xi,rule,replicate,alpha,rel_error,efficiency,flags\n")
            for rep in reports:
                if rep.xi != xi:
                    continue
                variant = "" if rep.variant is None else str(rep.variant)
                for e in rep.entries:
                    fh.write(f"{rep.problem},{variant},{rep.n},{_fmt(rep.xi)},{rep.rule},"
                             f"{e.replicate},{_fmt(e.alpha)},{_fmt(e.rel_error)},"
                             f"{_fmt(e.efficiency)},{';'.join(e.flags)}\n")
        written.append(fname)
    fname = os.path.join(out_dir, "summary.csv")
    with open(fname, "w", newline="") as fh:
        fh.write("problem,variant,n,xi,rule,median_eff,q1,q3,median_oracle\n")
        for rep in reports:
            s = rep.summary()
            variant = "" if s["variant"] is None else str(s["variant"])
            fh.write(f"{s['problem']},{variant},{s['n']},{_fmt(s['xi'])},{s['rule']},"
                     f"{_fmt(s['median_eff'])},{_fmt(s['q1'])},{_fmt(s['q3'])},"
                     f"{_fmt(s['median_oracle'])}\n")
    written.append(fname)
    return written
