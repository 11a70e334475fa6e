"""Replicate-study harness: grids, oracle errors, efficiencies, and CSV reports.

A study cell is one (problem, SNR) pair.  For every replicate the solution
path is computed once on a shared log grid; every rule then selects a point of
that path, so each efficiency lies in (0, 1] by construction.  All randomness
is keyed by (seed, replicate), which makes the output independent of worker
count and scheduling.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rules as rules_mod
from .errors import ConvergenceError, DegenerateDataError
from .linop import largest_eigenvalue, svd
from .problems import _count, add_noise, check_problem, make_problem
from .tikhonov import (InfluencePath, SolutionPath, influence_path_exact,
                       influence_path_stochastic, iterative_path, spectral_path)

DEFAULT_GRID_POINTS = 200
GRID_MIN_FACTOR = 1e-12   # of s1^2
GRID_MAX_FACTOR = 0.5     # of s1^2
MATRIX_FREE_GRID_POINTS = 100
MATRIX_FREE_RANGE = (1e-8, 1e-2)   # of s1^2 / 2
DEFAULT_PROBES = 32


def _check_grid(lo, hi, points) -> None:
    """AlphaGrid's conditions; an endpoint of None, taken from the operator
    later, is left out of 0 < lo < hi < inf."""
    chain = [0.0, *(x for x in (lo, hi) if x is not None), np.inf]
    if not all(a < b for a, b in zip(chain, chain[1:])):
        raise ValueError("need 0 < min < max < inf")
    if points < 2:
        raise ValueError("need at least two grid points")


@dataclass(frozen=True)
class AlphaGrid:
    """Log-equispaced grid between finite positive endpoints, which are hit
    exactly.  ``values`` is computed once and is read-only."""

    min: float
    max: float
    points: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_grid(self.min, self.max, self.points)
        values = np.geomspace(self.min, self.max, self.points)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def default_grid(s1_sq: float, points: int = DEFAULT_GRID_POINTS) -> AlphaGrid:
    """The 1-D study grid: [1e-12, 1/2] * s1^2."""
    return build_grid(s1_sq, False, points)


def matrix_free_grid(s1_sq: float, points: int = MATRIX_FREE_GRID_POINTS) -> AlphaGrid:
    """The large-scale grid: (1e-8, 1e-2) * s1^2 / 2."""
    return build_grid(s1_sq, True, points)


def build_grid(s1_sq: float, matrix_free: bool, points: Optional[int] = None,
               lo: Optional[float] = None, hi: Optional[float] = None) -> AlphaGrid:
    """The default grid of the operator's representation, with any of its point
    count and endpoints overridden; used by both the study and the CLI."""
    if matrix_free:
        lo_factor, hi_factor = MATRIX_FREE_RANGE
        bounds = (lo_factor * s1_sq / 2.0, hi_factor * s1_sq / 2.0)
        default_points = MATRIX_FREE_GRID_POINTS
    else:
        bounds = (GRID_MIN_FACTOR * s1_sq, GRID_MAX_FACTOR * s1_sq)
        default_points = DEFAULT_GRID_POINTS
    return AlphaGrid(bounds[0] if lo is None else lo, bounds[1] if hi is None else hi,
                     default_points if points is None else points)


class OperatorSetup:
    """An operator's spectrum, grid (``build_grid``), influence measure and solution
    paths: SVD, exact measure and spectral path when dense; power iteration, probe
    measure and Golub-Kahan path when matrix-free.  A zero operator is degenerate
    data; the grid and the measure are built on first use."""

    def __init__(self, A, matrix_free: bool = False, points: Optional[int] = None,
                 lo: Optional[float] = None, hi: Optional[float] = None,
                 probes: int = DEFAULT_PROBES, seed: int = 0):
        self.A, self.matrix_free, self.probes, self.seed = A, matrix_free, probes, seed
        self._grid_args = (points, lo, hi)
        if matrix_free:   # power iteration raises on a zero operator
            self.dec = None
            self.s1_sq = largest_eigenvalue(A, seed=seed)
        else:
            self.dec = svd(A)
            if self.dec.rank == 0:
                raise DegenerateDataError("the operator matrix is zero")
            self.s1_sq = float(self.dec.s[0]) ** 2

    @functools.cached_property
    def grid(self) -> AlphaGrid:
        return build_grid(self.s1_sq, self.matrix_free, *self._grid_args)

    @functools.cached_property
    def influence(self) -> InfluencePath:
        if self.matrix_free:
            return influence_path_stochastic(self.A, self.grid.values, self.probes,
                                             self.seed, lam1=self.s1_sq)
        return influence_path_exact(self.dec, self.grid.values)

    @property
    def source(self):
        """The spectrum (continuous selection) or, matrix-free, the measure (grid mode)."""
        return self.influence if self.matrix_free else self.dec

    def path(self, g, keep_solutions: bool = True) -> SolutionPath:
        if self.matrix_free:
            return iterative_path(self.A, g, self.grid.values)
        return spectral_path(self.dec, g, self.grid.values, keep_solutions=keep_solutions)


def rel_error(f, f_true) -> float:
    """Relative l2 reconstruction error."""
    f_true = np.asarray(f_true, dtype=float)
    return float(np.linalg.norm(np.asarray(f, dtype=float) - f_true)
                 / np.linalg.norm(f_true))


def oracle_error(errors: np.ndarray) -> tuple[float, int]:
    """Minimum error along the path and its grid index (largest alpha on ties)."""
    idx = rules_mod.argmin_last(errors)
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


_REQUIRED_KEYS = {"problems", "xis", "n", "rules", "replicates"}
# the config's sections, each key mapped to the StudyConfig field it sets
_SECTIONS = {"grid": {"points": "grid_points", "min": "grid_min", "max": "grid_max"},
             "bp": {"gamma": "bp_gamma", "c": "bp_c"}}
_CONFIG_KEYS = _REQUIRED_KEYS | {"version", "seed", "probes"} | set(_SECTIONS)


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
        self.problems = [(str(p), check_problem(str(p), v, self.n)) for p, v in self.problems]
        unknown = [r for r in self.rules if r not in rules_mod.RULE_NAMES]
        if unknown:
            raise ValueError(f"unknown rules: {unknown}")
        if not all(_finite_number(x) for x in self.xis):
            raise ValueError(f"xis must be finite numbers, got {list(self.xis)}")
        for name in ("n", "replicates", "seed", "grid_points", "probes"):
            _count(name, getattr(self, name))
        for name in ("grid_min", "grid_max", "bp_gamma", "bp_c"):
            value = getattr(self, name)
            optional = name in ("grid_min", "grid_max")
            if not (_finite_number(value) or (optional and value is None)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.probes < 1:
            raise ValueError(f"need at least one probe, got {self.probes}")
        _check_grid(self.grid_min, self.grid_max, self.grid_points)
        rules_mod.check_bp(self.bp_gamma, self.bp_c)
        if self.version != 1:
            raise ValueError("unsupported config version")

    def to_json(self) -> str:
        doc = {"version": self.version,
               "problems": [{"name": p, "variant": v} for p, v in self.problems],
               "xis": list(self.xis), "n": self.n, "rules": list(self.rules),
               "replicates": self.replicates, "seed": self.seed, "probes": self.probes}
        for section, fields in _SECTIONS.items():
            doc[section] = {key: getattr(self, name) for key, name in fields.items()}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        """Parse a config document; a non-object, a missing required key or an
        unknown key at any level is a ValueError.  Absent keys take the field
        defaults."""
        raw = _json_object(json.loads(text), "config", _CONFIG_KEYS)
        missing = sorted(_REQUIRED_KEYS - set(raw))
        if missing:
            raise ValueError(f"missing keys in config: {missing}")
        kwargs = {key: value for key, value in raw.items() if key not in _SECTIONS}
        for section, fields in _SECTIONS.items():
            for key, value in _json_object(raw.get(section, {}), section, set(fields)).items():
                kwargs[fields[key]] = value
        problems = [_json_object(p, "problem", {"name", "variant"}) for p in raw["problems"]]
        kwargs["problems"] = [(p["name"], p.get("variant")) for p in problems]
        return cls(**kwargs)


def _evaluate_replicate(setup: OperatorSetup, problem, config: StudyConfig,
                        xi: float, replicate: int):
    """All rules on one replicate's shared path; returns (oracle_err, rows)."""
    data = add_noise(problem, xi, config.seed, replicate)
    grid = setup.grid.values
    path = setup.path(data.g)
    D = path.solutions - problem.f_true[None, :]
    D *= D
    errors = np.sqrt(np.add.reduce(D, axis=1)) / np.linalg.norm(problem.f_true)
    eps_o, _ = oracle_error(errors)
    # Grid mode on the shared path: the influence path is the source, dp does
    # not bisect off the grid, and pro falls back to the largest alpha rather
    # than abort the study on a replicate that looks like pure noise.
    inputs = rules_mod.SelectionInputs(g=data.g, source=setup.influence, path=path,
                                       sigma=data.sigma, sigma2=data.sigma ** 2,
                                       on_degenerate="max_alpha", refine=False,
                                       bp_gamma=config.bp_gamma, bp_c=config.bp_c)
    rows = {}
    for rule in config.rules:
        try:
            sel = rules_mod.RULES[rule].run(inputs)
            idx = sel.diagnostics.get("grid_index")
            if idx is None:
                idx = rules_mod.nearest_index(grid, sel.alpha)
            flags = sel.diagnostics.get("flags", [])
        except DegenerateDataError:
            idx, flags = len(grid) - 1, ["degenerate"]
        except ConvergenceError as exc:  # ipro's last iterate is a grid alpha
            idx, flags = rules_mod.nearest_index(grid, exc.last_iterate), ["no_convergence"]
        err = float(errors[idx])
        rows[rule] = ReplicateEntry(replicate=replicate, alpha=float(grid[idx]), rel_error=err,
                                    efficiency=efficiency(eps_o, err), flags=tuple(flags))
    return eps_o, rows


def _run_chunk(config: StudyConfig, task) -> list[list]:
    """Replicates [lo, hi) of one problem at every SNR of the study, on one
    set-up; returns one list of (oracle_err, rows) per SNR."""
    name, variant, lo, hi = task
    # Freeing one block above glibc's 128 KB mmap threshold raises that
    # threshold and the heap's trim threshold with it.  Otherwise the heap top
    # freed after each replicate (n = 64 temporaries of ~100 KB) goes back to
    # the OS and is faulted in again: 13,000 page faults per study_dense config.
    np.empty(1 << 17)
    problem = make_problem(name, variant, config.n)
    matrix_free = problem.A.representation != "dense"
    points = min(config.grid_points, MATRIX_FREE_GRID_POINTS) if matrix_free \
        else config.grid_points
    setup = OperatorSetup(problem.A, matrix_free, points, config.grid_min, config.grid_max,
                          config.probes, config.seed)
    return [[_evaluate_replicate(setup, problem, config, xi, rep) for rep in range(lo, hi)]
            for xi in config.xis]


def _cap_blas_threads(threads: int) -> None:
    """Limit numpy's bundled OpenBLAS to ``threads`` threads in this process;
    nothing happens where that library or its setter is missing."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        setter = ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(threads)


def run_study(config: StudyConfig, workers: int = 1) -> list[EfficiencyReport]:
    """Run every (problem, xi) cell of the study; deterministic for any worker count.
    A task, one set-up, is a problem's chunk of replicates at every SNR."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    reps = config.replicates
    chunk = reps if workers <= 1 else max(1, -(-reps // workers))
    bounds = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    tasks = [(name, variant, lo, hi) for name, variant in config.problems
             for lo, hi in bounds]
    run = functools.partial(_run_chunk, config)
    if workers <= 1:
        parts = [run(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        # workers x BLAS threads would oversubscribe the cores
        nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas_threads,
                                 initargs=(max(1, nproc // workers),)) as pool:
            parts = list(pool.map(run, tasks))

    reports = []
    for p, (name, variant) in enumerate(config.problems):
        chunks = parts[p * len(bounds):(p + 1) * len(bounds)]
        for k, xi in enumerate(config.xis):
            cell_rows = [row for part in chunks for row in part[k]]
            median_oracle = float(np.median([eps_o for eps_o, _ in cell_rows]))
            for rule in config.rules:
                rep = EfficiencyReport(problem=name, variant=variant, n=config.n,
                                       xi=xi, rule=rule, median_oracle=median_oracle)
                rep.entries.extend(rows[rule] for _, rows in cell_rows)
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
