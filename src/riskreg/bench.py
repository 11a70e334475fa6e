"""Replicate-study harness: grids, oracle errors, efficiencies, and CSV reports.

A study cell is one (problem, SNR) pair.  For every replicate the solution
path is computed once on a shared log grid; every rule then selects a point of
that path, so each efficiency lies in (0, 1] by construction.  A worker
draws each of its replicates' noise once and evaluates the replicates of a
cell as one block: paths, errors, ``bp`` and ``qoc`` on cache-sized stacks of
replicates, then the rules that read only norms on the grid for the whole
block at once, all through ``RULES[rule]`` on a ``PathBlock`` at the cell's
one noise level, each row as its replicate alone would select; a rule's flag
masks become one flag tuple per replicate (``rules.flag_rows``).  A block
returns its cell as columns, which the study joins, and each cell's summary
statistics come from one call per statistic.
All randomness is keyed by (seed, replicate), which makes the output
independent of worker count and scheduling.
"""

from __future__ import annotations

import functools
import json
import os
from collections import abc
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rules as rules_mod
from .errors import DegenerateDataError, count, real, reals
from .linop import bundled_openblas, largest_eigenvalue, svd
from .problems import _DEFAULT_VARIANTS, check_problem, make_problem, sigma_for_snr, unit_noise
from .risk import GRID_MAX_FACTOR, GRID_MIN_FACTOR
from .tikhonov import (InfluencePath, SolutionPath, filtered_paths, influence_path_exact,
                       influence_path_stochastic, iterative_path, spectral_filters,
                       spectral_path)

DEFAULT_GRID_POINTS = 200
MATRIX_FREE_GRID_POINTS = 100
MATRIX_FREE_RANGE = (1e-8, 1e-2)   # of s1^2 / 2
DEFAULT_PROBES = 32


def _check_grid(lo, hi, points, keys=("min", "max", "points")) -> None:
    """AlphaGrid's conditions; an endpoint or point count of None, taken from
    the operator later, is left out.  A message names the values at fault by
    their entries in ``keys``.  An endpoint that is not a float must be a
    finite real number; a float one, NaN or inf too, falls in the chain."""
    ends = ((x if isinstance(x, float) else real(k, x), k) for x, k in zip((lo, hi), keys)
            if x is not None)
    chain = [(0.0, None), *ends, (np.inf, None)]
    for (a, key_a), (b, key_b) in zip(chain, chain[1:]):
        if not a < b:
            at = " and ".join(f"{k} = {x!r}" for x, k in ((a, key_a), (b, key_b)) if k)
            raise ValueError(f"{at}: need 0 < min < max < inf")
    if points is not None and count(keys[2], points) < 2:
        raise ValueError(f"{keys[2]} = {points!r}: need at least two grid points")


@dataclass(frozen=True)
class AlphaGrid:
    """Log-equispaced grid between finite positive endpoints, which are hit
    exactly.  ``values`` is computed once and is read-only."""

    min: float
    max: float
    points: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.min is None or self.max is None:  # _check_grid leaves None to an operator
            real("min" if self.min is None else "max", None)
        _check_grid(self.min, self.max, count("points", self.points))
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
               lo: Optional[float] = None, hi: Optional[float] = None,
               keys=("min", "max", "points")) -> AlphaGrid:
    """The default grid of the operator's representation, with any of its point
    count and endpoints overridden; used by both the study and the CLI.  An
    override that crosses the other endpoint is a ValueError naming it by its
    entry in ``keys`` and the endpoint left to the operator as its default."""
    real("s1_sq", s1_sq, "positive")
    if matrix_free:
        lo_factor, hi_factor = MATRIX_FREE_RANGE
        bounds = (lo_factor * s1_sq / 2.0, hi_factor * s1_sq / 2.0)
        default_points = MATRIX_FREE_GRID_POINTS
    else:
        bounds = (GRID_MIN_FACTOR * s1_sq, GRID_MAX_FACTOR * s1_sq)
        default_points = DEFAULT_GRID_POINTS
    given = (lo, hi)
    lo, hi = (bound if x is None else x for x, bound in zip(given, bounds))
    _check_grid(lo, hi, None, tuple(f"the operator's default {key}" if x is None else key
                                    for x, key in zip(given, keys)))
    return AlphaGrid(lo, hi, default_points if points is None else points)


class OperatorSetup:
    """An operator's spectrum, grid (``build_grid``), influence measure and solution
    paths: SVD, exact measure and spectral path when dense; power iteration, probe
    measure and Golub-Kahan path when matrix-free.  A zero operator is degenerate
    data; the grid, the measure and the spectral filters of the grid are built on
    first use."""

    def __init__(self, A, matrix_free: bool = False, points: Optional[int] = None,
                 lo: Optional[float] = None, hi: Optional[float] = None,
                 probes: int = DEFAULT_PROBES, seed: int = 0, keys=("min", "max", "points")):
        self.A, self.matrix_free, self.probes, self.seed = A, matrix_free, probes, seed
        self._grid_args = (points, lo, hi, keys)
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

    @functools.cached_property
    def filters(self):
        return spectral_filters(self.dec.s, self.grid.values)

    def path(self, g, keep_solutions: bool = True) -> SolutionPath:
        if self.matrix_free:
            return iterative_path(self.A, g, self.grid.values)
        return spectral_path(self.dec, g, self.grid.values, keep_solutions)

    def paths(self, G):
        """The paths of the rows of G as ``filtered_paths``' stacks: solutions,
        residual norms and solution norms, one row per data vector."""
        if not self.matrix_free:
            return filtered_paths(self.dec, G, self.filters)
        paths = [self.path(g) for g in G]
        return tuple(np.stack([getattr(p, key) for p in paths])
                     for key in ("solutions", "residual_norms", "solution_norms"))


def rel_error(f, f_true) -> float:
    """Relative l2 error of the finite f against the finite, nonzero f_true."""
    f_true = reals("f_true", f_true)
    norm = np.linalg.norm(f_true)
    if norm == 0:
        raise ValueError("f_true must be nonzero")
    return float(np.linalg.norm(reals("f", f) - f_true) / norm)


def oracle_error(errors: np.ndarray) -> tuple[float, int]:
    """Least error along the path (finite, >= 0) and its grid index (largest alpha on ties)."""
    errors = reals("errors", errors, "nonnegative")
    idx = rules_mod.argmin_last(errors)
    return float(errors[idx]), idx


def efficiency(eps_oracle, eps_rule):
    """Oracle-to-rule error ratio, elementwise, in (0, 1] when both come from
    one path; 1.0 where the rule's error is 0.  A float for scalar arguments."""
    eps_oracle, eps_rule = np.broadcast_arrays(np.asarray(eps_oracle, dtype=float),
                                               np.asarray(eps_rule, dtype=float))
    out = np.ones(eps_rule.shape)
    np.divide(eps_oracle, eps_rule, out=out, where=eps_rule > 0)
    return out if out.ndim else float(out)


@dataclass
class ReplicateEntry:
    replicate: int
    alpha: float
    rel_error: float
    efficiency: float
    flags: tuple[str, ...] = ()


_STATISTICS = ("median_eff", "q1", "q3", "min", "max")


def _statistics(eff: np.ndarray) -> list[list[float]]:
    """Per row of ``eff``, the ``_STATISTICS``, each from one call for every row."""
    # both quartiles from one call, as each from its own; the median stays
    # np.median, which np.percentile(eff, 50) may differ from in the last bit
    q1, q3 = np.percentile(eff, [25, 75], axis=1)
    return np.stack([np.median(eff, axis=1), q1, q3, np.min(eff, axis=1),
                     np.max(eff, axis=1)], axis=1).tolist()


@dataclass(eq=False)
class EfficiencyReport:
    """Per-(problem, SNR, rule) replicate results as columns, replicate i in
    row i, with the median oracle error of the cell and the summary
    statistics of the efficiencies (``_STATISTICS``, from ``_statistics``)."""

    problem: str
    variant: Optional[int]
    n: int
    xi: float
    rule: str
    alphas: np.ndarray
    rel_errors: np.ndarray
    efficiencies: np.ndarray
    flags: Sequence[tuple[str, ...]]
    median_oracle: float
    statistics: Sequence[float]

    def rows(self):
        """(replicate, alpha, rel_error, efficiency, flags) of each replicate,
        as Python values."""
        return zip(range(len(self.flags)), self.alphas.tolist(), self.rel_errors.tolist(),
                   self.efficiencies.tolist(), self.flags)

    @property
    def entries(self) -> list[ReplicateEntry]:
        """The rows as ``ReplicateEntry`` objects, built on each read."""
        return [ReplicateEntry(*row) for row in self.rows()]

    def summary(self) -> dict:
        return {"problem": self.problem, "variant": self.variant, "n": self.n,
                "xi": self.xi, "rule": self.rule, **dict(zip(_STATISTICS, self.statistics)),
                "median_oracle": self.median_oracle}


_REQUIRED_KEYS = {"problems", "xis", "n", "rules", "replicates"}
# the config's sections, each key mapped to the StudyConfig field it sets
_SECTIONS = {"grid": {"points": "grid_points", "min": "grid_min", "max": "grid_max"},
             "bp": {"gamma": "bp_gamma", "c": "bp_c"}}
_CONFIG_KEYS = _REQUIRED_KEYS | {"version", "seed", "probes"} | set(_SECTIONS)
# each StudyConfig field by its key in the config, "section.key" inside a section
_KEY_OF = {name: f"{section}.{key}" for section, fields in _SECTIONS.items()
           for key, name in fields.items()}
_GRID_KEYS = tuple(_KEY_OF[f"grid_{k}"] for k in ("min", "max", "points"))


def _listed(key: str, value):
    """``value``; a ValueError naming ``key`` unless it is a sequence, not a str."""
    if isinstance(value, (str, bytes)) or not isinstance(value, (abc.Sequence, np.ndarray)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _json_object(value, where: str, keys: set) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - keys)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    return value


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
    bp_gamma: float = rules_mod.BP_GAMMA
    bp_c: float = rules_mod.BP_C
    version: int = 1

    def __post_init__(self):
        for key in ("problems", "xis", "rules"):
            _listed(key, getattr(self, key))
        self.problems = [(str(p), check_problem(str(p), v, self.n)) for p, v in self.problems]
        unknown = [r for r in self.rules if r not in rules_mod.RULE_NAMES]
        if unknown:
            raise ValueError(f"unknown rules: {unknown}")
        for xi in self.xis:
            real("xis", xi)
        # a repeat doubles its rows; xis that print alike share a detail CSV
        for key, ids in (("problems", [(p, _DEFAULT_VARIANTS.get(p) if v is None else v)
                                       for p, v in self.problems]),
                         ("xis", [_fmt(x) for x in self.xis]), ("rules", list(self.rules))):
            if not ids or len(set(ids)) < len(ids):
                raise ValueError(f"{key} must be nonempty and without repeats, got {ids}")
        for name, least in (("n", None), ("replicates", 1), ("seed", None),
                            ("grid_points", None), ("probes", 1)):
            count(_KEY_OF.get(name, name), getattr(self, name), least)
        _check_grid(self.grid_min, self.grid_max, self.grid_points, _GRID_KEYS)
        if "lc" in self.rules and self.grid_points < 5:
            raise ValueError(f"{_KEY_OF['grid_points']} = {self.grid_points!r}: "
                             "lc needs at least five grid points")
        rules_mod.check_bp(self.bp_gamma, self.bp_c, keys=(_KEY_OF["bp_gamma"], _KEY_OF["bp_c"]))
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
        problems = [_json_object(p, "problem", {"name", "variant"})
                    for p in _listed("problems", raw["problems"])]
        kwargs["problems"] = [(p["name"], p.get("variant")) for p in problems]
        return cls(**kwargs)


# Largest number of solution entries a stack of replicates' paths holds: 1 MB
# of float64, 10 replicates at 200 grid points and n = 64.
_STACK_ELEMENTS = 1 << 17


def _unit_noise_rows(problem, seed: int, replicates: range) -> np.ndarray:
    """The replicates' ``unit_noise`` draws, one row each."""
    return np.stack([unit_noise(problem.g_true.size, seed, rep) for rep in replicates])


def _evaluate_block(setup: OperatorSetup, problem, config: StudyConfig, xi: float,
                    replicates: range, noise: Optional[np.ndarray] = None) -> tuple:
    """All rules on a block of one cell's replicates; returns the columns
    (oracle_err, alphas, rel_errors, flags): the oracle errors, one per
    replicate; the selected alphas and their errors, one row per rule of
    ``config.rules`` and one column per replicate; and per rule a tuple of the
    replicates' flag tuples.  ``noise`` holds the replicates' ``unit_noise``
    draws, one row each, and is drawn here when not given.  The data, paths,
    errors and the rules that read solutions (``bp``, ``qoc``) run on stacks of
    at most ``_STACK_ELEMENTS`` solution entries; the rules that read only
    norms on the grid then select for every replicate at once.  Each column is
    what its replicate alone gives, bit for bit."""
    grid = setup.grid.values
    reps, m = len(replicates), problem.g_true.size
    if noise is None:
        noise = _unit_noise_rows(problem, config.seed, replicates)
    sigma = sigma_for_snr(problem.g_true, xi)
    norms, errors = np.empty((2, reps, grid.size)), np.empty((reps, grid.size))
    g_sq = np.empty(reps)
    f_norm = np.linalg.norm(problem.f_true)
    stacked = [rule for rule in config.rules if rule in rules_mod.NEEDS_SOLUTIONS]
    picks = {rule: [] for rule in stacked}   # (grid indices, flag masks) per stack
    size = max(1, _STACK_ELEMENTS // (grid.size * problem.f_true.size))
    for lo in range(0, reps, size):
        part = slice(lo, lo + size)
        G = problem.g_true + sigma * noise[part]     # add_noise's arithmetic
        g_sq[part] = [g @ g for g in G]
        F, norms[0, part], norms[1, part] = setup.paths(G)
        D = F - problem.f_true
        D *= D
        errors[part] = np.sqrt(np.add.reduce(D, axis=-1)) / f_norm
        stack = rules_mod.PathBlock(setup.influence, norms[0, part], norms[1, part], m,
                                    g_sq[part], sigma, sigma ** 2, F, config.bp_gamma,
                                    config.bp_c)
        for rule in stacked:
            picks[rule].append(rules_mod.RULES[rule](stack))
    block = rules_mod.PathBlock(setup.influence, norms[0], norms[1], m, g_sq, sigma, sigma ** 2)
    for rule in config.rules:
        if rule not in picks:
            picks[rule] = [rules_mod.RULES[rule](block)]
    idx = np.array([np.concatenate([i for i, _ in picks[rule]]) for rule in config.rules])
    flags = tuple(tuple(f for i, masks in picks[rule] for f in rules_mod.flag_rows(masks, i.size))
                  for rule in config.rules)
    rows = np.arange(reps)
    return errors[rows, rules_mod.argmin_last(errors)], grid[idx], errors[rows, idx], flags


def _run_chunk(config: StudyConfig, task) -> list[tuple]:
    """Replicates [lo, hi) of one problem at every SNR of the study, on one
    set-up and one noise draw per replicate; returns ``_evaluate_block``'s
    columns per SNR."""
    name, variant, lo, hi = task
    # Freeing one block above glibc's 128 KB mmap threshold raises that
    # threshold to the block's size and the heap's trim threshold to twice it.
    # Otherwise the heap top freed after each stack (up to three stacks of
    # _STACK_ELEMENTS live at once) goes back to the OS and is faulted in
    # again: about 17,700 page faults per serial study_dense config with no
    # block or one of a stack's size, none with four stacks' size.
    np.empty(4 * _STACK_ELEMENTS)
    problem = make_problem(name, variant, config.n)
    matrix_free = problem.A.representation != "dense"
    points = min(config.grid_points, MATRIX_FREE_GRID_POINTS) if matrix_free \
        else config.grid_points
    setup = OperatorSetup(problem.A, matrix_free, points, config.grid_min, config.grid_max,
                          config.probes, config.seed, _GRID_KEYS)
    noise = _unit_noise_rows(problem, config.seed, range(lo, hi))
    return [_evaluate_block(setup, problem, config, xi, range(lo, hi), noise)
            for xi in config.xis]


def _cap_blas_threads(threads: int) -> None:
    """Limit numpy's bundled OpenBLAS to ``threads`` threads in this process;
    nothing happens where that library or its setter is missing."""
    import ctypes
    setter = getattr(bundled_openblas(), "scipy_openblas_set_num_threads64_", None)
    if setter is None:
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(threads)


def run_study(config: StudyConfig, workers: int = 1) -> list[EfficiencyReport]:
    """Run every (problem, xi) cell of the study; deterministic for any worker count.
    A task, one set-up, is a problem's chunk of replicates at every SNR."""
    workers = count("workers", workers, 1)
    reps = config.replicates
    chunk = reps if workers <= 1 else max(1, -(-reps // workers))
    bounds = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    tasks = [(name, variant, lo, hi) for name, variant in config.problems
             for lo, hi in bounds]
    run = functools.partial(_run_chunk, config)
    pool_size = min(workers, len(tasks))
    if pool_size <= 1:
        parts = [run(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its processes at once, so it is no larger than
        # the task list; pool processes x BLAS threads would oversubscribe the cores
        nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        bundled_openblas()   # looked up (and cached) here, not in each forked worker
        with ProcessPoolExecutor(max_workers=pool_size, initializer=_cap_blas_threads,
                                 initargs=(max(1, nproc // pool_size),)) as pool:
            parts = list(pool.map(run, tasks))

    reports = []
    for p, (name, variant) in enumerate(config.problems):
        chunks = parts[p * len(bounds):(p + 1) * len(bounds)]
        for k, xi in enumerate(config.xis):
            eps_o, alphas, errs = (np.concatenate([part[k][j] for part in chunks], axis=-1)
                                   for j in range(3))
            eff = efficiency(eps_o, errs)
            median_oracle = float(np.median(eps_o))
            for r, (rule, stats) in enumerate(zip(config.rules, _statistics(eff))):
                flags = [f for part in chunks for f in part[k][3][r]]
                reports.append(EfficiencyReport(name, variant, config.n, xi, rule, alphas[r],
                                                errs[r], eff[r], flags, median_oracle, stats))
    return reports


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_reports(reports: list[EfficiencyReport], out_dir) -> list[str]:
    """Emit one detail CSV per SNR block plus a single summary CSV.

    Detail schema:  problem,variant,n,xi,rule,replicate,alpha,rel_error,efficiency,flags
    Summary schema: problem,variant,n,xi,rule,median_eff,q1,q3,median_oracle
    """
    os.makedirs(out_dir, exist_ok=True)
    by_xi: dict = {}   # xi -> (row head, report) pairs, in report order
    summary = ["problem,variant,n,xi,rule,median_eff,q1,q3,median_oracle\n"]
    for rep in reports:
        variant = "" if rep.variant is None else str(rep.variant)
        head = f"{rep.problem},{variant},{rep.n},{_fmt(rep.xi)},{rep.rule},"
        by_xi.setdefault(rep.xi, []).append((head, rep))
        s = rep.summary()
        summary.append(f"{head}{_fmt(s['median_eff'])},{_fmt(s['q1'])},{_fmt(s['q3'])},"
                       f"{_fmt(s['median_oracle'])}\n")
    written = []
    for xi in sorted(by_xi):
        fname = os.path.join(out_dir, f"details_xi{_fmt(xi)}.csv")
        with open(fname, "w", newline="") as fh:
            fh.write("problem,variant,n,xi,rule,replicate,alpha,rel_error,efficiency,flags\n")
            # the f-string formats as _fmt does; rows from a generator are never
            # all held at once (joining them raised study_dense's peak RSS ~0.4 MB)
            fh.writelines(f"{head}{i},{alpha:.12g},{err:.12g},{eff:.12g},{';'.join(flags)}\n"
                          for head, rep in by_xi[xi]
                          for i, alpha, err, eff, flags in rep.rows())
        written.append(fname)
    fname = os.path.join(out_dir, "summary.csv")
    with open(fname, "w", newline="") as fh:
        fh.writelines(summary)
    written.append(fname)
    return written
