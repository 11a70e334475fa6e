"""The benchmark workloads: inputs ordered by the seed, the timed op, the
check against recorded references, and the traced replay of each op.
``BENCHMARK.json`` lists three; ``select_mf_dense`` is run by hand.

Every workload draws its inputs from a fixed pool whose references were
recorded with ``record.py``.  A *cycle* holds every input of the pool once,
in an order set by the seed, so the mix of inputs, the oracle ratio and the
traced counts are the same in every cycle and every run.

The traced replay of an op calls the same public functions as the op itself
(``run_study`` / ``_cmd_select`` / the tomography sequence), with the same
arguments in the same order, each inside a span.  Its outputs must equal the
untraced ones exactly, otherwise ``ReplayMismatch`` is raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np
import scipy.sparse as sp

from riskreg import bench, cli, problems, rules, tikhonov
from riskreg.errors import ConvergenceError, DegenerateDataError
from riskreg.linop import as_operator, largest_eigenvalue, svd

RULES = rules.RULE_NAMES

# Selection flags that mean the rule gave up and returned a default, and
# flags that mean it landed on the edge of its search range.
FALLBACK_FLAGS = {"fallback_max_alpha", "degenerate_snr", "degenerate", "no_convergence",
                  "saturated_max"}
EDGE_FLAGS = {"grid_edge", "at_grid_min", "curvature_at_boundary", "boundary",
              "saturated_max"}

# Relative tolerance on a selected alpha against its reference.  Grid rules
# return grid values, a neighbouring grid point is >10% away; dp bisects to
# 1e-6 and the continuous rules converge far below this.
ALPHA_RTOL = 1e-5


class ReplayMismatch(RuntimeError):
    """The traced replay did not reproduce the untraced output."""


def _order(seed: int, pool_size: int) -> list[int]:
    rng = np.random.default_rng(seed % 2**32)
    return [int(i) for i in rng.permutation(pool_size)]


def _selection_facts(flags, grid_index=None, grid_points=None) -> dict:
    flags = set(flags)
    edge = bool(flags & EDGE_FLAGS) or (grid_index is not None
                                        and grid_index in (0, grid_points - 1))
    return {"selections": 1, "fallback": int(bool(flags & FALLBACK_FLAGS)),
            "edge": int(edge)}


def _add(facts: dict, more: dict) -> None:
    for k, v in more.items():
        facts[k] = facts.get(k, 0) + v


def _children_s(rec, root) -> float:
    return sum(s["end"] - s["start"] for s in rec.spans if s["parent"] == root["id"])


# ---------------------------------------------------------------------------
# study_dense
# ---------------------------------------------------------------------------

class StudyDense:
    """``run_study`` + ``write_reports`` on dense 1-D cells, in parallel."""

    name = "study_dense"
    POOL = 8          # config seeds 0..7 have recorded digests; a cycle runs all 8
    PROBLEMS = (("shaw", None), ("deriv2", None), ("heat", 1))
    XIS = (10.0, 20.0)
    N = 64
    REPLICATES = 100

    def __init__(self, seed: int, work_dir: str, workers: int, refs: dict):
        self.workers = workers
        self.work_dir = work_dir
        self.refs = refs
        self.cycle = _order(seed, self.POOL)
        self.warmup = self.cycle[0]

    def setup(self, rec=None):
        self.configs = {s: bench.StudyConfig(problems=self.PROBLEMS, xis=self.XIS, n=self.N,
                                             rules=RULES, replicates=self.REPLICATES, seed=s)
                        for s in self.cycle}

    def op(self, config_seed: int):
        reports = bench.run_study(self.configs[config_seed], workers=self.workers)
        files = bench.write_reports(reports, os.path.join(self.work_dir, "study"))
        return reports, files

    @staticmethod
    def digest(files) -> str:
        """SHA-256 of the CSVs with every number re-rendered to 8 significant
        digits, so last-bit differences between BLAS kernels do not count."""
        h = hashlib.sha256()
        for path in sorted(files):
            h.update(os.path.basename(path).encode())
            with open(path) as fh:
                for line in fh:
                    fields = []
                    for x in line.rstrip("\n").split(","):
                        try:
                            fields.append(f"{float(x):.8g}")
                        except ValueError:
                            fields.append(x)
                    h.update((",".join(fields) + "\n").encode())
        return h.hexdigest()

    def check(self, config_seed, out) -> bool:
        return self.digest(out[1]) == self.refs[str(config_seed)]

    def selections(self, config_seed, out) -> int:
        return sum(len(r.entries) for r in out[0])

    def oracle_ratios(self, config_seed, out) -> list[float]:
        return [1.0 / e.efficiency for r in out[0] for e in r.entries]

    def record(self) -> dict:
        self.setup()
        return {str(s): self.digest(self.op(s)[1]) for s in range(self.POOL)}

    def traced_op(self, config_seed, rec) -> dict:
        t0 = time.perf_counter()
        reports = bench.run_study(self.configs[config_seed], workers=self.workers)
        study_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        serial = bench.run_study(self.configs[config_seed], workers=1)
        serial_s = time.perf_counter() - t0
        facts: dict = {}
        with rec.span("op") as root:
            rows = self._replay(self.configs[config_seed], rec, facts)
        expected = _report_rows(reports)
        if rows != expected or _report_rows(serial) != expected:
            raise ReplayMismatch(f"study replay differs for config seed {config_seed}")
        out_dir = os.path.join(self.work_dir, "study_traced")
        files = rec.call("bench.write_reports", bench.write_reports, reports, out_dir)
        ok = self.digest(files) == self.refs[str(config_seed)]
        _add(facts, {"study_s": study_s, "serial_s": serial_s,
                     "children_s": _children_s(rec, root),
                     "report_bytes": sum(os.path.getsize(f) for f in files)})
        return {"ok": ok, "untraced_s": serial_s, "traced_s": root["end"] - root["start"],
                "facts": facts}

    @staticmethod
    def _replay(config, rec, facts) -> dict:
        # Mirrors bench.run_study(workers=1): _cell_setup, then
        # _evaluate_replicate for each replicate, in the same order.
        out = {}
        for name, variant in config.problems:
            for xi in config.xis:
                problem = rec.call("problems.make_problem", problems.make_problem,
                                   name, variant, config.n)
                dec = rec.call("linop.svd", svd, problem.A)
                grid = bench.default_grid(float(dec.s[0]) ** 2, config.grid_points)
                influence = rec.call("tikhonov.influence_exact",
                                     tikhonov.influence_path_exact, dec, grid.values)
                per_rule = {rule: [] for rule in config.rules}
                for rep in range(config.replicates):
                    _replay_replicate(problem, dec, grid, influence, config, xi, rep,
                                      rec, facts, per_rule)
                for rule in config.rules:
                    out[(name, variant, xi, rule)] = per_rule[rule]
        return out


def _report_rows(reports) -> dict:
    return {(r.problem, r.variant, r.xi, r.rule):
            [(e.alpha, e.rel_error, e.flags) for e in r.entries] for r in reports}


def _replay_replicate(problem, dec, grid, influence, config, xi, rep, rec, facts,
                      per_rule):
    data = rec.call("problems.add_noise", problems.add_noise, problem, xi, config.seed, rep)
    path = rec.call("tikhonov.spectral_path", tikhonov.spectral_path, dec, data.g,
                    grid.values)
    errors = np.linalg.norm(path.solutions - problem.f_true[None, :], axis=1) \
        / np.linalg.norm(problem.f_true)
    eps_o, _ = bench.oracle_error(errors)
    sigma2 = data.sigma ** 2
    calls = {
        "pro": lambda: rules.pro_estimated(influence, data.g, sigma2,
                                           on_degenerate="max_alpha"),
        "ipro": lambda: rules.ipro(influence, data.g, path=path),
        "dp": lambda: rules.dp(path, data.sigma, refine=False),
        "upre": lambda: rules.upre(path, influence, sigma2),
        "gcv": lambda: rules.gcv(path, influence),
        "bp": lambda: rules.bp(path, data.sigma, influence, gamma=config.bp_gamma,
                               c=config.bp_c),
        "lc": lambda: rules.lc(path),
        "qoc": lambda: rules.qoc(path),
    }
    for rule in config.rules:
        flags: list[str] = []
        try:
            with rec.span(f"rules.{rule}"):
                sel = calls[rule]()
            idx = sel.diagnostics.get("grid_index")
            if idx is None:
                idx = int(np.argmin(np.abs(np.log(grid.values) - np.log(sel.alpha))))
            flags.extend(sel.diagnostics.get("flags", []))
            alpha = float(grid.values[idx])
            if rule == "ipro":
                _add(facts, {"ipro_iters": sel.diagnostics["iterations"]})
        except DegenerateDataError:
            idx = len(grid.values) - 1
            alpha = float(grid.values[idx])
            flags.append("degenerate")
        except ConvergenceError as exc:
            alpha = float(exc.last_iterate) if isinstance(exc.last_iterate, (int, float)) \
                else float(grid.values[-1])
            idx = int(np.argmin(np.abs(np.log(grid.values) - np.log(alpha))))
            flags.append("no_convergence")
        _add(facts, _selection_facts(flags, idx, grid.points))
        per_rule[rule].append((alpha, float(errors[idx]), tuple(flags)))


# ---------------------------------------------------------------------------
# tomo_mf
# ---------------------------------------------------------------------------

class TomoMF:
    """One matrix-free ``ipro`` selection on the sparse parallel-beam operator."""

    name = "tomo_mf"
    CELLS = 16            # cells per side; 60 angles x 45 rays as in c13
    XI = 20.0
    NOISE_SEED = 1
    POWER_SEED = 3
    PROBE_SEED = 5
    PROBES = 16
    POOL = 8              # replicates 0..7 have recorded references; a cycle runs all 8
    C13_FACTOR = 1.10

    def __init__(self, seed: int, work_dir: str, workers: int, refs: dict):
        self.refs = refs
        self.cycle = _order(seed, self.POOL)
        self.warmup = self.cycle[0]

    def setup(self, rec=None):
        rec = rec or _NullRecorder()
        self.problem = rec.call("problems.make_problem", problems.make_problem,
                                "paralleltomo", None, self.CELLS)
        self.data = {r: rec.call("problems.add_noise", problems.add_noise, self.problem,
                                 self.XI, self.NOISE_SEED, r)
                     for r in range(self.POOL)}
        self.sparse = None

    def _select(self, A, g, rec):
        lam1 = rec.call("linop.power", largest_eigenvalue, A, seed=self.POWER_SEED)
        grid = bench.matrix_free_grid(lam1).values
        influence = rec.call("tikhonov.influence_path", tikhonov.influence_path_stochastic,
                             A, grid, probes=self.PROBES, seed=self.PROBE_SEED, lam1=lam1)
        path = rec.call("tikhonov.solution_path", tikhonov.iterative_path, A, g, grid)
        with rec.span("rules.ipro"):
            sel = rules.ipro(influence, g, path=path)
        return sel, path

    def op(self, replicate: int):
        return self._select(self.problem.A, self.data[replicate].g, _NullRecorder())

    def _errors(self, path):
        f = self.problem.f_true
        return np.linalg.norm(path.solutions - f[None, :], axis=1) / np.linalg.norm(f)

    def outcome(self, out) -> dict:
        sel, path = out
        errors = self._errors(path)
        idx = sel.diagnostics["grid_index"]
        return {"grid_index": idx, "ratio": float(errors[idx] / np.min(errors))}

    def check(self, replicate, out) -> bool:
        got, ref = self.outcome(out), self.refs[str(replicate)]
        return got["grid_index"] == ref["grid_index"] and \
            bool(np.isclose(got["ratio"], ref["ratio"], rtol=1e-6, atol=0.0))

    def selections(self, replicate, out) -> int:
        return 1

    def oracle_ratios(self, replicate, out) -> list[float]:
        return [self.outcome(out)["ratio"]]

    def c13_met(self, replicate, out) -> bool:
        return self.outcome(out)["ratio"] <= self.C13_FACTOR

    def record(self) -> dict:
        self.setup()
        return {str(r): self.outcome(self.op(r)) for r in range(self.POOL)}

    def traced_op(self, replicate, rec) -> dict:
        if self.sparse is None:
            self.sparse = sp.csr_matrix(self.problem.A.to_dense())
        g = self.data[replicate].g
        t0 = time.perf_counter()
        out = self.op(replicate)
        untraced_s = time.perf_counter() - t0
        with rec.span("op") as root:
            sel, path = self._select(rec.counting_operator(self.sparse), g, rec)
        if sel.alpha != out[0].alpha or \
                sel.diagnostics["grid_index"] != out[0].diagnostics["grid_index"]:
            raise ReplayMismatch(f"tomography replay differs for replicate {replicate}")
        facts = {"ipro_iters": sel.diagnostics["iterations"]}
        _add(facts, _selection_facts(sel.diagnostics["flags"],
                                     sel.diagnostics["grid_index"], len(path)))
        return {"ok": self.check(replicate, out), "untraced_s": untraced_s,
                "traced_s": root["end"] - root["start"], "facts": facts}


class _NullRecorder:
    """Stands in for a SpanRecorder on the untraced path."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name):
        yield {}

    @staticmethod
    def counting_operator(matrix):
        return as_operator(matrix)


# ---------------------------------------------------------------------------
# select_dense / select_mf_dense
# ---------------------------------------------------------------------------

class SelectDense:
    """In-process ``riskreg select`` over dense containers, cycling the rules."""

    name = "select_dense"
    CONTAINERS = (("shaw", None, 64), ("deriv2", None, 64), ("heat", 1, 64),
                  ("shaw", None, 256), ("heat", 1, 256))
    XI = 20.0
    REPLICATES = len(RULES)   # noise replicates per container, one per rule in a cycle
    NOISE_SEED = 7
    CLI_SEED = 0
    matrix_free = False

    def __init__(self, seed: int, work_dir: str, workers: int, refs: dict):
        self.work_dir = work_dir
        self.refs = refs
        # A cycle sends every rule once to every container; the noise
        # replicate paired with each rule is fixed, so every cycle holds the
        # same requests and the seed only sets their order.  Containers rotate
        # fastest; their costs differ by up to 10x.
        offsets = np.random.default_rng(seed % 2**32).integers(0, len(RULES),
                                                               len(self.CONTAINERS))
        self.cycle = []
        for k in range(len(RULES)):
            for c in range(len(self.CONTAINERS)):
                i = (int(offsets[c]) + k) % len(RULES)
                self.cycle.append((c, (i + c) % self.REPLICATES, RULES[i]))
        self.warmup = (0, 0, RULES[0])

    def key(self, c, r) -> str:
        name, variant, n = self.CONTAINERS[c]
        return f"{name}{'' if variant is None else variant}-n{n}-xi{self.XI:g}-r{r}"

    def setup(self, rec=None):
        rec = rec or _NullRecorder()
        os.makedirs(self.work_dir, exist_ok=True)
        self.data = {}
        for c, (name, variant, n) in enumerate(self.CONTAINERS):
            problem = rec.call("problems.make_problem", problems.make_problem,
                               name, variant, n)
            for r in range(self.REPLICATES):
                noisy = rec.call("problems.add_noise", problems.add_noise, problem,
                                 self.XI, self.NOISE_SEED, r)
                path = os.path.join(self.work_dir, self.key(c, r) + ".rr")
                problems.save_container(path, problem=problem, noisy=noisy)
                self.data[c, r] = (path, problem, noisy)
        self._oracle = {}

    def argv(self, path, rule):
        argv = ["select", "--data", path, "--rule", rule, "--seed", str(self.CLI_SEED)]
        return argv + (["--matrix-free"] if self.matrix_free else [])

    def op(self, request):
        c, r, rule = request
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(self.data[c, r][0], rule))
        return code, buf.getvalue().strip()

    def check(self, request, out) -> bool:
        code, text = out
        if code != 0:
            return False
        c, r, rule = request
        ref = self.refs[self.key(c, r)][rule]
        return bool(np.isclose(json.loads(text)["alpha"], ref, rtol=ALPHA_RTOL, atol=0.0))

    def selections(self, request, out) -> int:
        return 1

    def _grid(self, problem, dec) -> np.ndarray:
        if self.matrix_free:
            return bench.matrix_free_grid(largest_eigenvalue(problem.A, seed=self.CLI_SEED)).values
        return bench.default_grid(float(dec.s[0]) ** 2).values

    def oracle_ratios(self, request, out) -> list[float]:
        """Error at the selected alpha over the best error on the request's grid
        (exact spectral solutions).  Continuous rules can land slightly below 1."""
        c, r, _ = request
        _, problem, noisy = self.data[c, r]
        if (c, r) not in self._oracle:
            dec = svd(problem.A)
            path = tikhonov.spectral_path(dec, noisy.g, self._grid(problem, dec))
            errors = [bench.rel_error(f, problem.f_true) for f in path.solutions]
            self._oracle[c, r] = (dec, min(errors))
        dec, eps_o = self._oracle[c, r]
        alpha = json.loads(out[1])["alpha"]
        f = tikhonov.solve_spectral(dec, noisy.g, alpha).f_alpha
        return [bench.rel_error(f, problem.f_true) / eps_o]

    def record(self) -> dict:
        self.setup()
        refs = {}
        for c, r in self.data:
            alphas = refs[self.key(c, r)] = {}
            for rule in RULES:
                code, text = self.op((c, r, rule))
                if code != 0:
                    raise RuntimeError(f"select failed on {self.key(c, r)} --rule {rule}")
                alphas[rule] = json.loads(text)["alpha"]
        return refs

    def traced_op(self, request, rec) -> dict:
        t0 = time.perf_counter()
        out = self.op(request)
        cli_s = time.perf_counter() - t0
        # The same replay without spans is the untraced reference for the
        # tracing overhead; cli.main itself also parses arguments and prints.
        t0 = time.perf_counter()
        self._replay(request, _NullRecorder(), {})
        untraced_s = time.perf_counter() - t0
        facts: dict = {}
        with rec.span("op") as root:
            text = self._replay(request, rec, facts)
        if text != out[1]:
            raise ReplayMismatch(f"select replay differs for {request}: {text} != {out[1]}")
        _add(facts, {"cli_s": cli_s, "children_s": _children_s(rec, root),
                     "container_bytes": os.path.getsize(self.data[request[0], request[1]][0])})
        return {"ok": self.check(request, out), "untraced_s": untraced_s,
                "traced_s": root["end"] - root["start"], "facts": facts}

    def _replay(self, request, rec, facts) -> str:
        # Mirrors cli._cmd_select with the arguments of self.argv().
        c, r, rule = request
        raw = rec.call("problems.load_container", problems.load_container,
                       self.data[c, r][0])
        noisy = problems.noisy_from_container(raw)
        A = rec.counting_operator(raw["A"])
        g = noisy.g
        seed = self.CLI_SEED
        sigma = noisy.sigma or None
        sigma2 = None if sigma is None else sigma * sigma
        mf = self.matrix_free
        if mf:
            s1_sq = rec.call("linop.power", largest_eigenvalue, A, seed=seed)
            dec = None
        else:
            dec = rec.call("linop.svd", svd, A)
            s1_sq = float(dec.s[0]) ** 2
        path = influence = None
        grid_points = None
        if rule in ("dp", "upre", "bp", "gcv", "lc", "qoc") or mf:
            grid = (bench.matrix_free_grid(s1_sq) if mf else bench.default_grid(s1_sq))
            grid = bench.AlphaGrid(grid.min, grid.max, grid.points)
            grid_points = grid.points
            if mf:
                influence = rec.call("tikhonov.influence_path",
                                     tikhonov.influence_path_stochastic, A, grid.values,
                                     bench.DEFAULT_PROBES, seed, lam1=s1_sq)
                path = rec.call("tikhonov.solution_path", tikhonov.iterative_path,
                                A, g, grid.values)
            else:
                influence = rec.call("tikhonov.influence_exact",
                                     tikhonov.influence_path_exact, dec, grid.values)
                path = rec.call("tikhonov.spectral_path", tikhonov.spectral_path,
                                dec, g, grid.values)
        source = influence if mf else dec
        with rec.span(f"rules.{rule}"):
            if rule == "pro":
                sel = rules.pro_estimated(source, g, sigma2)
            elif rule == "ipro":
                sel = rules.ipro(source, g, alpha_init=None, path=path)
            elif rule == "dp":
                sel = rules.dp(path, sigma)
            elif rule == "upre":
                sel = rules.upre(path, source, sigma2)
            elif rule == "gcv":
                sel = rules.gcv(path, source)
            elif rule == "bp":
                sel = rules.bp(path, sigma, source, gamma=0.25, c=1.5)
            elif rule == "lc":
                sel = rules.lc(path)
            else:
                sel = rules.qoc(path)
        d = sel.diagnostics
        if rule == "ipro":
            _add(facts, {"ipro_iters": d["iterations"]})
        elif rule == "pro" and not mf:
            _add(facts, {"newton_iters": d.get("iterations", 0)})
        _add(facts, _selection_facts(d.get("flags", []), d.get("grid_index"), grid_points))
        return sel.to_json()


class SelectMFDense(SelectDense):
    """``riskreg select --matrix-free`` on the heat(1) n = 64 containers.

    One problem only: with shaw, deriv2 and heat mixed, the median request
    sat between cost clusters and moved twice as much as throughput between
    runs.  heat(1) is the costliest of the three, with the most CG work.
    """

    name = "select_mf_dense"
    CONTAINERS = (("heat", 1, 64),)
    matrix_free = True


WORKLOADS = {w.name: w for w in (StudyDense, TomoMF, SelectDense, SelectMFDense)}
