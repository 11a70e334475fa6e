"""riskreg benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client keeps one op in flight.  With
``--trace 0`` the run times ops and prints the end-to-end metrics; with
``--trace 1`` every op is also replayed call by call inside spans and the
per-layer metrics are printed instead.  The last line of stdout is the result
object; the line before it is the run record (seed, host, library versions,
thread and worker settings).  Spans are written to
``.perfbench_out/<workload>-seed<N>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread per process: study_dense runs nproc worker processes, and
# for single-process workloads one thread measured faster at n = 256 than two.
BLAS_THREADS = 1
MAX_WORKERS = 4
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS have
# been spent on it, and its median reported: a set-up of a few milliseconds
# needs many repeats to read the same from run to run.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def _configure_threads() -> None:
    # Must run before numpy is imported; worker processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [SRC, HERE]


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def run_record(args, workers: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": platform.node(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": _blas_version(numpy),
            "openblas_scipy": _blas_version(scipy), "blas_threads": BLAS_THREADS,
            "workers": workers}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _run_cycles(w, seconds: float, do_op) -> int:
    """Runs whole cycles of ``w`` through ``do_op``, so every run times the same
    mix of inputs, and stops at the cycle count whose end lies nearest to
    ``seconds``: at least one cycle, then another only while it is expected to
    end less than half a cycle past the deadline.  Returns the cycle count."""
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for item in w.cycle:
            do_op(item, cycles)
        cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return cycles


def measure(w, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics."""
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        w.setup()
        w.op(w.warmup)            # warm-up
        setups.append(time.perf_counter() - t0)
    latencies, ratios = [], []
    counts = {"attempted": 0, "failed": 0, "selections": 0}
    c13 = [0, 0]

    def do_op(item, cycle):
        t0 = time.perf_counter()
        try:
            out = w.op(item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        counts["attempted"] += 1
        if out is None or not w.check(item, out):
            counts["failed"] += 1
            print(f"op failed: {item!r}", file=sys.stderr)
            return
        latencies.append(dt)
        counts["selections"] += w.selections(item, out)
        if cycle == 0:
            ratios.extend(w.oracle_ratios(item, out))
            if hasattr(w, "c13_met"):
                c13[0] += w.c13_met(item, out)
                c13[1] += 1

    _run_cycles(w, seconds, do_op)
    attempted, failed = counts["attempted"], counts["failed"]
    if not ratios:
        raise SystemExit("no op of the first cycle passed its check")
    metrics = {"setup_s": statistics.median(setups),
               "op_p50_s": statistics.median(latencies),
               "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1]
               if len(latencies) > 1 else latencies[0],
               "selections_per_s": counts["selections"] / sum(latencies),
               "oracle_ratio": statistics.median(ratios),
               "peak_rss_mb": peak_rss_mb()}
    info = {"ops": attempted, "failed": failed, "fail_frac": failed / attempted,
            "setups_s": setups}
    if c13[1]:
        info["c13_met"] = f"{c13[0]}/{c13[1]}"
    return metrics, {"attempted": attempted, "failed": failed, "info": info}


def measure_traced(w, seconds: float, workers: int, trace_path: str) -> tuple[dict, dict]:
    """Traced run: per-layer metrics per pass (one setup plus one cycle of ops)."""
    from spans import SpanRecorder, span_totals
    rec = SpanRecorder()
    w.setup(rec)
    w.op(w.warmup)                # warm-up, untraced
    facts: dict = {}
    untraced, traced = [], []
    counts = {"attempted": 0, "failed": 0}

    def do_op(item, cycle):
        rec.op_id = counts["attempted"]
        res = w.traced_op(item, rec)
        counts["attempted"] += 1
        counts["failed"] += not res["ok"]
        untraced.append(res["untraced_s"])
        traced.append(res["traced_s"])
        for k, v in res["facts"].items():
            facts[k] = facts.get(k, 0) + v

    cycles = _run_cycles(w, seconds, do_op)
    attempted, failed = counts["attempted"], counts["failed"]
    rec.write_jsonl(trace_path)

    setup_tot = span_totals([s for s in rec.spans if s["op"] is None])
    op_tot = span_totals([s for s in rec.spans if s["op"] is not None])

    def per_pass(name, key="s"):
        return setup_tot.get(name, {}).get(key, 0) + op_tot.get(name, {}).get(key, 0) / cycles

    def fact(key):
        return facts.get(key, 0) / cycles

    def cols(name):
        return per_pass(name, "apply_cols") + per_pass(name, "adjoint_cols")

    sel = max(facts.get("selections", 0), 1)
    m = {
        "problems.make_problem_s": per_pass("problems.make_problem"),
        "problems.add_noise_s": per_pass("problems.add_noise"),
        "problems.load_container_s": per_pass("problems.load_container"),
        "problems.container_bytes": fact("container_bytes"),
        "linop.svd_s": per_pass("linop.svd"),
        "linop.svd_calls": per_pass("linop.svd", "calls"),
        "linop.power_s": per_pass("linop.power"),
        "linop.power_iters": per_pass("linop.power", "apply_cols"),
        "linop.apply_cols": per_pass("op", "apply_cols"),
        "linop.adjoint_cols": per_pass("op", "adjoint_cols"),
        "tikhonov.influence_path_s": per_pass("tikhonov.influence_path"),
        "tikhonov.influence_apply_cols": cols("tikhonov.influence_path"),
        "tikhonov.solution_path_s": per_pass("tikhonov.solution_path"),
        "tikhonov.solution_apply_cols": cols("tikhonov.solution_path"),
        "tikhonov.spectral_path_s": per_pass("tikhonov.spectral_path"),
        "tikhonov.influence_exact_s": per_pass("tikhonov.influence_exact"),
        "risk.newton_iters": fact("newton_iters"),
        **{f"rules.{r}_s": per_pass(f"rules.{r}")
           for r in ("pro", "ipro", "dp", "upre", "bp", "gcv", "lc", "qoc")},
        "rules.ipro_iters": fact("ipro_iters"),
        "rules.fallback_frac": facts.get("fallback", 0) / sel,
        "rules.grid_edge_frac": facts.get("edge", 0) / sel,
        "bench.study_s": fact("study_s"),
        "bench.self_s": fact("serial_s") - fact("children_s") if "serial_s" in facts else 0.0,
        "bench.write_reports_s": per_pass("bench.write_reports"),
        "bench.report_bytes": fact("report_bytes"),
        "bench.parallel_eff": facts["serial_s"] / (workers * facts["study_s"])
        if "study_s" in facts else 0.0,
        "cli.select_s": fact("cli_s"),
        "cli.self_s": fact("cli_s") - fact("children_s") if "cli_s" in facts else 0.0,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    info = {"ops": attempted, "cycles": cycles, "spans": len(rec.spans),
            "trace_file": os.path.relpath(trace_path, ROOT),
            "untraced_p50_s": statistics.median(untraced),
            "traced_p50_s": statistics.median(traced), "replay_check": "passed"}
    return m, {"attempted": attempted, "failed": failed, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "riskreg", "__init__.py")):
        print(f"error: the riskreg sources are not under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    _configure_threads()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workers = min(len(os.sched_getaffinity(0)), MAX_WORKERS) \
        if cls is workloads.StudyDense else 1
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    w = cls(args.seed, work_dir, workers, refs[args.workload])
    try:
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.jsonl")
            try:
                values, counts = measure_traced(w, args.seconds, workers, trace_path)
            except workloads.ReplayMismatch as exc:
                print(f"error: replay check failed: {exc}", file=sys.stderr)
                return 1
            wanted = spec["per_layer"]
        else:
            values, counts = measure(w, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"run_record": run_record(args, workers), **counts["info"]}))
    print(json.dumps({
        "correct": counts["failed"] == 0, "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
