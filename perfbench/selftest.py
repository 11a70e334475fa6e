"""Count-repeatability self-test: two traced runs with one seed must agree on
every count.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Run from the repository root.  Each traced run covers at least one full cycle
of ops and reports counts per cycle, so the operator-application counts,
solver iterations and rule flag fractions must be identical.  Exits 1 on the
first difference.
"""

import argparse
import json
import os
import subprocess
import sys

import run

COUNT_UNITS = {"count", "bytes"}
FLAG_FRACTIONS = {"rules.fallback_frac", "rules.grid_edge_frac"}


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failed ops")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or k in FLAG_FRACTIONS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = args.workloads or [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        first, second = traced_counts(name, args.seed), traced_counts(name, args.seed)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"{name}: {'FAIL ' + json.dumps(diff) if diff else 'PASS'} "
              f"({len(first)} counts)", flush=True)
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
