"""Print one line per observable output of riskreg, to compare two source trees.

Runs, in this process, against whichever ``riskreg`` is on the import path:

- ``select`` for every rule on 72 dense containers (shaw, heat(1), baart,
  i_laplace(1), phillips and foxgood at n = 64, deriv2 at n = 32 and heat(1)
  at n = 256; replicates 0-2 at 10, 20 and 40 dB), and with ``--matrix-free``
  on the n = 64 ones at replicate 0, 20 dB: exit code, stdout and stderr;
- every ``curve`` kind on replicate 0 at 20 dB of each problem: exit code and
  the SHA-256 of the CSV;
- ``study``: the SHA-256 of the CSVs of shaw/heat(1)/deriv2 n = 64 (10 and
  20 dB, 20 replicates, every rule) at 1 and 2 workers, and of paralleltomo
  n = 8 (10, 20 and 40 dB, 6 replicates, 8 probes).

Usage, once per tree, then diff the two outputs:

    PYTHONPATH=<tree>/src python tools/output_digest.py > <tree>.digest
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from riskreg import cli, problems, rules

SEED = 1
XIS = (10.0, 20.0, 40.0)
REPLICATES = range(3)
CONTAINERS = [("shaw", None, 64), ("heat", 1, 64), ("baart", None, 64),
              ("i_laplace", 1, 64), ("phillips", None, 64), ("foxgood", None, 64),
              ("deriv2", None, 32), ("heat", 1, 256)]
CURVE_KINDS = ("lower_bound", "predictive", "upre", "gcv", "lcurve")
STUDIES = [
    ("dense", {"problems": [{"name": "shaw", "variant": None},
                            {"name": "heat", "variant": 1},
                            {"name": "deriv2", "variant": None}],
               "xis": [10.0, 20.0], "n": 64, "rules": list(rules.RULE_NAMES),
               "replicates": 20, "seed": SEED}, (1, 2)),
    ("tomo", {"problems": [{"name": "paralleltomo", "variant": None}],
              "xis": [10.0, 20.0, 40.0], "n": 8, "rules": list(rules.RULE_NAMES),
              "replicates": 6, "seed": SEED, "probes": 8}, (1,)),
]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _tag(name, variant, n) -> str:
    return f"{name}{'' if variant is None else variant}_n{n}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        containers = {}
        for name, variant, n in CONTAINERS:
            problem = problems.make_problem(name, variant, n)
            for xi in XIS:
                for rep in REPLICATES:
                    key = f"{_tag(name, variant, n)}_xi{xi:g}_r{rep}"
                    path = os.path.join(tmp, f"{key}.rr")
                    problems.save_container(path, problem=problem,
                                            noisy=problems.add_noise(problem, xi, SEED, rep))
                    containers[key] = path

        for key, path in containers.items():
            for rule in rules.RULE_NAMES:
                code, out, err = _run(["select", "--data", path, "--rule", rule,
                                       "--seed", "0"])
                print(f"select {key} {rule} {code} {json.dumps(out)} {json.dumps(err)}")
        for name, variant, n in CONTAINERS:
            if n != 64:
                continue
            key = f"{_tag(name, variant, n)}_xi20_r0"
            for rule in rules.RULE_NAMES:
                code, out, err = _run(["select", "--data", containers[key], "--rule", rule,
                                       "--seed", "0", "--matrix-free"])
                print(f"select-mf {key} {rule} {code} {json.dumps(out)} {json.dumps(err)}")

        for name, variant, n in CONTAINERS:
            key = f"{_tag(name, variant, n)}_xi20_r0"
            for kind in CURVE_KINDS:
                csv = os.path.join(tmp, f"curve_{key}_{kind}.csv")
                code, _, err = _run(["curve", "--data", containers[key], "--kind", kind,
                                     "--out", csv])
                digest = _sha256(csv) if os.path.exists(csv) else "-"
                print(f"curve {key} {kind} {code} {digest} {json.dumps(err)}")

        for label, doc, worker_counts in STUDIES:
            config = os.path.join(tmp, f"{label}.json")
            with open(config, "w") as fh:
                json.dump(doc, fh)
            for workers in worker_counts:
                out_dir = os.path.join(tmp, f"study_{label}_w{workers}")
                code, _, err = _run(["study", "--config", config, "--out", out_dir,
                                     "--workers", str(workers)])
                files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
                digest = hashlib.sha256()
                for fname in files:
                    digest.update(fname.encode() + b"\0")
                    with open(os.path.join(out_dir, fname), "rb") as fh:
                        digest.update(fh.read())
                print(f"study {label} workers={workers} {code} {len(files)} "
                      f"{digest.hexdigest()} {json.dumps(err)}")


if __name__ == "__main__":
    main()
