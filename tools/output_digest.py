"""Print one line per observable output of riskreg, to compare two source trees.

Runs, in this process, against whichever ``riskreg`` is on the import path:

- ``select`` for every rule on 72 dense containers (shaw, heat(1), baart,
  i_laplace(1), phillips and foxgood at n = 64, deriv2 at n = 32 and heat(1)
  at n = 256; replicates 0-2 at 10, 20 and 40 dB), and with ``--matrix-free``
  on the n = 64 ones at replicate 0, 20 dB: exit code, stdout and stderr;
- every ``curve`` kind on replicate 0 at 20 dB of each problem: exit code and
  the SHA-256 of the CSV;
- the probe measure (``influence_path_stochastic``) of paralleltomo 16x16
  with the ``tomo_mf`` benchmark's seeds (power 3, 16 probes from seed 5,
  ``matrix_free_grid``) and of shaw n = 64 on the default grid (32 probes,
  seed 0, lam1 = s1^2): ``frob_sq``, ``trace`` and ``noise_amp`` at the first,
  middle and last grid index, and the total weight, at full precision, and
  each probe's depth and settle estimate;
- the ``iterative_path`` of that paralleltomo 16x16 operator from replicate 0
  at 20 dB on its ``matrix_free_grid``, the ``tomo_mf`` benchmark's path: its
  Krylov depth and normal residual at full precision and the SHA-256 of its
  residual norms, solution norms and solutions;
- Golub-Kahan blocks whose columns stop at different steps, so that some
  steps run with some but not all columns live: the 12 x 9 block of
  ``test_column_retires_at_step_one`` (a column that breaks down at step one,
  a zero column and two that run on) and 5 probes of a rank-5 5 x 9 operator
  (seed 258), two of whose u vanish at a step where the other three go on:
  each column's probe quadrature (nodes, weights, normal residual and settle
  estimate) and path (its ``golub_kahan`` run and the spectral path of the
  projected problem), and the probe measure of the 5 x 9 operator, at full
  precision;
- ``select --matrix-free`` for every rule on a paralleltomo 16x16 container
  (replicate 0, 20 dB): exit code, stdout and stderr;
- ``select``, dense and ``--matrix-free``, on shaw n = 64 (replicate 0, 20 dB)
  with the flags that feed a rule's inputs: ``--rho2`` with ``pro``,
  ``--alpha-init`` with ``ipro``, ``--sigma`` alone and ``--sigma2`` alone,
  ``--bp-gamma`` and ``--bp-c`` with ``bp`` and a grid override for every
  rule; and every rule on that data saved without a noise level, alone and
  with ``--sigma``: exit code, stdout and stderr;
- ``study``: the SHA-256 of the CSVs of shaw/heat(1)/deriv2 n = 64 (10 and
  20 dB, 20 replicates, every rule) at 1 and 2 workers, of the same problems
  at 0 and -10 dB (10 replicates, so three workers get uneven chunks) at 1 and
  3 workers, where rules fall back, and of paralleltomo n = 8 (10, 20 and
  40 dB, 6 replicates, 8 probes).

Usage, once per tree, then diff the two outputs:

    PYTHONPATH=<tree>/src python tools/output_digest.py > <tree>.digest
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from riskreg import bench, cli, linop, problems, rules, tikhonov
from riskreg.rng import TAG_PROBES, keyed_rng

SEED = 1
XIS = (10.0, 20.0, 40.0)
REPLICATES = range(3)
CONTAINERS = [("shaw", None, 64), ("heat", 1, 64), ("baart", None, 64),
              ("i_laplace", 1, 64), ("phillips", None, 64), ("foxgood", None, 64),
              ("deriv2", None, 32), ("heat", 1, 256)]
CURVE_KINDS = ("lower_bound", "predictive", "upre", "gcv", "lcurve")
# (label, container, rules, flags) of the select runs that vary a rule's inputs
# on shaw n = 64, replicate 0 at 20 dB, saved with ("noisy") or without
# ("nosigma") its noise level
SELECT_FLAGS = [
    ("rho2", "noisy", ("pro",), ["--rho2", "1.5"]),
    ("alpha_init", "noisy", ("ipro",), ["--alpha-init", "1e-3"]),
    ("sigma", "noisy", rules.RULE_NAMES, ["--sigma", "0.01"]),
    ("sigma2", "noisy", rules.RULE_NAMES, ["--sigma2", "1e-4"]),
    ("bp_settings", "noisy", ("bp",), ["--bp-gamma", "0.5", "--bp-c", "2"]),
    ("grid", "noisy", rules.RULE_NAMES,
     ["--grid-min", "1e-6", "--grid-max", "1", "--grid-points", "37"]),
    ("nosigma", "nosigma", rules.RULE_NAMES, []),
    ("nosigma_sigma", "nosigma", rules.RULE_NAMES, ["--sigma", "0.01"]),
]
STUDIES = [
    ("dense", {"problems": [{"name": "shaw", "variant": None},
                            {"name": "heat", "variant": 1},
                            {"name": "deriv2", "variant": None}],
               "xis": [10.0, 20.0], "n": 64, "rules": list(rules.RULE_NAMES),
               "replicates": 20, "seed": SEED}, (1, 2)),
    ("dense_low", {"problems": [{"name": "shaw", "variant": None},
                                {"name": "heat", "variant": 1},
                                {"name": "deriv2", "variant": None}],
                   "xis": [0.0, -10.0], "n": 64, "rules": list(rules.RULE_NAMES),
                   "replicates": 10, "seed": SEED}, (1, 3)),
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


def _print_measure(label, m) -> None:
    for i in (0, m.alphas.size // 2, m.alphas.size - 1):
        print(f"measure {label} index={i} frob_sq={float(m.frob_sq[i])!r} "
              f"trace={float(m.trace[i])!r} noise_amp={float(m.noise_amp[i])!r}")
    print(f"measure {label} total_weight={float(m.weights.sum())!r} nodes={m.nodes.size} "
          f"depths={m.iterations.tolist()} settle={m.settle.tolist()}")


def _print_block(label, A, B, alphas, tol) -> None:
    quadratures = tikhonov._golub_kahan(A, B, alphas, tikhonov.SETTLE_TOL, None, "settle",
                                        tikhonov._gauss_quadrature)
    for j, ((nodes, weights, depth), residual, settle) in enumerate(quadratures):
        print(f"block {label} column={j} quadrature depth={depth} residual={residual!r} "
              f"settle={settle!r} nodes={nodes.tolist()} weights={weights.tolist()}")
    for j, (dec, rhs, residual) in enumerate(tikhonov.golub_kahan(A, B, alphas, tol=tol)):
        path = tikhonov.spectral_path(dec, rhs, alphas)
        print(f"block {label} column={j} path depth={rhs.size - 1} residual={residual!r} "
              f"s={dec.s.tolist()} residual_norms={path.residual_norms.tolist()} "
              f"solutions_sha256={_sha256_of(path.solutions)}")


def _sha256_of(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _breakdown_blocks() -> None:
    rng = keyed_rng(61)  # test_column_retires_at_step_one
    A = rng.standard_normal((12, 9))
    B = rng.standard_normal((12, 4))
    B[:, 1] = 3.0 * linop.svd(A).U[:, 0]
    B[:, 2] = 0.0
    _print_block("retire12x9", A, B, [1e-2, 1.0], 1e-12)
    rng = keyed_rng(258)  # an example of test_gauss_quadrature_matches_svd_measure
    s = np.sort(10.0 ** rng.uniform(-0.11, 0.0, 5))[::-1]
    U = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    V = np.linalg.qr(rng.standard_normal((9, 9)))[0][:, :5]
    A = (U * (s / s[0])) @ V.T
    alphas = bench.matrix_free_grid(1.0).values
    _print_measure("rank5_5x9", tikhonov.influence_path_stochastic(A, alphas, 5, 258, lam1=1.0))
    _print_block("rank5_5x9", A, keyed_rng(258, TAG_PROBES).standard_normal((5, 5)), alphas,
                 1e-8)


def main() -> None:
    tomo = problems.make_problem("paralleltomo", None, 16)
    lam1 = linop.largest_eigenvalue(tomo.A, seed=3)
    tomo_grid = bench.matrix_free_grid(lam1).values
    _print_measure("paralleltomo16", tikhonov.influence_path_stochastic(
        tomo.A, tomo_grid, probes=16, seed=5, lam1=lam1))
    path = tikhonov.iterative_path(tomo.A, problems.add_noise(tomo, 20.0, SEED, 0).g, tomo_grid)
    print(f"path paralleltomo16_xi20_r0 depth={path.iterations} "
          f"normal_residual={path.normal_residual!r} "
          f"residual_norms_sha256={_sha256_of(path.residual_norms)} "
          f"solution_norms_sha256={_sha256_of(path.solution_norms)} "
          f"solutions_sha256={_sha256_of(path.solutions)}")
    shaw = problems.make_problem("shaw", None, 64)
    s1_sq = float(linop.svd(shaw.A).s[0]) ** 2
    _print_measure("shaw64", tikhonov.influence_path_stochastic(
        shaw.A, bench.default_grid(s1_sq).values, probes=32, seed=0, lam1=s1_sq))
    _breakdown_blocks()

    with tempfile.TemporaryDirectory() as tmp:
        tomo_path = os.path.join(tmp, "paralleltomo16.rr")
        problems.save_container(tomo_path, problem=tomo,
                                noisy=problems.add_noise(tomo, 20.0, SEED, 0))
        for rule in rules.RULE_NAMES:
            code, out, err = _run(["select", "--data", tomo_path, "--rule", rule,
                                   "--seed", "0", "--matrix-free"])
            print(f"select-mf paralleltomo16_xi20_r0 {rule} {code} {json.dumps(out)} "
                  f"{json.dumps(err)}")

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

        flagged = {"noisy": containers["shaw_n64_xi20_r0"],
                   "nosigma": os.path.join(tmp, "shaw_n64_xi20_r0_nosigma.rr")}
        problems.save_container(flagged["nosigma"], problem=shaw, noisy=dataclasses.replace(
            problems.add_noise(shaw, 20.0, SEED, 0), sigma=0.0))
        for mode, extra in (("dense", []), ("mf", ["--matrix-free"])):
            for label, container, flag_rules, flags in SELECT_FLAGS:
                for rule in flag_rules:
                    code, out, err = _run(["select", "--data", flagged[container], "--rule",
                                           rule, "--seed", "0", *extra, *flags])
                    print(f"select-flags {mode} {label} {rule} {code} {json.dumps(out)} "
                          f"{json.dumps(err)}")

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
