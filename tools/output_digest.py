"""Print one line per observable output of riskreg, to compare two source trees.

Runs, in this process, against whichever ``riskreg`` is on the import path:

- ``select`` for every rule on 72 dense containers (shaw, heat(1), baart,
  i_laplace(1), phillips and foxgood at n = 64, deriv2 at n = 32 and heat(1)
  at n = 256; replicates 0-2 at 10, 20 and 40 dB), and with ``--matrix-free``
  on the n = 64 ones at replicate 0, 20 dB: exit code, stdout and stderr;
- every ``curve`` kind on replicate 0 at 20 dB of each problem, and on shaw
  n = 64 there saved without a noise level: exit code and the SHA-256 of the
  CSV;
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
- ``select --matrix-free`` with ``pro`` and ``ipro`` on paralleltomo 24x24
  containers (replicate 0 at 10, 20 and 40 dB): exit code, stdout and stderr,
  and the same selection made in this process on an ``OperatorSetup``, then
  its probe measure's per-probe depths, read after the selection;
- ``select``, dense and ``--matrix-free``, on shaw n = 64 (replicate 0, 20 dB)
  with the flags that feed a rule's inputs: ``--rho2`` with ``pro``,
  ``--alpha-init`` with ``ipro``, ``--sigma`` alone and ``--sigma2`` alone,
  ``--bp-gamma`` and ``--bp-c`` with ``bp`` and a grid override for every
  rule; every rule on that data saved without a noise level, alone and with
  ``--sigma``; and every rule with a negative ``--sigma`` and on that data
  saved with a negative noise level: exit code, stdout and stderr;
- ``study``: the SHA-256 of the CSVs of shaw/heat(1)/deriv2 n = 64 (10 and
  20 dB, 20 replicates, every rule) at 1 and 2 workers, of the same problems
  at 0 and -10 dB (10 replicates, so three workers get uneven chunks) at 1 and
  3 workers, where rules fall back, and of paralleltomo n = 8 (10, 20 and
  40 dB, 6 replicates, 8 probes), and every ``summary()`` of the two dense
  configs' reports (``run_study`` in this process at each of their worker
  counts) at full precision: median, quartiles, min, max and median oracle
  error, of which ``summary.csv`` holds only some, to 12 digits;
- the rejection of a count argument below its floor: ``select --probes 0``,
  ``generate --replicates 0`` and ``--replicate -1``, and ``study`` with the
  dense config at ``replicates: 0`` and at ``probes: 0``, and of a list key
  given a number, ``study`` with the dense config at ``xis: 5``: exit code,
  stdout and stderr;
- the library's rejection of one mistyped value per check family, on shaw
  n = 64 (replicate 0, 20 dB): ``dp`` with sigma True, ``pro`` with rho2 True
  and with n 2.5, ``minimize_T`` with h None, ``InfluencePath`` with lam1
  True, ``AlphaGrid`` with min True, a ``StudyConfig`` with ``"xis": [true]``,
  ``lower_bound_T`` at alpha NaN and ``pro_estimated`` with ``on_degenerate``
  "max-alpha"; and of one ill-formed array per array check, on the same
  data: ``InfluencePath`` with a NaN node, ``SpectralDecomposition`` with a
  NaN singular value, ``pro_estimated`` with a NaN in g, grid-mode ``ipro``
  with g one entry short, ``lower_bound_T`` with sigma2 a column of None,
  ``sigma_for_snr`` with a NaN in g_true, a ``StudyConfig`` with
  ``"xis": 5``, ``svd`` of a bool matrix and ``golub_kahan`` from a bool
  right-hand side: the exception type and message, or the type of the value
  returned;
- the minimizer of the bound on shaw, heat(1), deriv2, baart and phillips at
  n = 64 (replicates 0-2 at 10, 20 and 40 dB): one SHA-256 per problem of
  every ``minimize_T`` result (all fields, at full precision) on the
  spectrum and on an 8-probe measure (seed 0, lam1 = s1^2) at 60 values of
  h from 1e-14 to 1, of ``T_h_derivative`` on both at 5 of those h on the
  default grid, and of the dense ``ipro`` selections (alpha and every
  diagnostic);
- ``select`` with ``pro`` and ``ipro`` on shaw n = 16 (20 dB, seed 0) with
  A, g_true, g and sigma scaled by 1e40, 1e45, 1e-40 and 1e-45: exit code,
  stdout and stderr, every warning shown, the package's directory in a
  warning's location written ``<riskreg>``.

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
import warnings

import numpy as np

from riskreg import bench, cli, linop, problems, risk, rules, tikhonov
from riskreg.rng import TAG_PROBES, keyed_rng

SEED = 1
XIS = (10.0, 20.0, 40.0)
REPLICATES = range(3)
CONTAINERS = [("shaw", None, 64), ("heat", 1, 64), ("baart", None, 64),
              ("i_laplace", 1, 64), ("phillips", None, 64), ("foxgood", None, 64),
              ("deriv2", None, 32), ("heat", 1, 256)]
CURVE_KINDS = ("lower_bound", "predictive", "upre", "gcv", "lcurve")
# (label, container, rules, flags) of the select runs that vary a rule's inputs
# on shaw n = 64, replicate 0 at 20 dB, saved with ("noisy"), without
# ("nosigma") or with the negative of ("negsigma") its noise level
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
    ("negative_sigma", "noisy", rules.RULE_NAMES, ["--sigma", "-0.01"]),
    ("negsigma", "negsigma", rules.RULE_NAMES, []),
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


def _library_rejections(problem) -> None:
    dec = linop.svd(problem.A)
    grid = bench.default_grid(float(dec.s[0]) ** 2).values
    noisy = problems.add_noise(problem, 20.0, SEED, 0)
    path = tikhonov.spectral_path(dec, noisy.g, grid)
    config = json.dumps({**STUDIES[0][1], "xis": [True]})
    g_nan = noisy.g.copy()
    g_nan[3] = np.nan
    s_nan = dec.s.copy()
    s_nan[-1] = np.nan
    calls = [
        ("dp_sigma_True", lambda: rules.dp(path, True)),
        ("pro_rho2_True", lambda: rules.pro(dec, True, 0.01)),
        ("minimize_T_h_None", lambda: risk.minimize_T(dec, None)),
        ("InfluencePath_lam1_True", lambda: tikhonov.InfluencePath(grid, dec.s ** 2,
                                                                   np.ones(dec.rank), True)),
        ("AlphaGrid_min_True", lambda: bench.AlphaGrid(True, 2.0, 10)),
        ("StudyConfig_xis_true", lambda: bench.StudyConfig.from_json(config)),
        ("lower_bound_T_alpha_nan", lambda: risk.lower_bound_T(1.0, 0.1, dec, np.nan)),
        ("pro_estimated_on_degenerate", lambda: rules.pro_estimated(
            dec, noisy.g, noisy.sigma ** 2, on_degenerate="max-alpha")),
        ("pro_n_2.5", lambda: rules.pro(dec, 1.0, 0.01, n=2.5)),
        ("InfluencePath_node_nan", lambda: tikhonov.InfluencePath(
            grid, np.r_[np.nan, dec.s[1:] ** 2], np.ones(dec.rank), float(dec.s[0]) ** 2)),
        ("SpectralDecomposition_s_nan", lambda: linop.SpectralDecomposition(dec.U, s_nan, dec.V)),
        ("pro_estimated_g_nan", lambda: rules.pro_estimated(dec, g_nan, noisy.sigma ** 2)),
        ("ipro_grid_g_short", lambda: rules.ipro(tikhonov.influence_path_exact(dec, grid),
                                                 noisy.g[:-1], path=path)),
        ("lower_bound_T_sigma2_None", lambda: risk.lower_bound_T(np.c_[1.0], np.c_[None], dec,
                                                                 1e-3)),
        ("sigma_for_snr_g_true_nan", lambda: problems.sigma_for_snr(g_nan, 20.0)),
        ("StudyConfig_xis_5", lambda: bench.StudyConfig.from_json(
            json.dumps({**STUDIES[0][1], "xis": 5}))),
        ("svd_A_bool", lambda: linop.svd(np.array([[True, False], [False, True]]))),
        ("golub_kahan_b_bool", lambda: tikhonov.golub_kahan(
            np.eye(3), np.array([True, True, False]), [1.0])),
    ]
    for label, call in calls:
        try:
            outcome = f"returned {type(call()).__name__}"
        except Exception as exc:
            outcome = f"{type(exc).__name__} {json.dumps(str(exc))}"
        print(f"reject-lib {label} {outcome}")


def _minimizer_battery() -> None:
    hs = np.geomspace(1e-14, 1.0, 60)
    for name, variant in (("shaw", None), ("heat", 1), ("deriv2", None), ("baart", None),
                          ("phillips", None)):
        problem = problems.make_problem(name, variant, 64)
        dec = linop.svd(problem.A)
        s1_sq = float(dec.s[0]) ** 2
        grid = bench.default_grid(s1_sq).values
        sources = (("spectrum", dec), ("probes8", tikhonov.influence_path_stochastic(
            problem.A, grid, probes=8, seed=0, lam1=s1_sq)))
        digest = hashlib.sha256()
        for _, source in sources:
            for h in hs:
                digest.update(repr(dataclasses.astuple(risk.minimize_T(source, h))).encode())
            for h in hs[::12]:
                digest.update(risk.T_h_derivative(source, h, grid).tobytes())
        for xi in XIS:
            for rep in REPLICATES:
                sel = rules.ipro(dec, problems.add_noise(problem, xi, SEED, rep).g)
                digest.update(repr((sel.alpha, sel.diagnostics)).encode())
        print(f"minimizer {_tag(name, variant, 64)} sha256={digest.hexdigest()}")


def _scaled_selects(tmp) -> None:
    shaw = problems.make_problem("shaw", None, 16)
    data = problems.add_noise(shaw, 20.0, 0)
    package = os.path.dirname(risk.__file__)
    for scale in (1e40, 1e45, 1e-40, 1e-45):
        scaled = problems.ProblemInstance(
            name="custom", variant=None, n=16,
            A=linop.LinearOperator.from_dense(shaw.A.to_dense() * scale),
            f_true=shaw.f_true, g_true=shaw.g_true * scale)
        path = os.path.join(tmp, f"shaw_n16_x{scale:g}.rr")
        problems.save_container(path, problem=scaled, noisy=dataclasses.replace(
            data, g=data.g * scale, sigma=data.sigma * scale))
        for rule in ("pro", "ipro"):
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                code, out, err = _run(["select", "--data", path, "--rule", rule])
            print(f"select-scaled shaw_n16_x{scale:g} {rule} {code} {json.dumps(out)} "
                  f"{json.dumps(err.replace(package, '<riskreg>'))}")


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

        tomo24 = problems.make_problem("paralleltomo", None, 24)
        for xi in XIS:
            noisy = problems.add_noise(tomo24, xi, SEED, 0)
            path = os.path.join(tmp, f"paralleltomo24_xi{xi:g}.rr")
            problems.save_container(path, problem=tomo24, noisy=noisy)
            for rule in ("pro", "ipro"):
                code, out, err = _run(["select", "--data", path, "--rule", rule,
                                       "--seed", "0", "--matrix-free"])
                setup = bench.OperatorSetup(tomo24.A, True, seed=0)
                sel = rules.pro_estimated(setup.source, noisy.g, noisy.sigma ** 2) \
                    if rule == "pro" else rules.ipro(setup.source, noisy.g,
                                                     path=setup.path(noisy.g, False))
                print(f"select-mf paralleltomo24_xi{xi:g}_r0 {rule} {code} {json.dumps(out)} "
                      f"{json.dumps(err)} alpha={sel.alpha!r} "
                      f"depths={setup.influence.iterations.tolist()}")

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

        flagged = {"noisy": containers["shaw_n64_xi20_r0"]}
        data = problems.add_noise(shaw, 20.0, SEED, 0)
        for label, sigma in (("nosigma", 0.0), ("negsigma", -data.sigma)):
            flagged[label] = os.path.join(tmp, f"shaw_n64_xi20_r0_{label}.rr")
            problems.save_container(flagged[label], problem=shaw,
                                    noisy=dataclasses.replace(data, sigma=sigma))
        for mode, extra in (("dense", []), ("mf", ["--matrix-free"])):
            for label, container, flag_rules, flags in SELECT_FLAGS:
                for rule in flag_rules:
                    code, out, err = _run(["select", "--data", flagged[container], "--rule",
                                           rule, "--seed", "0", *extra, *flags])
                    print(f"select-flags {mode} {label} {rule} {code} {json.dumps(out)} "
                          f"{json.dumps(err)}")

        keys = [f"{_tag(name, variant, n)}_xi20_r0" for name, variant, n in CONTAINERS]
        curve_data = [(key, containers[key]) for key in keys]
        curve_data.append(("shaw_n64_xi20_r0_nosigma", flagged["nosigma"]))
        for key, path in curve_data:
            for kind in CURVE_KINDS:
                csv = os.path.join(tmp, f"curve_{key}_{kind}.csv")
                code, _, err = _run(["curve", "--data", path, "--kind", kind, "--out", csv])
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
                if label.startswith("dense"):
                    for report in bench.run_study(bench.StudyConfig.from_json(json.dumps(doc)),
                                                  workers):
                        print(f"summary {label} workers={workers} " + " ".join(
                            f"{key}={value!r}" for key, value in report.summary().items()))

        generate = ["generate", "--problem", "shaw", "--n", "16", "--out",
                    os.path.join(tmp, "generate_rejected")]
        rejections = [("select_probes_0", ["select", "--data", containers["shaw_n64_xi20_r0"],
                                           "--rule", "pro", "--probes", "0"]),
                      ("generate_replicates_0", [*generate, "--replicates", "0"]),
                      ("generate_replicate_-1", [*generate, "--replicate", "-1"])]
        for key, value in (("replicates", 0), ("probes", 0), ("xis", 5)):
            config = os.path.join(tmp, f"study_{key}_{value}.json")
            with open(config, "w") as fh:
                json.dump({**STUDIES[0][1], key: value}, fh)
            rejections.append((f"study_{key}_{value}", [
                "study", "--config", config, "--out", os.path.join(tmp, f"study_{key}_{value}")]))
        for label, argv in rejections:
            code, out, err = _run(argv)
            print(f"reject {label} {code} {json.dumps(out)} {json.dumps(err)}")
        _scaled_selects(tmp)
    _library_rejections(shaw)
    _minimizer_battery()


if __name__ == "__main__":
    main()
