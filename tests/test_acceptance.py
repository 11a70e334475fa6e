"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them)."""

import numpy as np

import riskreg as rr
from riskreg import rules
from riskreg.bench import (StudyConfig, matrix_free_grid, oracle_error,
                           run_study, write_reports)
from riskreg.errors import DegenerateDataError
from riskreg.rng import keyed_rng

BENCHMARKS = [("baart", None), ("deriv2", None), ("foxgood", None),
              ("gravity", None), ("heat", 1), ("heat", 5), ("i_laplace", 1),
              ("i_laplace", 2), ("i_laplace", 3), ("phillips", None), ("shaw", None)]


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_analytic_minimizer():
    dec = rr.svd(np.eye(16))
    sel = rules.pro(dec, rho2=64.0, sigma2=1.0)
    err = abs(sel.alpha - 0.25)
    _report(1, "analytic minimizer", err <= 1e-8, f"alpha={sel.alpha!r} err={err:.2e}")


def test_c02_proposition_bounds():
    rng = keyed_rng(42)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(8, 33))
        dec = rr.svd(rng.standard_normal((n, n)))
        zeta = float(dec.s[0] ** 2 / np.sum(dec.s ** 2))
        hmax = 0.999 * min(zeta, 0.5)     # keep the noise-to-signal ratio physical
        h = 10.0 ** rng.uniform(-8.0, np.log10(hmax))
        alpha = rr.minimize_T(dec, h).alpha_star
        lo, hi = rr.alpha_bounds(dec, h)
        if not (lo * (1 - 1e-10) <= alpha <= hi * (1 + 1e-10)):
            violations += 1
    _report(2, "proposition bounds", violations == 0, f"{violations}/200 violations")


def test_c03_monotonicity_suite(benchmarks64):
    p32 = rr.make_problem("shaw", None, 32)
    dec32 = rr.svd(p32.A)
    hs = np.geomspace(1e-6, 1e-2, 20)
    stars = np.array([rr.minimize_T(dec32, h).alpha_star for h in hs])
    ok_star = bool(np.all(np.diff(stars) > 0))

    ok_resid = True
    for p, dec in benchmarks64:
        d = rr.add_noise(p, 10.0, seed=1, replicate=0)
        grid = np.geomspace(1e-12 * dec.s[0] ** 2, 0.5 * dec.s[0] ** 2, 50)
        r = rr.spectral_path(dec, d.g, grid, keep_solutions=False).residual_norms
        ok_resid &= bool(np.all(np.diff(r) >= -1e-10 * r[1:]))

    ok_trail = True
    for p, dec in benchmarks64:
        for rep in range(3):
            d = rr.add_noise(p, 10.0, seed=2, replicate=rep)
            try:
                trail = np.array(rules.ipro(dec, d.g).diagnostics["trail"])
            except DegenerateDataError as exc:
                trail = np.array(exc.trail)
            diffs = np.diff(trail)
            tol = 1e-10 * trail[1:]
            ok_trail &= bool(np.all(diffs <= tol) or np.all(diffs >= -tol))

    _report(3, "monotonicity suite", ok_star and ok_resid and ok_trail,
            f"alpha*(h) incr={ok_star} residual mono={ok_resid} trails mono={ok_trail}")


def test_c04_limit_identities():
    rng = keyed_rng(12)
    dec = rr.svd(np.diag(rng.uniform(0.5, 2.0, size=16)))
    s1_sq = float(dec.s[0]) ** 2
    h = 1e-3
    low = rr.T_h(dec, h, 1e-12 * s1_sq)
    err_low = abs(low - dec.rank * h) / (dec.rank * h)
    high = rr.T_h(dec, h, 1e8 * s1_sq)
    err_high = abs(high - 1.0)
    ok = err_low <= 1e-6 and err_high <= 1e-6
    _report(4, "limit identities", ok, f"rel err at 0+: {err_low:.2e}, at inf: {err_high:.2e}")


def test_c05_lower_bound_property(benchmarks64):
    worst = -np.inf
    for p, dec in benchmarks64:
        rho2 = float(p.g_true @ p.g_true)
        s1_sq = float(dec.s[0]) ** 2
        alphas = np.geomspace(1e-12 * s1_sq, 0.5 * s1_sq, 50)
        for xi in (10.0, 20.0, 40.0):
            sigma2 = rr.sigma_for_snr(p.g_true, xi) ** 2
            T = np.array([rr.lower_bound_T(rho2, sigma2, dec, a) for a in alphas])
            pr = rr.predictive_risk(dec, p.g_true, sigma2, alphas)
            worst = max(worst, float(np.max((T - pr) / np.maximum(pr, 1e-300))))
    _report(5, "lower bound property", worst <= 1e-12, f"worst (T-p)/p = {worst:.2e}")


def test_c06_fixed_point_residual(benchmarks64):
    worst = 0.0
    checked = 0
    for p, dec in benchmarks64:
        s2 = dec.s ** 2
        for xi in (10.0, 20.0):
            d = rr.add_noise(p, xi, seed=3, replicate=0)
            try:
                sel = rules.ipro(dec, d.g)
            except DegenerateDataError:
                continue    # residual below noise floor: no fixed point to check
            a = sel.alpha
            h_hat = sel.diagnostics["sigma2_hat"] / sel.diagnostics["rho2_hat"]
            lhs = a * s2[0] / (a + s2[0]) ** 3
            rhs = h_hat * np.sum(s2 ** 2 / (a + s2) ** 3)
            worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
            checked += 1
    _report(6, "fixed point residual", worst <= 1e-6 and checked >= 18,
            f"worst rel residual {worst:.2e} over {checked} runs")


def test_c07_matrix_free_equivalence(shaw64_stochastic_battery):
    bat = shaw64_stochastic_battery
    p, dec, grid = bat["problem"], bat["dec"], bat["grid"]
    rho2 = float(p.g_true @ p.g_true)
    sigma2 = rho2 / (64 * 10.0)      # 10 dB
    idx_exact = rules.pro(rr.influence_path_exact(dec, grid), rho2,
                          sigma2).diagnostics["grid_index"]
    hits = sum(abs(rules.pro(inf, rho2, sigma2).diagnostics["grid_index"] - idx_exact) <= 1
               for inf in bat["paths"])
    _report(7, "matrix-free equivalence", hits >= 45, f"{hits}/50 within one grid step")


def test_c08_table_scale_reproduction():
    cfg = StudyConfig(problems=[("shaw", None), ("deriv2", None)], xis=[10.0],
                      n=64, rules=["pro", "ipro"], replicates=100, seed=1)
    summaries = {(r.problem, r.rule): r.summary() for r in run_study(cfg)}
    oracle_shaw = summaries[("shaw", "pro")]["median_oracle"]
    oracle_deriv2 = summaries[("deriv2", "pro")]["median_oracle"]
    ok = (0.19 <= oracle_shaw <= 0.29) and (0.39 <= oracle_deriv2 <= 0.53)
    effs = {}
    for prob, floor in (("shaw", 0.80), ("deriv2", 0.85)):
        for rule in ("pro", "ipro"):
            eff = summaries[(prob, rule)]["median_eff"]
            effs[f"{prob}/{rule}"] = eff
            ok &= eff >= floor
    _report(8, "table-scale reproduction", ok,
            f"oracle shaw={oracle_shaw:.3f} deriv2={oracle_deriv2:.3f} eff={ {k: round(v, 3) for k, v in effs.items()} }")


def test_c09_known_failure_reproduction():
    cfg = StudyConfig(problems=[("heat", 1)], xis=[10.0], n=64,
                      rules=["pro", "lc"], replicates=100, seed=1)
    summaries = {r.rule: r.summary() for r in run_study(cfg)}
    lc_med = summaries["lc"]["median_eff"]
    pro_med = summaries["pro"]["median_eff"]
    ok = lc_med < 0.10 and pro_med >= 0.70
    _report(9, "known failure reproduction", ok,
            f"heat(1) lc median={lc_med:.3f} pro median={pro_med:.3f}")


def test_c10_stability_claim():
    cfg = StudyConfig(problems=[("shaw", None), ("foxgood", None)], xis=[20.0],
                      n=256, rules=["pro", "gcv"], replicates=100, seed=1)
    summaries = {(r.problem, r.rule): r.summary() for r in run_study(cfg)}
    ok = True
    detail = []
    for prob in ("shaw", "foxgood"):
        iqr_pro = summaries[(prob, "pro")]["q3"] - summaries[(prob, "pro")]["q1"]
        iqr_gcv = summaries[(prob, "gcv")]["q3"] - summaries[(prob, "gcv")]["q1"]
        ok &= iqr_pro <= iqr_gcv
        detail.append(f"{prob}: IQR pro={iqr_pro:.3f} gcv={iqr_gcv:.3f}")
    _report(10, "stability claim", ok, "; ".join(detail))


def test_c11_upper_bound_diagnostic(benchmarks64):
    ok = True
    worst = 1.0
    for p, dec in benchmarks64:
        for xi in (10.0, 20.0):
            sigma2 = rr.sigma_for_snr(p.g_true, xi) ** 2
            hits = 0
            for rep in range(100):
                d = rr.add_noise(p, xi, seed=2, replicate=rep)
                sel = rules.pro_estimated(dec, d.g, sigma2)
                hits += rr.predictive_risk_derivative(dec, p.g_true, sigma2,
                                                      sel.alpha) >= 0
            frac = hits / 100
            worst = min(worst, frac)
            ok &= frac >= 0.95
    _report(11, "upper bound diagnostic", ok, f"worst per-benchmark fraction {worst:.2f}")


def test_c12_estimator_checks(shaw32):
    p, dec = shaw32
    s2 = dec.s ** 2
    ok = True
    details = []
    for alpha in (1e-4, 1e-2, 1.0):
        frob_exact = float(np.sum((s2 / (s2 + alpha)) ** 2))
        samples = np.array([rr.influence_path_stochastic(p.A, [alpha], probes=20, seed=s,
                                                         lam1=s2[0]).frob_sq[0]
                            for s in range(50)])
        se = samples.std(ddof=1) / np.sqrt(50)
        z = abs(samples.mean() - frob_exact) / se
        ok &= z <= 3.0
        details.append(f"alpha={alpha:g}: z={z:.2f}")
    sigma = rr.sigma_for_snr(p.g_true, 10.0)
    rho2 = float(p.g_true @ p.g_true)
    g = p.g_true[None, :] + sigma * keyed_rng(21).standard_normal((10_000, 32))
    rho2_hat = np.sum(g * g, axis=1) - 32 * sigma ** 2
    se = rho2_hat.std(ddof=1) / np.sqrt(10_000)
    z_rho = abs(rho2_hat.mean() - rho2) / se
    ok &= z_rho <= 3.0
    _report(12, "estimator checks", ok, "; ".join(details) + f"; rho2 z={z_rho:.2f}")


def test_c13_tomography_end_to_end():
    p = rr.make_problem("paralleltomo", None, 32)
    data = rr.add_noise(p, 20.0, seed=1, replicate=0)
    lam1 = rr.largest_eigenvalue(p.A, seed=3)
    grid = matrix_free_grid(lam1).values
    influence = rr.influence_path_stochastic(p.A, grid, probes=16, seed=5, lam1=lam1)
    path = rr.iterative_path(p.A, data.g, grid)
    errors = np.linalg.norm(path.solutions - p.f_true[None, :], axis=1) \
        / np.linalg.norm(p.f_true)
    eps_o, _ = oracle_error(errors)
    sel = rules.ipro(influence, data.g, path=path)
    iters = sel.diagnostics["iterations"]
    err = float(errors[sel.diagnostics["grid_index"]])
    ok = iters <= 10 and err <= 1.10 * eps_o
    _report(13, "tomography end to end", ok,
            f"iters={iters} rel_err={err:.4f} oracle={eps_o:.4f} ratio={err / eps_o:.4f}")


def test_c14_determinism(tmp_path):
    cfg = StudyConfig(problems=[("shaw", None), ("phillips", None)], xis=[10.0, 20.0],
                      n=32, rules=["pro", "ipro", "dp", "lc"], replicates=6, seed=9,
                      grid_points=80)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    write_reports(run_study(cfg, workers=1), out1)
    write_reports(run_study(cfg, workers=8), out8)
    same = all((out1 / f.name).read_bytes() == (out8 / f.name).read_bytes()
               for f in sorted(out1.iterdir()))
    _report(14, "determinism", same, f"{len(list(out1.iterdir()))} files byte-identical")
