import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskreg as rr
from riskreg import cli, rules
from riskreg.bench import default_grid
from riskreg.errors import ConvergenceError, DegenerateDataError
from riskreg.rng import keyed_rng
from riskreg.tikhonov import SolutionPath, influence_measure


def _identity_setup(n=16, seed=1):
    dec = rr.svd(np.eye(n))
    g = keyed_rng(seed).standard_normal(n)
    return dec, g


class TestPro:
    def test_identity_analytic(self):
        dec, _ = _identity_setup()
        sel = rules.pro(dec, rho2=64.0, sigma2=1.0, n=16)
        assert sel.rule == "pro"
        assert sel.alpha == pytest.approx(0.25, abs=1e-8)
        assert sel.diagnostics["xi_hat"] == pytest.approx(
            10 * np.log10(64.0 / 16.0))

    def test_scale_equivariance(self, shaw64):
        _, dec = shaw64
        rho2, sigma2 = 7.3, 0.011
        a1 = rules.pro(dec, rho2, sigma2).alpha
        a2 = rules.pro(dec, 4.0 * rho2, 4.0 * sigma2).alpha
        assert a1 == a2

    def test_within_analytic_bounds(self, shaw64):
        _, dec = shaw64
        h = 1.0 / (64 * 10.0)     # 10 dB
        sel = rules.pro(dec, 1.0, h)
        lo, hi = rr.alpha_bounds(dec, h)
        assert lo * (1 - 1e-10) <= sel.alpha <= hi * (1 + 1e-10)

    def test_vanishing_noise_limit(self, shaw64):
        _, dec = shaw64
        alphas = [rules.pro(dec, 1.0, s2).alpha for s2 in (1e-4, 1e-6, 1e-8)]
        assert alphas[0] > alphas[1] > alphas[2]
        _, hi = rr.alpha_bounds(dec, 1e-8)
        assert alphas[2] <= hi * (1 + 1e-10)

    def test_grid_mode_matches_continuous(self, shaw64):
        _, dec = shaw64
        grid = default_grid(float(dec.s[0]) ** 2).values
        inf = rr.influence_path_exact(dec, grid)
        cont = rules.pro(dec, 1.0, 1e-3).alpha
        sel = rules.pro(inf, 1.0, 1e-3)
        k = sel.diagnostics["grid_index"]
        assert grid[max(k - 1, 0)] <= cont <= grid[min(k + 1, len(grid) - 1)]


class TestProEstimated:
    def test_estimator_arithmetic(self):
        dec = rr.svd(np.eye(4))
        g = np.array([2.0, 1.0, 1.0, 2.0])   # ||g||^2 = 10
        sel = rules.pro_estimated(dec, g, sigma2=1.0)
        assert sel.diagnostics["rho2_hat"] == pytest.approx(10.0 - 4.0)

    def test_unbiased_over_draws(self, shaw32):
        p, dec = shaw32
        sigma = rr.sigma_for_snr(p.g_true, 10.0)
        rho2 = float(p.g_true @ p.g_true)
        rng = keyed_rng(21)
        draws = 10_000
        eta = sigma * rng.standard_normal((draws, 32))
        g = p.g_true[None, :] + eta
        rho2_hat = np.sum(g * g, axis=1) - 32 * sigma ** 2
        se = rho2_hat.std(ddof=1) / np.sqrt(draws)
        assert abs(rho2_hat.mean() - rho2) <= 3.0 * se

    def test_pure_noise_is_degenerate(self):
        dec, _ = _identity_setup(4)
        g = np.array([1.0, 1.0, 1.0, 1.0])   # ||g||^2 = n sigma2
        with pytest.raises(DegenerateDataError):
            rules.pro_estimated(dec, g, sigma2=1.0)

    def test_degenerate_fallback_opt_in(self):
        dec, _ = _identity_setup(4)
        g = np.zeros(4)
        sel = rules.pro_estimated(dec, g, sigma2=1.0, on_degenerate="max_alpha")
        assert sel.alpha == pytest.approx(0.5)
        assert "fallback_max_alpha" in sel.diagnostics["flags"]

    @pytest.mark.parametrize("g", [np.array([2.0, 1.0, 1.0, 2.0]), np.zeros(4)],
                             ids=["good_data", "degenerate_data"])
    def test_unknown_on_degenerate_rejected_up_front(self, g):
        # the typo was ignored on good data and became a DegenerateDataError
        # (exit 3) on degenerate data
        dec, _ = _identity_setup(4)
        with pytest.raises(ValueError) as info:
            rules.pro_estimated(dec, g, sigma2=1.0, on_degenerate="max-alpha")
        assert type(info.value) is ValueError
        assert str(info.value) == \
            "on_degenerate must be 'raise' or 'max_alpha', got 'max-alpha'"

    def test_consistency_as_noise_vanishes(self, shaw64):
        p, dec = shaw64
        rho = np.linalg.norm(p.g_true)
        alphas = []
        for rel in (1e-2, 1e-3, 1e-4):
            sigma = rel * rho / np.sqrt(64)
            d_g = p.g_true + sigma * keyed_rng(31).standard_normal(64)
            sel = rules.pro_estimated(dec, d_g, sigma ** 2)
            assert sel.diagnostics["rho2_hat"] == pytest.approx(rho ** 2, rel=0.05)
            alphas.append(sel.alpha)
        assert alphas[0] > alphas[1] > alphas[2]


class TestIpro:
    def test_fixed_point_relation(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        sel = rules.ipro(dec, d.g)
        a = sel.alpha
        h_hat = sel.diagnostics["sigma2_hat"] / sel.diagnostics["rho2_hat"]
        s2 = dec.s ** 2
        lhs = a * s2[0] / (a + s2[0]) ** 3
        rhs = h_hat * np.sum(s2 ** 2 / (a + s2) ** 3)
        assert abs(lhs - rhs) <= 1e-6 * max(lhs, rhs)

    def test_monotone_trail(self, benchmarks64):
        for p, dec in benchmarks64:
            d = rr.add_noise(p, 10.0, seed=3, replicate=0)
            try:
                sel = rules.ipro(dec, d.g)
                trail = np.array(sel.diagnostics["trail"])
            except DegenerateDataError as exc:   # well-posed variants collapse
                trail = np.array(exc.trail)
            diffs = np.diff(trail)
            tol = 1e-10 * trail[1:]
            assert np.all(diffs <= tol) or np.all(diffs >= -tol)

    def test_scale_equivariance(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=5, replicate=0)
        a1 = rules.ipro(dec, d.g).alpha
        a2 = rules.ipro(dec, 2.0 * d.g).alpha
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_grid_mode_uses_path_residuals(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=7, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        inf = rr.influence_path_exact(dec, grid)
        path = rr.spectral_path(dec, d.g, grid)
        sel = rules.ipro(inf, d.g, path=path)
        cont = rules.ipro(dec, d.g).alpha
        k = sel.diagnostics["grid_index"]
        assert abs(np.log(sel.alpha) - np.log(cont)) <= 2 * np.log(grid[1] / grid[0])
        assert sel.alpha == grid[k]

    def test_zero_residual_is_degenerate(self):
        # a synthetic path whose residual vanishes at the starting grid point
        alphas = np.geomspace(1e-6, 1.0, 11)
        path = SolutionPath(alphas=alphas, residual_norms=np.zeros(11),
                            solution_norms=np.ones(11), data_size=8)
        dec = rr.svd(np.eye(8))
        grid_inf = rr.influence_path_exact(dec, alphas)
        with pytest.raises(DegenerateDataError):
            rules.ipro(grid_inf, np.ones(8), path=path)

    def test_matrix_free_residuals_via_operator(self, shaw32):
        p, dec = shaw32
        d = rr.add_noise(p, 10.0, seed=11, replicate=0)
        grid = np.geomspace(1e-8 * dec.s[0] ** 2, 0.5 * dec.s[0] ** 2, 60)
        inf = rr.influence_path_exact(dec, grid)
        sel = rules.ipro(inf, d.g, path=rr.iterative_path(p.A, d.g, grid))
        path = rr.spectral_path(dec, d.g, grid)
        ref = rules.ipro(inf, d.g, path=path)
        assert sel.alpha == pytest.approx(ref.alpha, rel=1e-8)


    def test_overflowed_default_start_is_degenerate(self):
        # shaw(16) scaled by 1e100: s1^2 ~ 9e200, so 1e-12 s1^2 * 0.5 s1^2 overflows
        p = rr.make_problem("shaw", None, 16)
        dec = rr.svd(p.A.to_dense() * 1e100)
        g = rr.add_noise(p, 20.0, seed=0).g * 1e100
        with pytest.raises(DegenerateDataError, match="default start"):
            rules.ipro(dec, g)
        # at 1e155, s1^2 itself is beyond the float range
        with np.errstate(over="ignore"), pytest.raises(DegenerateDataError,
                                                       match="default start"):
            rules.ipro(rr.svd(p.A.to_dense() * 1e155), g * 1e55)
        # a finite spectrum starts where it always did
        dec = rr.svd(p.A)
        s1_sq = float(dec.s[0]) ** 2
        trail = rules.ipro(dec, g / 1e100).diagnostics["trail"]
        assert trail[0] == np.sqrt((1e-12 * s1_sq) * (0.5 * s1_sq))

    def test_data_outside_the_range_exhausts_its_energy(self):
        # g orthogonal to the range of a rank-deficient operator: the residual
        # is all of ||g||^2 at every alpha, so no signal energy is left
        dec = rr.svd(np.diag([1.0, 0.5, 0.0]))
        with pytest.raises(DegenerateDataError, match="^residual exhausts the data energy$"):
            rules.ipro(dec, np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("grid_mode", [False, True])
    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_running_out_of_iterations(self, shaw32, max_iter, grid_mode):
        p, dec = shaw32
        d = rr.add_noise(p, 20.0, seed=0, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        source = rr.influence_path_exact(dec, grid) if grid_mode else dec
        path = rr.spectral_path(dec, d.g, grid) if grid_mode else None
        with pytest.raises(ConvergenceError) as info:
            rules.ipro(source, d.g, max_iter=max_iter, path=path)
        exc = info.value
        assert exc.iterations == max_iter and len(exc.trail) == max_iter + 1
        assert exc.last_iterate == exc.trail[-1]

    def test_grid_mode_selects_through_the_bound(self, shaw64):
        # each step is the grid argmin of the lower bound at the current estimates
        p, dec = shaw64
        d = rr.add_noise(p, 20.0, seed=4, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        inf = rr.influence_path_exact(dec, grid)
        path = rr.spectral_path(dec, d.g, grid)
        sel = rules.ipro(inf, d.g, path=path)
        r_sq = float(path.residual_norms[sel.diagnostics["grid_index"]]) ** 2
        g_sq = float(d.g @ d.g)
        values = rr.lower_bound_T(g_sq - r_sq, r_sq / 64, inf)
        assert sel.alpha == grid[len(values) - 1 - np.argmin(values[::-1])]


def _ipro_grid_loop(m, residual_norms, g_sq, n, start, max_iter=100):
    """ipro in grid mode one step at a time, the residual squared as a product:
    its outcome and its trail of grid indices."""
    idx, trail = start, [start]
    for _ in range(max_iter):
        r_sq = residual_norms[idx] * residual_norms[idx]
        sigma2, rho2 = r_sq / n, g_sq - r_sq
        if r_sq <= (rules.RESIDUAL_FLOOR ** 2) * g_sq or rho2 <= 0.0:
            return "degenerate", trail
        values = rho2 * m.sn_sq + sigma2 * m.frob_sq
        new = len(values) - 1 - int(np.argmin(values[::-1]))
        a, b = m.alphas[new], m.alphas[idx]
        idx = new
        trail.append(idx)
        if abs(a - b) <= 1e-16 * a + 4.0 * np.spacing(a):
            return "settled", trail
    return "no_convergence", trail


# (problem, n, xi, replicate, grid points, grid range in s1^2), one per outcome
_IPRO_CASES = [(("shaw", None), 64, 10.0, 0, 200, (1e-12, 0.5), "settled"),
               (("heat", 5), 16, 10.0, 0, 40, (1e-16, 10.0), "degenerate"),
               (("i_laplace", 1), 16, -10.0, 1, 1000, (1e-3, 1e3), "no_convergence")]


@pytest.mark.parametrize("problem,n,xi,rep,points,span,outcome", _IPRO_CASES)
def test_ipro_grid_mode_matches_step_loop(problem, n, xi, rep, points, span, outcome):
    p = rr.make_problem(*problem, n)
    dec = rr.svd(p.A)
    s1_sq = float(dec.s[0]) ** 2
    grid = np.geomspace(span[0] * s1_sq, span[1] * s1_sq, points)
    inf = rr.influence_path_exact(dec, grid)
    g = rr.add_noise(p, xi, seed=0, replicate=rep).g
    path = rr.spectral_path(dec, g, grid)
    ref, trail = _ipro_grid_loop(inf, path.residual_norms, float(g @ g), n, points // 2)
    assert ref == outcome
    if outcome == "settled":
        sel = rules.ipro(inf, g, path=path)
        assert sel.diagnostics["grid_index"] == trail[-1]
        got = sel.diagnostics["trail"]
    else:
        with pytest.raises(DegenerateDataError if outcome == "degenerate"
                           else ConvergenceError) as info:
            rules.ipro(inf, g, path=path)
        got = info.value.trail
    assert got == [grid[k] for k in trail]


@pytest.fixture(scope="module")
def tomo16():
    """paralleltomo 16x16 with the tomo_mf benchmark's seeds: the operator,
    its grid, lam1, a complete 16-probe measure and replicates 0-3 at 10, 20
    and 40 dB with their paths."""
    p = rr.make_problem("paralleltomo", None, 16)
    lam1 = rr.largest_eigenvalue(p.A, seed=3)
    grid = rr.matrix_free_grid(lam1).values
    complete = rr.influence_path_stochastic(p.A, grid, probes=16, seed=5, lam1=lam1)
    complete.nodes
    data = {(xi, rep): rr.add_noise(p, xi, 1, rep)
            for xi in (10.0, 20.0, 40.0) for rep in range(4)}
    paths = {key: rr.iterative_path(p.A, d.g, grid) for key, d in data.items()}
    return SimpleNamespace(A=p.A, grid=grid, lam1=lam1, complete=complete, data=data,
                           paths=paths)


class TestCertifiedSelection:
    """Grid-mode pro and ipro on a probe measure whose run stops once their
    argmin is certified select as on the complete measure."""

    def _measure(self, t):
        return rr.influence_path_stochastic(t.A, t.grid, probes=16, seed=5, lam1=t.lam1)

    @pytest.mark.parametrize("xi", [10.0, 20.0, 40.0])
    def test_single_path(self, tomo16, xi):
        full = int(tomo16.complete.iterations.max())
        for rep in range(4):
            d, path = tomo16.data[xi, rep], tomo16.paths[xi, rep]
            for select in (lambda m: rules.pro_estimated(m, d.g, d.sigma ** 2),
                           lambda m: rules.ipro(m, d.g, path=path)):
                m = self._measure(tomo16)
                got, ref = select(m), select(tomo16.complete)
                assert got.to_json() == ref.to_json()
                assert got.diagnostics["grid_index"] == ref.diagnostics["grid_index"]
                # certified short of the full depth, which a complete measure reports
                depth = got.diagnostics["probe_depth"]
                assert depth == m.probe_depth < full and m.bounds() is not None
                assert ref.diagnostics["probe_depth"] == full
                if xi < 40:
                    assert depth == 10

    @pytest.mark.parametrize("xi", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("rule", ["pro", "ipro"])
    def test_block(self, tomo16, xi, rule):
        keys = [(xi, rep) for rep in range(4)]
        norms = [np.stack([getattr(tomo16.paths[k], name) for k in keys])
                 for name in ("residual_norms", "solution_norms")]
        g_sq = np.array([tomo16.data[k].g @ tomo16.data[k].g for k in keys])
        sigma = tomo16.data[keys[0]].sigma

        def block(m):
            return rules.RULES[rule](rules.PathBlock(m, *norms, tomo16.A.rows, g_sq, sigma,
                                                     sigma ** 2))
        m = self._measure(tomo16)
        (idx, masks), (ref_idx, ref_masks) = block(m), block(tomo16.complete)
        assert np.array_equal(idx, ref_idx) and m.bounds() is not None
        assert masks.keys() == ref_masks.keys()
        assert all(np.array_equal(masks[k], ref_masks[k]) for k in masks)

    def test_exact_measure_reports_no_probe_depth(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 20.0, seed=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        m = rr.influence_path_exact(dec, grid)
        assert m.bounds() is None and m.probe_depth is None
        assert rules.pro_estimated(m, d.g, d.sigma ** 2).diagnostics["probe_depth"] is None
        sel = rules.ipro(m, d.g, path=rr.spectral_path(dec, d.g, grid))
        assert sel.diagnostics["probe_depth"] is None


class TestInfluenceOnPathGrid:
    """upre, gcv and bp read the source's measure on the grid of their path."""

    def test_other_grid_is_evaluated_from_the_measure(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        coarse = rr.influence_path_exact(dec, grid[::3])
        for fn in (lambda src: rules.upre(path, src, d.sigma ** 2),
                   lambda src: rules.gcv(path, src),
                   lambda src: rules.bp(path, d.sigma, src)):
            assert fn(coarse).alpha == fn(dec).alpha
        on_path = influence_measure(coarse, path.alphas)
        assert on_path.alphas is path.alphas
        assert np.array_equal(on_path.trace, rr.influence_path_exact(dec, grid).trace)

    def test_equal_grid_gives_the_samples(self, shaw64_stochastic_battery):
        bat = shaw64_stochastic_battery
        inf = bat["paths"][0]
        got = influence_measure(inf, bat["grid"].copy())
        for field in ("sn_sq", "frob_sq", "trace", "noise_amp"):
            assert np.array_equal(getattr(got, field), getattr(inf, field))
        assert influence_measure(inf, inf.alphas) is inf


class TestDp:
    def test_identity_closed_form(self):
        n = 16
        dec, g = _identity_setup(n, seed=5)
        g = 3.0 * g
        sigma = 0.15
        grid = np.geomspace(1e-8, 50.0, 300)
        path = rr.spectral_path(dec, g, grid)
        sel = rules.dp(path, sigma)
        closed = np.sqrt(n) * sigma / (np.linalg.norm(g) - np.sqrt(n) * sigma)
        assert sel.alpha == pytest.approx(closed, rel=1e-6)

    def test_zero_sigma_flags_grid_min(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 20.0, seed=1, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        sel = rules.dp(path, 0.0)
        assert sel.alpha == grid[0]
        assert "at_grid_min" in sel.diagnostics["flags"]

    def test_unreachable_target_saturates(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 20.0, seed=1, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        sel = rules.dp(path, sigma=10 * np.linalg.norm(d.g))
        assert sel.alpha == grid[-1]
        assert "saturated_max" in sel.diagnostics["flags"]

    def test_residual_matches_target(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 20.0, seed=2, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        sel = rules.dp(path, d.sigma)
        resid = rr.solve_spectral(dec, d.g, sel.alpha).residual_norm
        assert resid == pytest.approx(np.sqrt(64) * d.sigma, rel=1e-4)


class TestUpre:
    def test_constant_shift_invariance(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        inf = rr.influence_path_exact(dec, grid)
        sigma2 = d.sigma ** 2
        base = path.residual_norms ** 2 - 2 * sigma2 * (64 - inf.trace)
        shifted = path.residual_norms ** 2 + 2 * sigma2 * inf.trace
        assert np.argmin(base) == np.argmin(shifted)
        assert rules.upre(path, inf, sigma2).diagnostics["grid_index"] == \
            int(np.argmin(base))

    def test_brute_force_small_dense(self):
        rng = keyed_rng(41)
        n = 6
        A = rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        sigma2 = 0.04
        grid = np.geomspace(1e-6, 10.0, 40)
        dec = rr.svd(A)
        path = rr.spectral_path(dec, g, grid)
        sel = rules.upre(path, dec, sigma2)
        brute = []
        for alpha in grid:
            X = A @ np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T)
            f = np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T @ g)
            brute.append(np.sum((A @ f - g) ** 2) - 2 * sigma2 * np.trace(np.eye(n) - X))
        assert sel.diagnostics["grid_index"] == int(np.argmin(brute))

    def test_stochastic_trace_agrees(self, shaw64_stochastic_battery):
        bat = shaw64_stochastic_battery
        p, dec, grid = bat["problem"], bat["dec"], bat["grid"]
        inf_exact = rr.influence_path_exact(dec, grid)
        sigma = rr.sigma_for_snr(p.g_true, 10.0)
        hits = 0
        for rep, inf_s in enumerate(bat["paths"]):
            d = rr.add_noise(p, 10.0, seed=21, replicate=rep)
            path = rr.spectral_path(dec, d.g, grid)
            i_e = rules.upre(path, inf_exact, sigma ** 2).diagnostics["grid_index"]
            i_s = rules.upre(path, inf_s, sigma ** 2).diagnostics["grid_index"]
            hits += abs(i_e - i_s) <= 1
        assert hits >= 45   # >= 90% of 50


class TestGcv:
    def test_scale_invariance(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=9, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        inf = rr.influence_path_exact(dec, grid)
        p1 = rr.spectral_path(dec, d.g, grid)
        p2 = rr.spectral_path(dec, 5.0 * d.g, grid)
        assert rules.gcv(p1, inf).alpha == rules.gcv(p2, inf).alpha

    def test_brute_force_small_dense(self):
        rng = keyed_rng(43)
        n = 6
        A = rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        grid = np.geomspace(1e-6, 10.0, 40)
        dec = rr.svd(A)
        path = rr.spectral_path(dec, g, grid)
        sel = rules.gcv(path, dec)
        brute = []
        for alpha in grid:
            f = np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T @ g)
            X = A @ np.linalg.solve(A.T @ A + alpha * np.eye(n), A.T)
            brute.append(np.sum((A @ f - g) ** 2) / np.trace(np.eye(n) - X) ** 2)
        assert sel.diagnostics["grid_index"] == int(np.argmin(brute))


class TestBp:
    def test_zero_sigma_degenerates_to_grid_min(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=13, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        sel = rules.bp(path, 0.0, dec)
        assert "at_grid_min" in sel.diagnostics["flags"]
        assert sel.alpha == grid[sel.diagnostics["subgrid"][0]]

    def test_admissible_segment_is_contiguous(self, benchmarks64):
        for p, dec in benchmarks64:
            d = rr.add_noise(p, 10.0, seed=13, replicate=0)
            grid = default_grid(float(dec.s[0]) ** 2).values
            path = rr.spectral_path(dec, d.g, grid)
            sel = rules.bp(path, d.sigma, dec)
            sub = sel.diagnostics["subgrid"]
            namp = rr.influence_path_exact(dec, grid).noise_amp
            chosen = sel.diagnostics["grid_index"]
            pos = int(np.nonzero(sub == chosen)[0][0])
            # every subgrid point below the choice satisfies the comparisons too
            for q in range(pos + 1):
                j = sub[q]
                for q2 in range(q):
                    b = sub[q2]
                    gap = np.linalg.norm(path.solutions[j] - path.solutions[b])
                    assert gap <= 1.5 * d.sigma * np.sqrt(namp[b]) * (1 + 1e-12)

    def test_matches_brute_force(self, benchmarks64):
        def brute(path, sigma, namp, gamma, c):
            ratio = path.alphas[1] / path.alphas[0]
            step = max(1, int(round(np.log(1.0 / gamma) / np.log(ratio))))
            sub = np.arange(len(path) - 1, -1, -step)[::-1]
            F = path.solutions
            ok = [all(np.linalg.norm(F[sub[q]] - F[sub[q2]]) <= c * sigma * np.sqrt(namp[sub[q2]])
                      for q2 in range(q)) for q in range(sub.size)]
            return int(sub[ok.index(False) - 1]) if False in ok else int(sub[-1])

        for (p, dec), gamma, c in zip(benchmarks64, (0.25, 0.1, 0.5, 0.25, 0.4, 0.2, 0.25),
                                      (1.5, 1.0, 3.0, 0.5, 1.5, 8.0, 0.01)):
            d = rr.add_noise(p, 20.0, seed=17, replicate=1)
            grid = default_grid(float(dec.s[0]) ** 2, points=60).values
            path = rr.spectral_path(dec, d.g, grid)
            sel = rules.bp(path, d.sigma, dec, gamma=gamma, c=c)
            namp = rr.influence_path_exact(dec, grid).noise_amp
            assert sel.diagnostics["grid_index"] == brute(path, d.sigma, namp, gamma, c)

    def test_equal_solutions_meet_zero_thresholds(self):
        # a distance equal to its threshold is no violation
        path = SolutionPath(alphas=np.geomspace(0.1, 1, 9), residual_norms=np.ones(9),
                            solution_norms=np.ones(9), data_size=4,
                            solutions=np.ones((9, 4)))
        sel = rules.bp(path, 0.0, rr.svd(np.eye(4)), gamma=0.9)
        assert sel.diagnostics["grid_index"] == 8 and sel.diagnostics["flags"] == []

    def test_needs_solutions(self):
        path = SolutionPath(alphas=np.geomspace(0.1, 1, 5),
                            residual_norms=np.linspace(1, 2, 5),
                            solution_norms=np.ones(5), data_size=4)
        with pytest.raises(ValueError):
            rules.bp(path, 1.0, rr.svd(np.eye(4)))


def _bp_loop(path, sigma, namp, gamma, c):
    """The balancing test one subgrid row at a time, as a per-row norm loop."""
    ratio = path.alphas[1] / path.alphas[0] if len(path) > 1 else np.e
    step = max(1, int(round(np.log(1.0 / gamma) / np.log(ratio))))
    sub = np.arange(len(path) - 1, -1, -step)[::-1]
    thresholds = c * sigma * np.sqrt(namp[sub])
    F = path.solutions[sub]
    chosen = sub[0]
    for pos in range(1, sub.size):
        if np.any(np.linalg.norm(F[:pos] - F[pos], axis=1) > thresholds[:pos]):
            break
        chosen = sub[pos]
    return int(chosen)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), points=st.integers(3, 80), n=st.integers(1, 12),
       log_gamma=st.floats(-12.0, -1e-9), c=st.floats(0.1, 6.0),
       sigma=st.floats(1e-3, 2.0), level=st.floats(1e-3, 3.0),
       block=st.sampled_from([1, 5, 64, rules._BP_BLOCK_ELEMENTS]), rows=st.integers(1, 4))
@example(seed=1, points=60, n=8, log_gamma=-1e-3, c=1.5, sigma=0.3, level=0.3, block=40,
         rows=1)  # step 1
@example(seed=2, points=60, n=8, log_gamma=-690.0, c=1.5, sigma=0.3, level=0.3, block=40,
         rows=1)  # one point
@example(seed=3, points=1, n=3, log_gamma=-1.4, c=1.5, sigma=0.3, level=0.3, block=1,
         rows=1)  # one alpha
@example(seed=4, points=60, n=8, log_gamma=-0.5, c=0.0, sigma=0.0, level=0.3, block=40,
         rows=1)  # c, sigma 0
@example(seed=5, points=60, n=8, log_gamma=np.log(0.999), c=1.5, sigma=0.3, level=0.3,
         block=1, rows=3)  # step 1 on a stack, one pair a block
@example(seed=6, points=40, n=5, log_gamma=np.log(0.999), c=1.5, sigma=0.3, level=1.0,
         block=17, rows=4)  # step 1 on a stack, blocks cutting across positions
def test_bp_blocks_match_row_loop(seed, points, n, log_gamma, c, sigma, level, block, rows):
    """Blocks of pairwise subgrid distances pick what the row-by-row loop
    picks, to the bit, however small the block, for one path and for each
    row of a stack of paths."""
    gamma = np.exp(log_gamma)
    rng = keyed_rng(seed)
    A = rng.standard_normal((n + 2, n)) * np.geomspace(1.0, 1e-4, n)
    dec = rr.svd(A)
    g = A @ rng.standard_normal(n) + rng.standard_normal(n + 2)
    grid = np.geomspace(1e-8, 1.0, points) * float(dec.s[0]) ** 2
    path = rr.spectral_path(dec, g, grid)
    # thresholds around `level` times the path's overall spread
    spread = np.linalg.norm(path.solutions[-1] - path.solutions[0])
    namp = (level * spread / max(c * sigma, 1e-3)) ** 2 * rng.uniform(0.1, 1.0, points)
    # the stack: this path, then paths of other data at the same noise level
    paths = [path] + [rr.spectral_path(dec, A @ rng.standard_normal(n)
                                       + rng.standard_normal(n + 2), grid)
                      for _ in range(rows - 1)]
    source = rr.influence_path_exact(dec, path.alphas)
    source.noise_amp = namp  # bp reads only the noise samples on the path's grid
    with mock.patch.object(rules, "_BP_BLOCK_ELEMENTS", block):
        sel = rules.bp(path, sigma, source, gamma=gamma, c=c)
        stacked, masks, sub = rules._bp_rows(path.alphas,
                                             np.stack([p.solutions for p in paths]), sigma,
                                             namp, gamma, c)
    chosen = _bp_loop(path, sigma, namp, gamma, c)
    assert sel.diagnostics["grid_index"] == chosen
    assert sel.alpha == float(path.alphas[chosen])
    at_min = chosen == sel.diagnostics["subgrid"][0]
    assert ("at_grid_min" in sel.diagnostics["flags"]) == at_min
    assert stacked.tolist() == [_bp_loop(p, sigma, namp, gamma, c) for p in paths]
    assert masks["at_grid_min"].tolist() == [i == sub[0] for i in stacked.tolist()]
    assert np.array_equal(sub, sel.diagnostics["subgrid"])


class TestLc:
    def test_gradient_helper_is_np_gradient(self):
        rng = keyed_rng(8)
        for K in (2, 3, 5, 17, 200):
            f = rng.standard_normal((2, K)) * rng.uniform(1e-3, 1e3, (2, 1))
            dt = rng.uniform(1e-3, 2.0)
            got = rules._gradient(f, dt)
            for row in range(2):
                assert np.all(got[row] == np.gradient(f[row], dt))
            assert np.all(rules._gradient(f[0], dt) == np.gradient(f[0], dt))

    def _synthetic_L(self, corner, K=101):
        t = np.linspace(np.log(1e-10), np.log(1.0), K)
        x = np.where(np.arange(K) <= corner, -9.0, -9.0 + 2.0 * (t - t[corner]))
        y = np.where(np.arange(K) <= corner, 5.0 - 3.0 * (t - t[corner]), 5.0)
        return SolutionPath(alphas=np.exp(t), residual_norms=np.exp(x),
                            solution_norms=np.exp(y), data_size=64)

    def test_recovers_synthetic_corner(self):
        sel = rules.lc(self._synthetic_L(60))
        assert abs(sel.diagnostics["grid_index"] - 60) <= 1

    def test_boundary_corner_is_flagged(self):
        sel = rules.lc(self._synthetic_L(99))
        assert "curvature_at_boundary" in sel.diagnostics["flags"]

    def test_pure_noise_avoids_under_smoothing(self, shaw64):
        _, dec = shaw64
        g_noise = 0.5 * keyed_rng(3).standard_normal(64)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, g_noise, grid)
        sel = rules.lc(path)
        k = sel.diagnostics["grid_index"]
        assert k >= len(grid) // 4 or "curvature_at_boundary" in sel.diagnostics["flags"]


class TestQoc:
    def test_tie_breaks_to_largest_alpha(self):
        F = np.ones((20, 8))
        path = SolutionPath(alphas=np.geomspace(1e-6, 1.0, 20),
                            residual_norms=np.linspace(0.1, 1.0, 20),
                            solution_norms=np.ones(20), data_size=8, solutions=F)
        sel = rules.qoc(path)
        assert sel.diagnostics["grid_index"] == 18

    def test_brute_force_small_dense(self):
        rng = keyed_rng(47)
        n = 6
        A = rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        grid = np.geomspace(1e-6, 10.0, 30)
        dec = rr.svd(A)
        path = rr.spectral_path(dec, g, grid)
        diffs = [np.linalg.norm(
            np.linalg.solve(A.T @ A + grid[i + 1] * np.eye(n), A.T @ g)
            - np.linalg.solve(A.T @ A + grid[i] * np.eye(n), A.T @ g))
            for i in range(len(grid) - 1)]
        assert rules.qoc(path).diagnostics["grid_index"] == int(np.argmin(diffs))


class TestSelectionInterface:
    def test_json_schema(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        sel = rules.ipro(dec, d.g)
        payload = json.loads(sel.to_json())
        for key in ("rule", "alpha", "xi_hat", "rho2_hat", "sigma2_hat",
                    "iterations", "flags", "trail"):
            assert key in payload
        assert payload["rule"] == "ipro"

    def test_rules_deterministic(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        inf = rr.influence_path_exact(dec, grid)
        for fn in (lambda: rules.dp(path, d.sigma), lambda: rules.lc(path),
                   lambda: rules.qoc(path), lambda: rules.gcv(path, inf)):
            assert fn().alpha == fn().alpha

    def test_registry_matches_direct_calls(self, shaw64):
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        path = rr.spectral_path(dec, d.g, grid)
        inf = rr.influence_path_exact(dec, grid)
        sigma2 = d.sigma ** 2
        direct = {
            "pro": rules.pro_estimated(inf, d.g, sigma2),
            "ipro": rules.ipro(inf, d.g, path=path),
            "dp": rules.dp(path, d.sigma),
            "upre": rules.upre(path, inf, sigma2),
            "bp": rules.bp(path, d.sigma, inf, gamma=0.5, c=2.0),
            "gcv": rules.gcv(path, inf),
            "lc": rules.lc(path),
            "qoc": rules.qoc(path),
        }
        assert rules.RULE_NAMES == tuple(direct)
        # grid mode, as select runs matrix-free: the measure and path on one grid
        setup = SimpleNamespace(source=inf, matrix_free=True, path=lambda g, keep: path)
        args = SimpleNamespace(rho2=None, alpha_init=None, bp_gamma=0.5, bp_c=2.0)
        for name, sel in direct.items():
            got = cli._SELECT[name][1](setup, d.g, d.sigma, sigma2, args)
            assert got.alpha == sel.alpha, name
            # grid mode: the selection is the grid point it reports, but for
            # dp's bisection between two grid points
            if name != "dp":
                assert got.alpha == grid[got.diagnostics["grid_index"]], name
            assert got.diagnostics["flags"] == sel.diagnostics["flags"], name
        # on a spectrum, pro and ipro select without a sampled path
        readers = set()
        for name, (_, select) in cli._SELECT.items():
            dense = SimpleNamespace(source=dec, matrix_free=False,
                                    path=lambda g, keep, name=name: readers.add(name) or path)
            select(dense, d.g, d.sigma, sigma2, args)
        assert set(cli._SELECT) - readers == {"pro", "ipro"}
        assert {n: noise for n, (noise, _) in cli._SELECT.items() if noise} == \
            {"pro": "sigma2", "dp": "sigma", "upre": "sigma2", "bp": "sigma"}

    def test_only_rules_that_need_solutions_read_them(self, shaw64):
        # select forms a dense path's solutions only for the rules of NEEDS_SOLUTIONS
        p, dec = shaw64
        d = rr.add_noise(p, 10.0, seed=3, replicate=0)
        grid = default_grid(float(dec.s[0]) ** 2).values
        inf = rr.influence_path_exact(dec, grid)
        full, bare = (rr.spectral_path(dec, d.g, grid, keep_solutions=keep)
                      for keep in (True, False))
        args = SimpleNamespace(rho2=None, alpha_init=None, bp_gamma=0.25, bp_c=1.5)
        for name, (_, select) in cli._SELECT.items():
            asked = []
            setups = [SimpleNamespace(source=inf, matrix_free=True,
                                      path=lambda g, keep, path=path: asked.append(keep) or path)
                      for path in (full, bare)]
            if name in rules.NEEDS_SOLUTIONS:
                with pytest.raises(ValueError, match="needs the solutions"):
                    select(setups[1], d.g, d.sigma, d.sigma ** 2, args)
            else:
                assert select(setups[1], d.g, d.sigma, d.sigma ** 2, args).alpha == \
                    select(setups[0], d.g, d.sigma, d.sigma ** 2, args).alpha, name
            assert set(asked) <= {name in rules.NEEDS_SOLUTIONS}, name
        assert rules.NEEDS_SOLUTIONS == {"bp", "qoc"}


_NAN, _INF = float("nan"), float("inf")
# each call gets (dec, path, g) of shaw(32) on its default grid
_NONFINITE_CALLS = {
    "dp_sigma_nan": lambda dec, path, g: rules.dp(path, _NAN),
    "dp_sigma_inf": lambda dec, path, g: rules.dp(path, _INF),
    "upre_sigma2_nan": lambda dec, path, g: rules.upre(path, dec, _NAN),
    "bp_sigma_nan": lambda dec, path, g: rules.bp(path, _NAN, dec),
    "bp_c_nan": lambda dec, path, g: rules.bp(path, 0.01, dec, c=_NAN),
    "pro_rho2_nan": lambda dec, path, g: rules.pro(dec, _NAN, 1e-4),
    "pro_sigma2_nan": lambda dec, path, g: rules.pro(dec, 1.0, _NAN),
    "pro_estimated_sigma2_nan": lambda dec, path, g: rules.pro_estimated(dec, g, _NAN),
    "lower_bound_T_rho2_nan": lambda dec, path, g: rr.lower_bound_T(_NAN, 1e-4, dec, 1e-3),
    "minimize_T_h_nan": lambda dec, path, g: rr.minimize_T(dec, _NAN),
    "ipro_alpha_init_nan": lambda dec, path, g: rules.ipro(dec, g, alpha_init=_NAN),
}


@pytest.fixture()
def shaw32_inputs(shaw32):
    """(dec, path, g) of shaw(32) on its default grid."""
    p, dec = shaw32
    g = rr.add_noise(p, 20.0, seed=1, replicate=0).g
    return dec, rr.spectral_path(dec, g, default_grid(float(dec.s[0]) ** 2).values), g


@pytest.mark.parametrize("call", list(_NONFINITE_CALLS.values()), ids=list(_NONFINITE_CALLS))
def test_nonfinite_arguments_rejected(shaw32_inputs, call):
    with pytest.raises(ValueError):
        call(*shaw32_inputs)


# each call gets (dec, path, g) as above and raises a ValueError with its message
_ILL_FORMED_CALLS = {
    "ipro_grid_mode_without_path": (
        lambda dec, path, g: rules.ipro(rr.influence_path_exact(dec, path.alphas), g),
        "grid mode needs a solution path"),
    "ipro_measure_without_grid": (
        lambda dec, path, g: rules.ipro(rr.influence_path_exact(dec, []), g),
        "ipro needs a spectrum or an influence path on a grid"),
    "ipro_path_on_other_grid": (
        lambda dec, path, g: rules.ipro(rr.influence_path_exact(dec, path.alphas), g,
                                        path=rr.spectral_path(dec, g, path.alphas[::2])),
        "influence path and solution path use different grids"),
    "lc_four_points": (lambda dec, path, g: rules.lc(rr.spectral_path(dec, g, path.alphas[:4])),
                       "lc needs at least five grid points"),
    "qoc_without_solutions": (
        lambda dec, path, g: rules.qoc(rr.spectral_path(dec, g, path.alphas,
                                                        keep_solutions=False)),
        "qoc needs the solutions"),
    "qoc_one_point": (lambda dec, path, g: rules.qoc(rr.spectral_path(dec, g, path.alphas[:1])),
                      "qoc needs at least two grid points"),
    "lower_bound_T_spectrum_without_alpha": (
        lambda dec, path, g: rr.lower_bound_T(1.0, 1e-4, dec), "alpha is required"),
    "ipro_max_iter_negative": (lambda dec, path, g: rules.ipro(dec, g, max_iter=-3),
                               "max_iter must be an integer >= 0, got -3"),
    "ipro_max_iter_bool": (lambda dec, path, g: rules.ipro(dec, g, max_iter=True),
                           "max_iter must be an integer >= 0, got True"),
    "ipro_max_iter_float": (lambda dec, path, g: rules.ipro(dec, g, max_iter=2.5),
                            "max_iter must be an integer >= 0, got 2.5"),
    "minimize_T_zero_measure": (
        lambda dec, path, g: rr.minimize_T(rr.svd(np.zeros((4, 3))), 1e-4),
        "cannot minimize over a zero operator"),
    # pro's n was read by snr_db as it came: 2.5 and True gave an xi_hat, and
    # snr_db's n of 0 a ZeroDivisionError
    **{f"pro_n_{n!r}": (lambda dec, path, g, n=n: rules.pro(dec, 1.0, 0.01, n=n),
                        f"n must be an integer >= 1, got {n!r}") for n in (2.5, True, 0)},
    "snr_db_n_zero": (lambda dec, path, g: rr.snr_db(1.0, 0.1, 0),
                      "n must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("call,message", list(_ILL_FORMED_CALLS.values()),
                         ids=list(_ILL_FORMED_CALLS))
def test_ill_formed_arguments_rejected(shaw32_inputs, call, message):
    with pytest.raises(ValueError, match=message):
        call(*shaw32_inputs)


# each call gets shaw(32) at 20 dB, its (path, influence path) on a grid that is
# not strictly increasing, and its noisy data
_GRID_ORDER_CALLS = {
    "pro": lambda path, inf, d: rules.pro(inf, float(d.g @ d.g), d.sigma ** 2),
    "pro_estimated_fallback": lambda path, inf, d: rules.pro_estimated(
        inf, np.zeros_like(d.g), d.sigma ** 2, on_degenerate="max_alpha"),
    "ipro": lambda path, inf, d: rules.ipro(inf, d.g, path=path),
    "dp": lambda path, inf, d: rules.dp(path, d.sigma),
    "bp": lambda path, inf, d: rules.bp(path, d.sigma, inf),
    "lc": lambda path, inf, d: rules.lc(path),
    "qoc": lambda path, inf, d: rules.qoc(path),
}


@pytest.mark.parametrize("order", ["reversed", "repeated_point"])
@pytest.mark.parametrize("call", list(_GRID_ORDER_CALLS.values()), ids=list(_GRID_ORDER_CALLS))
def test_rules_that_read_grid_order_reject_an_unsorted_grid(shaw32, call, order):
    # on the reversed grid dp and bp returned its largest alpha flagged at_grid_min
    p, dec = shaw32
    d = rr.add_noise(p, 20.0, seed=0, replicate=0)
    grid = default_grid(float(dec.s[0]) ** 2).values
    grid = grid[::-1] if order == "reversed" else np.insert(grid, 100, grid[100])
    path, inf = rr.spectral_path(dec, d.g, grid), rr.influence_path_exact(dec, grid)
    with pytest.raises(ValueError, match="grid of alphas must be strictly increasing"):
        call(path, inf, d)
