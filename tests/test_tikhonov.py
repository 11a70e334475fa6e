import numpy as np
import pytest

import riskreg as rr
from riskreg.rng import keyed_rng


class TestSolveSpectral:
    def test_identity_half_filter(self):
        dec = rr.svd(np.eye(6))
        g = keyed_rng(1).standard_normal(6)
        sol = rr.solve_spectral(dec, g, 1.0)
        np.testing.assert_allclose(sol.f_alpha, g / 2.0)

    def test_pseudoinverse_limit(self):
        rng = keyed_rng(2)
        A = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        g = rng.standard_normal(5)
        sol = rr.solve_spectral(rr.svd(A), g, 0.0)
        np.testing.assert_allclose(sol.f_alpha, np.linalg.solve(A, g), rtol=1e-8)

    def test_matches_normal_equations(self):
        p = rr.make_problem("shaw", None, 16)
        dec = rr.svd(p.A)
        g = p.g_true + 0.01 * keyed_rng(3).standard_normal(16)
        alpha = 1e-3
        f_ref = np.linalg.solve(p.A.to_dense().T @ p.A.to_dense() + alpha * np.eye(16),
                                p.A.apply_adjoint(g))
        sol = rr.solve_spectral(dec, g, alpha)
        np.testing.assert_allclose(sol.f_alpha, f_ref, rtol=1e-8)

    def test_residual_recomputes(self, shaw32):
        p, dec = shaw32
        g = p.g_true + 0.05 * keyed_rng(4).standard_normal(32)
        sol = rr.solve_spectral(dec, g, 1e-2)
        recomputed = np.linalg.norm(p.A.apply(sol.f_alpha) - g)
        assert sol.residual_norm == pytest.approx(recomputed, rel=1e-8)


class TestSolveIterative:
    def test_identity(self):
        g = keyed_rng(5).standard_normal(7)
        sol = rr.solve_iterative(np.eye(7), g, 1.0)
        np.testing.assert_allclose(sol.f_alpha, g / 2.0, rtol=1e-7)

    def test_matches_spectral(self, shaw32):
        p, dec = shaw32
        g = p.g_true + 0.03 * keyed_rng(6).standard_normal(32)
        for alpha in (1e-4, 1e-2):
            f_it = rr.solve_iterative(p.A, g, alpha, tol=1e-10).f_alpha
            f_sp = rr.solve_spectral(dec, g, alpha).f_alpha
            assert np.linalg.norm(f_it - f_sp) / np.linalg.norm(f_sp) <= 1e-6

    def test_large_alpha_shrinks_to_zero(self, shaw32):
        p, dec = shaw32
        g = p.g_true
        alpha = 1e8 * float(dec.s[0]) ** 2
        sol = rr.solve_iterative(p.A, g, alpha)
        assert np.linalg.norm(sol.f_alpha) <= 1e-6 * np.linalg.norm(g) / dec.s[0]

    def test_warm_start_agrees(self, shaw32):
        p, dec = shaw32
        g = p.g_true + 0.03 * keyed_rng(8).standard_normal(32)
        cold = rr.solve_iterative(p.A, g, 1e-3, tol=1e-10).f_alpha
        near = rr.solve_iterative(p.A, g, 2e-3, tol=1e-10).f_alpha
        warm = rr.solve_iterative(p.A, g, 1e-3, tol=1e-10, x0=near).f_alpha
        assert np.linalg.norm(warm - cold) / np.linalg.norm(cold) <= 1e-6

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            rr.solve_iterative(np.eye(3), np.ones(3), 0.0)


class TestInfluenceExact:
    def test_diag_case(self):
        dec = rr.svd(np.diag([2.0, 1.0]))
        inf = rr.influence_path_exact(dec, [2.0])
        assert inf.sn_sq[0] == pytest.approx(1.0 / 9.0)
        assert inf.frob_sq[0] == pytest.approx((2.0 / 3.0) ** 2 + (1.0 / 3.0) ** 2)
        assert inf.trace[0] == pytest.approx(1.0)

    def test_alpha_zero_full_rank(self):
        dec = rr.svd(np.diag([3.0, 2.0, 1.0]))
        inf = rr.influence_path_exact(dec, [0.0])
        assert inf.sn_sq[0] == 0.0
        assert inf.trace[0] == pytest.approx(3.0)
        with pytest.raises(ValueError):
            rr.influence_path_exact(dec, [-1.0])

    def test_identity_case(self):
        dec = rr.svd(np.eye(8))
        inf = rr.influence_path_exact(dec, [1.0])
        assert inf.sn_sq[0] == pytest.approx(0.25)
        assert inf.frob_sq[0] == pytest.approx(2.0)
        assert inf.trace[0] == pytest.approx(4.0)

    def test_filter_values_in_unit_interval(self, benchmarks64):
        for p, dec in benchmarks64:
            s2 = dec.s ** 2
            for alpha in (1e-8 * s2[0], 1e-2 * s2[0], s2[0]):
                x = s2 / (s2 + alpha)
                assert np.all(x > 0) and np.all(x < 1)


class TestInfluenceStochastic:
    def test_identity_sn_exact(self):
        inf = rr.influence_path_stochastic(np.eye(8), [1.0], probes=4, seed=0)
        assert inf.sn_sq[0] == pytest.approx(0.25, rel=1e-8)
        assert inf.source == "stochastic"

    def test_matches_exact_on_shaw(self, shaw64):
        p, dec = shaw64
        alpha = [1e-2 * float(dec.s[0]) ** 2]
        inf_s = rr.influence_path_stochastic(p.A, alpha, probes=200, seed=0)
        inf_e = rr.influence_path_exact(dec, alpha)
        assert inf_s.sn_sq[0] == pytest.approx(inf_e.sn_sq[0], rel=1e-6)
        assert inf_s.frob_sq[0] == pytest.approx(inf_e.frob_sq[0], rel=0.05)


class TestPaths:
    def test_residual_monotone_and_data_norm_monotone(self, benchmarks64):
        for p, dec in benchmarks64:
            data = rr.add_noise(p, 10.0, seed=1, replicate=0)
            grid = np.geomspace(1e-12 * dec.s[0] ** 2, 0.5 * dec.s[0] ** 2, 50)
            path = rr.spectral_path(dec, data.g, grid)
            r = path.residual_norms
            assert np.all(np.diff(r) >= -1e-10 * r[1:])
            fitted = data.g @ data.g - r ** 2
            assert np.all(np.diff(fitted) <= 1e-10 * np.abs(fitted[1:]) + 1e-12)

    def test_spectral_path_matches_pointwise(self, shaw32):
        p, dec = shaw32
        g = p.g_true + 0.02 * keyed_rng(9).standard_normal(32)
        grid = np.geomspace(1e-6, 1.0, 7)
        path = rr.spectral_path(dec, g, grid)
        for k, alpha in enumerate(grid):
            sol = rr.solve_spectral(dec, g, alpha)
            np.testing.assert_allclose(path.solutions[k], sol.f_alpha, rtol=1e-10)
            assert path.residual_norms[k] == pytest.approx(sol.residual_norm, rel=1e-10)

    def test_spectral_vs_iterative_on_benchmarks(self):
        # agreement to 1e-6 at three alphas, n = 32 for speed
        for name, variant in [("baart", None), ("deriv2", None), ("foxgood", None),
                              ("gravity", None), ("heat", 1), ("heat", 5),
                              ("i_laplace", 1), ("i_laplace", 2), ("i_laplace", 3),
                              ("phillips", None), ("shaw", None)]:
            p = rr.make_problem(name, variant, 32)
            dec = rr.svd(p.A)
            data = rr.add_noise(p, 20.0, seed=2, replicate=0)
            s1_sq = float(dec.s[0]) ** 2
            alphas = np.array([1e-6, 1e-3, 1e-1]) * s1_sq
            it_path = rr.iterative_path(p.A, data.g, alphas, tol=1e-10)
            sp_path = rr.spectral_path(dec, data.g, alphas)
            for k in range(3):
                gap = np.linalg.norm(it_path.solutions[k] - sp_path.solutions[k])
                assert gap <= 1e-6 * np.linalg.norm(sp_path.solutions[k])
