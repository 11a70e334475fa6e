import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskreg as rr
from riskreg import rules
from riskreg.bench import default_grid, matrix_free_grid
from riskreg.errors import ConvergenceError
from riskreg.rng import TAG_PROBES, keyed_rng
from riskreg.tikhonov import influence_measure


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


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_data(self, shaw32, bad):
        p, dec = shaw32
        g = p.g_true.copy()
        g[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            rr.solve_spectral(dec, g, 1e-3)


class TestSolveIterative:
    """Single-alpha solves without a decomposition: length-1 iterative paths."""

    def test_identity(self):
        g = keyed_rng(5).standard_normal(7)
        path = rr.iterative_path(np.eye(7), g, [1.0])
        np.testing.assert_allclose(path.solutions[0], g / 2.0, rtol=1e-7)

    def test_matches_spectral(self, shaw32):
        p, dec = shaw32
        g = p.g_true + 0.03 * keyed_rng(6).standard_normal(32)
        for alpha in (1e-4, 1e-2):
            f_it = rr.iterative_path(p.A, g, [alpha], tol=1e-10).solutions[0]
            f_sp = rr.solve_spectral(dec, g, alpha).f_alpha
            assert np.linalg.norm(f_it - f_sp) / np.linalg.norm(f_sp) <= 1e-6

    def test_large_alpha_shrinks_to_zero(self, shaw32):
        p, dec = shaw32
        g = p.g_true
        alpha = 1e8 * float(dec.s[0]) ** 2
        f = rr.iterative_path(p.A, g, [alpha]).solutions[0]
        assert np.linalg.norm(f) <= 1e-6 * np.linalg.norm(g) / dec.s[0]

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            rr.iterative_path(np.eye(3), np.ones(3), [0.0])


def _probe_forms(run, alphas):
    """||A w||^2, <b, A w> and ||w||^2 on the grid from one bidiagonalization."""
    dec, rhs, _ = run
    s2 = dec.s ** 2
    c2 = (dec.U.T @ rhs) ** 2
    x = s2 / (s2 + alphas[:, None])
    return (x * x) @ c2, x @ c2, (x / (s2 + alphas[:, None])) @ c2


def _projected_solution(run, alpha):
    dec, rhs, _ = run
    return rr.solve_spectral(dec, rhs, alpha).f_alpha


class TestGolubKahan:
    def test_matches_direct_solve(self):
        rng = keyed_rng(19)
        A = rng.standard_normal((12, 9))
        b = rng.standard_normal(12)
        alpha = 0.3
        run = rr.golub_kahan(A, b, [alpha], tol=1e-12)
        x_ref = np.linalg.solve(A.T @ A + alpha * np.eye(9), A.T @ b)
        np.testing.assert_allclose(_projected_solution(run, alpha), x_ref, rtol=1e-8)

    def test_iteration_cap(self):
        rng = keyed_rng(29)
        A = rng.standard_normal((40, 40))
        b = rng.standard_normal(40)
        with pytest.raises(ConvergenceError):
            rr.golub_kahan(A, b, [1e-14], tol=1e-14, max_iter=2)

    @pytest.mark.parametrize("name,variant", [("shaw", None), ("heat", 1)])
    def test_identity_probes_match_spectrum(self, name, variant):
        # probes e_1..e_n sum the quadratic forms to the exact traces
        p = rr.make_problem(name, variant, 32)
        dec = rr.svd(p.A)
        s1_sq = float(dec.s[0]) ** 2
        alphas = np.geomspace(1e-6 * s1_sq, 0.5 * s1_sq, 20)
        sums = np.zeros((3, alphas.size))
        for e in np.eye(32):
            sums += _probe_forms(rr.golub_kahan(p.A, e, alphas, tol=1e-10), alphas)
        exact = rr.influence_path_exact(dec, alphas)
        for got, ref in zip(sums, (exact.frob_sq, exact.trace, exact.noise_amp)):
            np.testing.assert_allclose(got, ref, rtol=1e-9)
        g = rr.add_noise(p, 20.0, seed=3, replicate=0).g
        it = rr.iterative_path(p.A, g, alphas, tol=1e-10)
        sp = rr.spectral_path(dec, g, alphas)
        np.testing.assert_allclose(it.residual_norms, sp.residual_norms, rtol=1e-8)
        gaps = np.linalg.norm(it.solutions - sp.solutions, axis=1)
        assert np.all(gaps <= 1e-6 * np.linalg.norm(sp.solutions, axis=1))

    def test_breakdown_identity(self):
        b = keyed_rng(37).standard_normal(8)
        alphas = np.array([0.5, 1.0, 2.0])
        run = rr.golub_kahan(np.eye(8), b, alphas)
        assert run[0].rank == 1 and run[2] == 0.0
        for a in alphas:
            np.testing.assert_allclose(_projected_solution(run, a), b / (1.0 + a), rtol=1e-12)

    def test_breakdown_zero_operator(self):
        b = keyed_rng(41).standard_normal(6)
        dec, rhs, residual = rr.golub_kahan(np.zeros((6, 4)), b, [1.0])
        assert dec.rank == 0 and residual == 0.0
        path = rr.iterative_path(np.zeros((6, 4)), b, [1.0, 2.0])
        assert np.all(path.solutions == 0.0)
        np.testing.assert_allclose(path.residual_norms, np.linalg.norm(b))

    def test_breakdown_rank_deficient(self):
        rng = keyed_rng(43)
        A = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        b = rng.standard_normal(10)
        alphas = np.array([1e-3, 1e-1, 10.0])
        run = rr.golub_kahan(A, b, alphas, tol=1e-12)
        assert run[0].rank <= 3
        for a in alphas:
            x_ref = np.linalg.solve(A.T @ A + a * np.eye(8), A.T @ b)
            np.testing.assert_allclose(_projected_solution(run, a), x_ref, rtol=1e-8)

    def test_reported_residual_within_tolerance(self):
        p = rr.parallel_tomo(cells_per_side=12, angles=18, rays_per_angle=17)
        A = p.A.to_dense()
        g = rr.add_noise(p, 20.0, seed=1, replicate=0).g
        lam1 = rr.largest_eigenvalue(p.A, seed=1)
        alphas = np.geomspace(1e-8 * lam1, 1e-2 * lam1, 12)
        tol = 1e-8
        target = tol * np.linalg.norm(A.T @ g)
        path = rr.iterative_path(p.A, g, alphas, tol=tol)
        assert path.normal_residual <= target
        actual = [np.linalg.norm(A.T @ (g - A @ f) - a * f)
                  for a, f in zip(alphas, path.solutions)]
        assert max(actual) <= 1.01 * target
        assert max(actual) == pytest.approx(path.normal_residual, rel=1e-3)
        inf = rr.influence_path_stochastic(p.A, alphas, probes=4, seed=2, lam1=lam1)
        Z = keyed_rng(2, TAG_PROBES).standard_normal((A.shape[0], 4))
        assert np.all(inf.normal_residual <= tol * np.linalg.norm(A.T @ Z, axis=0))
        assert inf.iterations.shape == (4,) and np.all(inf.iterations >= 1)

    def test_same_seed_same_bits(self):
        p = rr.parallel_tomo(cells_per_side=8, angles=12, rays_per_angle=11)
        g = rr.add_noise(p, 20.0, seed=1, replicate=0).g
        alphas = np.geomspace(1e-4, 1.0, 9)
        runs = [rr.influence_path_stochastic(p.A, alphas, probes=3, seed=7, lam1=1.0)
                for _ in range(2)]
        for field in ("frob_sq", "trace", "noise_amp", "iterations", "normal_residual"):
            assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))
        paths = [rr.iterative_path(p.A, g, alphas) for _ in range(2)]
        assert np.array_equal(paths[0].solutions, paths[1].solutions)
        assert np.array_equal(paths[0].residual_norms, paths[1].residual_norms)

    def test_nonfinite_rejected(self):
        b = np.ones(4)
        b[2] = np.nan
        with pytest.raises(ValueError):
            rr.golub_kahan(np.eye(4), b, [1.0])
        with pytest.raises(ValueError):
            rr.golub_kahan(np.eye(4), np.ones(4), [0.0])


def _block_and_columns(A, B, alphas, **kw):
    """golub_kahan on the block B and on each of its columns alone."""
    return rr.golub_kahan(A, B, alphas, **kw), [rr.golub_kahan(A, b, alphas, **kw) for b in B.T]


def _assert_runs_agree(block, columns, alphas, rtol=1e-12):
    assert len(block) == len(columns)
    for got, ref in zip(block, columns):
        assert got[0].rank == ref[0].rank
        for a in alphas:
            x, y = _projected_solution(got, a), _projected_solution(ref, a)
            assert np.linalg.norm(x - y) <= rtol * np.linalg.norm(y)
        np.testing.assert_allclose(_probe_forms(got, alphas), _probe_forms(ref, alphas),
                                   rtol=rtol, atol=0.0)


def _damped_lsqr_reference(d, e, beta1, alphas, tol, relative):
    """Depth and reported residual of damped LSQR on the bidiagonal with
    diagonal d and subdiagonal e from beta1 e1, one scalar rotation at a time
    in the order of Paige & Saunders."""
    K = len(alphas)
    rhobar, phibar = [d[0]] * K, [beta1] * K
    cs2, sn2, z, xxnorm = [-1.0] * K, [0.0] * K, [0.0] * K, [0.0] * K
    bound = [tol * beta1 * d[0]] * K
    for j in range(len(e)):
        bn, an = e[j], (d[j + 1] if j + 1 < len(d) else 0.0)
        arnorm = [0.0] * K
        for i, alpha in enumerate(alphas):
            rhobar1 = math.sqrt(rhobar[i] * rhobar[i] + alpha)
            phibar[i] *= rhobar[i] / rhobar1
            rho = math.sqrt(rhobar1 * rhobar1 + bn * bn)
            cs, sn = rhobar1 / rho, bn / rho
            theta, rhobar[i] = sn * an, -cs * an
            phi, phibar[i] = cs * phibar[i], sn * phibar[i]
            arnorm[i] = an * abs(sn * phi)
            if relative:
                gambar = -cs2[i] * rho
                t = phi - sn2[i] * rho * z[i]
                q = t / gambar
                bound[i] = tol * alpha * math.sqrt(xxnorm[i] + q * q)
                gamma = math.sqrt(gambar * gambar + theta * theta)
                cs2[i], sn2[i], z[i] = gambar / gamma, theta / gamma, t / gamma
                xxnorm[i] += z[i] * z[i]
        if an == 0.0 or all(r <= b for r, b in zip(arnorm, bound)):
            return j + 1, max(arnorm)
    raise AssertionError("the bidiagonal ends in a breakdown")


class TestGolubKahanBlock:
    """A block of right-hand sides advances in lockstep; each column's run is
    the one it would get alone."""

    @pytest.mark.parametrize("relative", [False, True])
    def test_rotations_match_scalar_recurrence_bit_for_bit(self, relative):
        # On a block-diagonal of lower-bidiagonal matrices with dyadic entries,
        # started from multiples of e1 of each block, every Golub-Kahan vector
        # is a unit vector, so the bidiagonal is the matrix itself and the
        # rotations alone decide each column's depth and reported residual.
        rng = keyed_rng(61)
        sizes, starts, entries = (12, 9, 15), (3.0, 0.5, 1.25), []
        A = np.zeros((sum(sizes) + len(sizes), sum(sizes)))
        B = np.zeros((A.shape[0], len(sizes)))
        r0 = c0 = 0
        for col, (m, beta1) in enumerate(zip(sizes, starts)):
            scale = 2.0 ** -np.arange(m)
            d, e = (rng.integers(1, 64, m) / 8.0 * scale for _ in range(2))
            A[r0 + np.arange(m), c0 + np.arange(m)] = d
            A[r0 + 1 + np.arange(m), c0 + np.arange(m)] = e
            B[r0, col] = beta1
            entries.append((d, e, beta1))
            r0, c0 = r0 + m + 1, c0 + m
        alphas = np.geomspace(1e-2, 3.0, 7)
        for tol in (1e-2, 1e-4, 1e-6, 0.0):
            runs = rr.golub_kahan(A, B, alphas, tol=tol, relative_to_solution=relative)
            for (dec, _, residual), (d, e, beta1) in zip(runs, entries):
                depth, ref = _damped_lsqr_reference(d, e, beta1, alphas, tol, relative)
                assert dec.rank == depth and residual == ref
            # a positive tol stops some column before its breakdown
            assert (tol == 0.0) == all(run[0].rank == m for run, m in zip(runs, sizes))

    def test_tall_sparse_tomography(self):
        p = rr.parallel_tomo(cells_per_side=12, angles=18, rays_per_angle=17)
        lam1 = rr.largest_eigenvalue(p.A, seed=1)
        alphas = np.geomspace(1e-8 * lam1, 1e-2 * lam1, 12)
        B = keyed_rng(47).standard_normal((p.A.rows, 6))
        block, columns = _block_and_columns(p.A, B, alphas)
        _assert_runs_agree(block, columns, alphas)
        assert len({run[0].rank for run in block}) > 1  # columns retire at different steps

    def test_square_breakdown_at_numerical_rank(self, shaw32):
        p, dec = shaw32
        s1_sq = float(dec.s[0]) ** 2
        alphas = np.geomspace(1e-3 * s1_sq, 0.5 * s1_sq, 10)
        B = keyed_rng(53).standard_normal((32, 5))
        block, columns = _block_and_columns(p.A, B, alphas, tol=0.0)
        _assert_runs_agree(block, columns, alphas)
        for dec_j, _, residual in block:  # tol = 0 runs until a breakdown
            assert residual == 0.0 and abs(dec_j.rank - dec.rank) <= 1

    def test_wide_dense_matches_direct_solve(self):
        rng = keyed_rng(59)
        A = rng.standard_normal((9, 14))
        B = rng.standard_normal((9, 4))
        alphas = np.array([1e-3, 0.1, 1.0, 10.0])
        block, columns = _block_and_columns(A, B, alphas, tol=1e-12)
        _assert_runs_agree(block, columns, alphas)
        for run, b in zip(block, B.T):
            assert run[0].rank == 9
            for a in alphas:
                x_ref = np.linalg.solve(A.T @ A + a * np.eye(14), A.T @ b)
                np.testing.assert_allclose(_projected_solution(run, a), x_ref, rtol=1e-10)

    def test_column_retires_at_step_one(self):
        # u_1 a left singular vector spans an invariant subspace: beta_2 = 0
        # at the first step; a zero column never starts; the rest continue
        rng = keyed_rng(61)
        A = rng.standard_normal((12, 9))
        dec = rr.svd(A)
        B = rng.standard_normal((12, 4))
        B[:, 1] = 3.0 * dec.U[:, 0]
        B[:, 2] = 0.0
        alphas = np.array([1e-2, 1.0])
        block, columns = _block_and_columns(A, B, alphas, tol=1e-12)
        _assert_runs_agree(block, columns, alphas)
        ranks = [run[0].rank for run in block]
        assert ranks[1] == 1 and ranks[2] == 0 and min(ranks[0], ranks[3]) > 1
        assert block[2][2] == 0.0 and np.all(block[2][1] == 0.0)
        for j in (0, 1, 3):
            for a in alphas:
                x_ref = np.linalg.solve(A.T @ A + a * np.eye(9), A.T @ B[:, j])
                np.testing.assert_allclose(_projected_solution(block[j], a), x_ref, rtol=1e-8)
        # every column breaks down at once: no empty block reaches the operator
        op = rr.LinearOperator.from_functions(12, 9, lambda x: A @ x, lambda y: A.T @ y)
        runs = rr.golub_kahan(op, dec.U[:, :2] * [3.0, 2.0], alphas)
        assert [run[0].rank for run in runs] == [1, 1]

    def test_from_functions_operator(self):
        p = rr.make_problem("heat", 1, 32)
        M = p.A.to_dense()
        calls = []

        def apply(x):
            calls.append(x.shape)
            return M @ x

        op = rr.LinearOperator.from_functions(32, 32, apply, lambda y: M.T @ y)
        alphas = np.geomspace(1e-6, 1e-1, 6) * float(rr.svd(M).s[0]) ** 2
        B = keyed_rng(67).standard_normal((32, 3))
        block, columns = _block_and_columns(op, B, alphas, tol=1e-10)
        _assert_runs_agree(block, columns, alphas, rtol=1e-10)
        _assert_runs_agree(block, rr.golub_kahan(M, B, alphas, tol=1e-10), alphas, rtol=1e-10)
        assert all(shape == (32,) for shape in calls)  # one column at a time

    def test_block_shape_validated(self):
        with pytest.raises(ValueError):
            rr.golub_kahan(np.eye(4), np.ones((3, 2)), [1.0])
        with pytest.raises(ValueError):
            rr.golub_kahan(np.eye(4), np.ones((4, 2, 1)), [1.0])
        B = np.ones((4, 3))
        B[1, 2] = np.inf
        with pytest.raises(ValueError):
            rr.golub_kahan(np.eye(4), B, [1.0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), rank=st.integers(1, 9),
       columns=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1),
       rel_alphas=st.lists(st.floats(1e-4, 1e2), min_size=1, max_size=4))
def test_golub_kahan_agrees_with_spectral_path(rows, cols, rank, columns, seed, rel_alphas):
    rng = keyed_rng(seed)
    rank = min(rank, rows, cols)
    A = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    G = rng.standard_normal((rows, columns))
    dec = rr.svd(A)
    alphas = np.array(rel_alphas) * float(dec.s[0]) ** 2
    runs = rr.golub_kahan(A, G, alphas, tol=1e-12, relative_to_solution=True)
    paths = [rr.spectral_path(dec_j, rhs, alphas) for dec_j, rhs, _ in runs]
    paths.append(rr.iterative_path(A, G[:, 0], alphas, tol=1e-12))  # p = 1
    for got, g in zip(paths, [*G.T, G[:, 0]]):
        ref = rr.spectral_path(dec, g, alphas)
        np.testing.assert_allclose(got.residual_norms, ref.residual_norms, rtol=1e-9)
        gaps = np.linalg.norm(got.solutions - ref.solutions, axis=1)
        assert np.all(gaps <= 1e-8 * np.linalg.norm(ref.solutions, axis=1))


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


def _former_exact_scalars(dec, alphas):
    """The spectrum's influence scalars in the arithmetic ``influence_path_exact``
    used before it read a measure: sn_sq, frob_sq, trace, noise_amp."""
    s2 = dec.s * dec.s
    x = s2[None, :] / (s2[None, :] + alphas[:, None])
    sn = alphas / (s2[0] + alphas)
    return (sn * sn, np.sum(x * x, axis=1), np.sum(x, axis=1),
            np.sum(s2[None, :] / (s2[None, :] + alphas[:, None]) ** 2, axis=1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 12),
       decades=st.floats(0.0, 12.0), grid_points=st.integers(1, 30),
       rel_alphas=st.lists(st.floats(1e-14, 1e3), min_size=1, max_size=6))
def test_measure_matches_former_exact_arrays(seed, n, decades, grid_points, rel_alphas):
    """Off the grid it was sampled on, a spectrum's measure gives the former
    exact arrays to the bit, and so the same lower bound as the spectrum."""
    rng = keyed_rng(seed)
    dec = rr.svd(np.diag(np.sort(10.0 ** rng.uniform(-decades, 0.0, n))[::-1]))
    s1_sq = float(dec.s[0]) ** 2
    inf = rr.influence_path_exact(dec, np.geomspace(1e-12, 0.5, grid_points) * s1_sq)
    alphas = np.array(rel_alphas) * s1_sq
    off = influence_measure(inf, alphas)
    for got, ref in zip((off.sn_sq, off.frob_sq, off.trace, off.noise_amp),
                        _former_exact_scalars(dec, alphas)):
        assert np.array_equal(got, ref)
    for got, ref in zip((inf.sn_sq, inf.frob_sq, inf.trace, inf.noise_amp),
                        _former_exact_scalars(dec, inf.alphas)):
        assert np.array_equal(got, ref)
    rho2, sigma2 = 1.0 + rng.uniform(), rng.uniform(1e-6, 1.0)
    assert np.array_equal(rr.lower_bound_T(rho2, sigma2, inf, alphas),
                          rr.lower_bound_T(rho2, sigma2, dec, alphas))
    assert rr.lower_bound_T(rho2, sigma2, inf, float(alphas[0])) == \
        rr.lower_bound_T(rho2, sigma2, dec, float(alphas[0]))


class TestInfluenceMeasure:
    def test_spectrum_measure(self, shaw32):
        _, dec = shaw32
        m = influence_measure(dec)
        assert m.alphas.size == 0
        assert np.array_equal(m.nodes, dec.s * dec.s) and np.all(m.weights == 1.0)
        assert m.lam1 == float(dec.s[0] * dec.s[0])
        inf = rr.influence_path_exact(dec, [1e-3])
        assert influence_measure(inf) is inf

    def test_own_grid_array_gives_the_path_itself(self, shaw32):
        _, dec = shaw32
        grid = np.geomspace(1e-6, 1.0, 7)
        inf = rr.influence_path_exact(dec, grid)
        assert influence_measure(inf, inf.alphas) is inf
        again = influence_measure(inf, grid.copy())
        assert again is not inf and np.array_equal(again.frob_sq, inf.frob_sq)
        with pytest.raises(ValueError):
            influence_measure(inf, [-1.0])

    def test_zero_operator(self):
        dec = rr.svd(np.zeros((3, 2)))
        inf = rr.influence_path_exact(dec, [0.0, 1.0])
        assert np.array_equal(inf.sn_sq, [1.0, 1.0])
        assert np.array_equal(inf.frob_sq, [0.0, 0.0])

    def test_stochastic_is_the_sum_of_probe_forms(self):
        # the pooled measure gives the per-probe quadratic forms, averaged
        p = rr.parallel_tomo(cells_per_side=8, angles=12, rays_per_angle=11)
        lam1 = rr.largest_eigenvalue(p.A, seed=1)
        alphas = matrix_free_grid(lam1, points=25).values
        probes, seed = 6, 3
        inf = rr.influence_path_stochastic(p.A, alphas, probes, seed, lam1=lam1)
        Z = keyed_rng(seed, TAG_PROBES).standard_normal((p.A.rows, probes))
        sums = sum(np.array(_probe_forms(run, alphas)) for run in rr.golub_kahan(p.A, Z, alphas))
        for got, ref in zip((inf.frob_sq, inf.trace, inf.noise_amp), sums / probes):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert inf.nodes.size == inf.weights.size == int(np.sum(inf.iterations))
        # off the grid too: the measure at the grid's midpoints
        mid = np.sqrt(alphas[1:] * alphas[:-1])
        sums = sum(np.array(_probe_forms(run, mid)) for run in rr.golub_kahan(p.A, Z, alphas))
        np.testing.assert_allclose(influence_measure(inf, mid).frob_sq, sums[0] / probes,
                                   rtol=1e-14, atol=0.0)


class TestInfluenceStochastic:
    def test_identity_sn_exact(self):
        inf = rr.influence_path_stochastic(np.eye(8), [1.0], probes=4, seed=0)
        assert inf.sn_sq[0] == pytest.approx(0.25, rel=1e-8)
        # each probe's run breaks down after one step, on the node 1
        np.testing.assert_array_equal(inf.iterations, [1, 1, 1, 1])
        np.testing.assert_allclose(inf.nodes, 1.0, rtol=1e-12)

    def test_matches_exact_on_shaw(self, shaw64):
        p, dec = shaw64
        alpha = [1e-2 * float(dec.s[0]) ** 2]
        inf_s = rr.influence_path_stochastic(p.A, alpha, probes=200, seed=0)
        inf_e = rr.influence_path_exact(dec, alpha)
        assert inf_s.sn_sq[0] == pytest.approx(inf_e.sn_sq[0], rel=1e-6)
        assert inf_s.frob_sq[0] == pytest.approx(inf_e.frob_sq[0], rel=0.05)

    def test_tomography_measure_matches_recorded_values(self):
        # paralleltomo 16^2 with the tomo_mf workload's seeds (power 3, 16 probes
        # from seed 5).  ipro selects the top of this grid there, so a drift of
        # the measure would not show in its selection; these samples show it.
        p = rr.make_problem("paralleltomo", None, 16)
        lam1 = rr.largest_eigenvalue(p.A, seed=3)
        assert lam1 == pytest.approx(1801.413767185434, rel=1e-8)
        m = rr.influence_path_stochastic(p.A, matrix_free_grid(lam1).values, probes=16,
                                         seed=5, lam1=lam1)
        recorded = {  # grid index: (frob_sq, trace, noise_amp)
            0: (246.8650844131564, 246.86511528034876, 3.4269963895534206),
            50: (246.79896629733798, 246.83205356828222, 3.425898056726383),
            99: (196.47298441201661, 219.963700221203, 2.6080311183464278)}
        for i, ref in recorded.items():
            np.testing.assert_allclose([m.frob_sq[i], m.trace[i], m.noise_amp[i]], ref,
                                       rtol=1e-8, err_msg=f"grid index {i}")


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

    def test_spectral_path_bits_match_direct_formula(self, benchmarks64):
        # the filter written out with a fresh denominator per use and
        # np.linalg.norm, as the path used to evaluate it
        for (p, dec), xi in zip(benchmarks64, (10.0, 20.0, 40.0) * 4):
            data = rr.add_noise(p, xi, seed=3, replicate=1)
            s1_sq = float(dec.s[0]) ** 2
            for grid in (default_grid(s1_sq).values, np.geomspace(1e-9, 3.0, 17) * s1_sq):
                c = dec.U.T @ data.g
                perp = data.g - dec.U @ c
                s2 = dec.s * dec.s
                phi = dec.s[None, :] / (s2[None, :] + grid[:, None])
                coef = phi * c[None, :]
                resid_sq = np.sum(((grid[:, None] / (s2[None, :] + grid[:, None])) ** 2)
                                  * (c * c)[None, :], axis=1) + float(perp @ perp)
                path = rr.spectral_path(dec, data.g, grid)
                assert np.array_equal(path.residual_norms, np.sqrt(resid_sq))
                assert np.array_equal(path.solution_norms, np.linalg.norm(coef, axis=1))
                assert np.array_equal(path.solutions, coef @ dec.V.T)

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

    def test_iterative_path_keeps_the_svd_rank_on_heat(self):
        # the projected SVD is truncated at the numerical rank svd uses, so the
        # Golub-Kahan path drops the mode below RANK_CUTOFF * s1 that svd drops
        p = rr.make_problem("heat", 1, 64)
        dec = rr.svd(p.A)
        grid = default_grid(float(dec.s[0]) ** 2).values
        for seed in range(8):
            g = rr.add_noise(p, 20.0, seed=seed).g
            it_path = rr.iterative_path(p.A, g, grid)
            sp_path = rr.spectral_path(dec, g, grid)
            gap = np.linalg.norm(it_path.solutions - sp_path.solutions, axis=1)
            assert np.all(gap <= 1e-10 * np.linalg.norm(sp_path.solutions, axis=1))
            assert it_path.iterations == 62 > dec.rank  # the Krylov depth, not the rank

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectral_path_rejects_nonfinite_data(self, shaw32, bad):
        p, dec = shaw32
        g = p.g_true.copy()
        g[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            rr.spectral_path(dec, g, default_grid(float(dec.s[0]) ** 2).values)

    def test_iterative_solve_off_grid_from_projected_svd(self):
        # off-grid alphas come from the path's projected SVD: dense accuracy,
        # no operator application
        p = rr.make_problem("heat", 1, 64)
        M = p.A.to_dense()
        applied = [0]

        def counted(matrix):
            def apply(x):
                applied[0] += 1 if x.ndim == 1 else x.shape[1]
                return matrix @ x
            return apply

        A = rr.LinearOperator(64, 64, counted(M), counted(M.T), "matrix-free")
        dec = rr.svd(M)
        s1_sq = float(dec.s[0]) ** 2
        data = rr.add_noise(p, 20.0, seed=1, replicate=0)
        grid = matrix_free_grid(s1_sq).values
        path = rr.iterative_path(A, data.g, grid)
        before = applied[0]
        for a in np.sqrt(grid[:-1] * grid[1:]):
            got, ref = path.solve(a), rr.solve_spectral(dec, data.g, a)
            assert np.linalg.norm(got.f_alpha - ref.f_alpha) <= 1e-8 * np.linalg.norm(ref.f_alpha)
            assert got.residual_norm == pytest.approx(ref.residual_norm, rel=1e-8)
        assert applied[0] == before
        grid = default_grid(s1_sq).values
        path = rr.iterative_path(A, data.g, grid)
        before = applied[0]
        sel = rules.dp(path, data.sigma)
        assert applied[0] == before
        ref = rules.dp(rr.spectral_path(dec, data.g, grid), data.sigma)
        assert sel.diagnostics["grid_index"] > 0 and not sel.diagnostics["flags"]
        assert sel.alpha == pytest.approx(ref.alpha, rel=1e-12)
