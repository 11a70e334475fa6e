import inspect
import math
import operator
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskreg as rr
from riskreg import rules, tikhonov
from riskreg.bench import default_grid, matrix_free_grid
from riskreg.errors import ConvergenceError, DegenerateDataError
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
        with pytest.raises(ValueError, match=f"^g must be finite, got {bad!r}$"):
            rr.solve_spectral(dec, g, 1e-3)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_rejects_nonfinite_or_negative_alpha(self, shaw32, alpha):
        p, dec = shaw32
        with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
            rr.solve_spectral(dec, p.g_true, alpha)

    @pytest.mark.parametrize("alpha,size,message", [
        (-1e-3, 32, "alpha must be nonnegative"),
        (1e-3, 31, "dimension mismatch between decomposition and data")])
    def test_rejects_ill_formed_args(self, shaw32, alpha, size, message):
        p, dec = shaw32
        with pytest.raises(ValueError, match=message):
            rr.solve_spectral(dec, p.g_true[:size], alpha)


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

    @pytest.mark.parametrize("alphas", [[], [[1.0]]])
    def test_grid_must_be_a_nonempty_vector(self, alphas):
        with pytest.raises(ValueError, match="^the Krylov path requires a nonempty grid"):
            rr.golub_kahan(np.eye(3), np.ones(3), alphas)

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
        # a probe stops on its forms' settle estimate, which it reports
        inf = rr.influence_path_stochastic(p.A, alphas, probes=4, seed=2, lam1=lam1)
        assert np.all(inf.settle <= tikhonov.SETTLE_TOL) and np.all(inf.normal_residual > 0)
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

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0])
    def test_rejects_ill_formed_tol(self, tol):
        # each ran to full depth and reported a normal residual of 0
        A, b = keyed_rng(71).standard_normal((8, 6)), np.ones(8)
        with pytest.raises(ValueError, match="tol"):
            rr.golub_kahan(A, b, [1.0], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            rr.iterative_path(A, b, [1.0], tol=tol)

    @pytest.mark.parametrize("max_iter", [-3, 0, 2.5, True])
    def test_rejects_ill_formed_max_iter(self, max_iter):
        # -3 was ignored, 0 raised ConvergenceError
        with pytest.raises(ValueError, match="max_iter"):
            rr.golub_kahan(keyed_rng(71).standard_normal((8, 6)), np.ones(8), [1.0],
                           max_iter=max_iter)

    def test_stack_grows_with_the_depth_reached(self):
        # a shallow run on a huge operator: a diagonal with three distinct
        # entries on 10^6 coordinates has Krylov depth 3, while a V stack sized
        # for the default max_iter (10^6 steps) would take 8 TB a column
        cols = 10 ** 6
        d = np.repeat([3.0, 2.0, 1.0], [1, 2, cols - 3])
        op = rr.LinearOperator.from_functions(cols, cols, lambda x: d * x, lambda y: d * y)
        b = np.full(cols, 1e-3)
        dec, rhs, residual = rr.golub_kahan(op, b, [1e-2, 1.0])
        assert dec.rank == 3 and rhs.size == 4 and residual == 0.0
        np.testing.assert_allclose(dec.s, [3.0, 2.0, 1.0], rtol=1e-12)

    def test_stack_grows_while_the_operator_keeps_a_view(self):
        # the stack cannot grow in place while a view of it is held, and is
        # copied instead: the run matches one through a forgetful operator
        A = keyed_rng(89).standard_normal((40, 30))
        kept = []

        def keep(x):
            kept.append(x)  # every input: views of the stack
            return A @ x

        op = rr.LinearOperator(40, 30, keep, partial(operator.matmul, A.T), "matrix-free")
        B = keyed_rng(97).standard_normal((40, 2))
        alphas = [1e-6, 1e-2]
        held, plain = rr.golub_kahan(op, B, alphas, tol=1e-12), rr.golub_kahan(A, B, alphas,
                                                                              tol=1e-12)
        assert len(kept) > 8  # past the stack's first growth
        for (dec, rhs, res), (ref, ref_rhs, ref_res) in zip(held, plain):
            assert np.array_equal(dec.s, ref.s) and np.array_equal(dec.V, ref.V)
            assert np.array_equal(rhs, ref_rhs) and res == ref_res

    def test_stack_grows_under_a_tracer(self):
        # a Python trace function (pdb's, say) holds the loop's locals, so V
        # and the bidiagonal cannot grow in place and are copied instead: the
        # run matches an untraced one
        A, B = keyed_rng(89).standard_normal((40, 30)), keyed_rng(97).standard_normal((40, 2))
        plain = rr.golub_kahan(A, B, [1e-6, 1e-2], tol=1e-12)

        def trace(frame, event, arg):
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            traced = rr.golub_kahan(A, B, [1e-6, 1e-2], tol=1e-12)
        finally:
            sys.settrace(previous)
        for (dec, rhs, res), (ref, ref_rhs, ref_res) in zip(traced, plain):
            assert rhs.size > 8  # past the stack's first growth
            assert np.array_equal(dec.s, ref.s) and np.array_equal(dec.V, ref.V)
            assert np.array_equal(rhs, ref_rhs) and res == ref_res

    def test_stack_grows_without_a_copy(self):
        # two probes of a diagonal with 40 distinct entries on 50,000
        # coordinates reach depth 26, so the stack doubles 8 -> 16 -> 32 rows;
        # a copy at a doubling would hold the old and new stacks at once
        # (>= 1.5x the final one), growing in place holds only the final one
        cols = 50_000
        d = np.repeat(np.linspace(0.5, 2.0, 40), cols // 40)
        op = rr.LinearOperator.from_functions(cols, cols, lambda x: d * x, lambda y: d * y)
        tracemalloc.start()
        try:
            m = tikhonov.influence_path_stochastic(op, [1e-3, 1.0], 2, seed=1, lam1=4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(m.iterations) == [26, 26]
        assert peak < 1.4 * (32 * 2 * cols * 8)

    def test_max_iter_above_cols_stops_at_cols(self):
        # V has no direction beyond cols, so a column still running there has failed
        rng = keyed_rng(73)
        A, b = rng.standard_normal((40, 5)), rng.standard_normal(40)
        dec, _, _ = rr.golub_kahan(A, b, [1e-3], tol=1e-300, max_iter=100)
        assert dec.rank == 5


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
    """Damped LSQR on the bidiagonal with diagonal d and subdiagonal e from
    beta1 e1, one scalar rotation at a time in the order of Paige & Saunders:
    the depth and reported residual at golub_kahan's stopping test, and per
    step its relative_to_solution bound, trace_k = phi_1^2 + .. + phi_k^2 and
    ||x_k||^2, each a list over the alphas."""
    K = len(alphas)
    rhobar, phibar, trace = [d[0]] * K, [beta1] * K, [0.0] * K
    cs2, sn2, z, xxnorm = [-1.0] * K, [0.0] * K, [0.0] * K, [0.0] * K
    bound, steps = [tol * beta1 * d[0]] * K, []
    for j in range(len(e)):
        bn, an = e[j], (d[j + 1] if j + 1 < len(d) else 0.0)
        arnorm, solution_bound, xnorm_sq = [0.0] * K, [0.0] * K, [0.0] * K
        for i, alpha in enumerate(alphas):
            rhobar1 = math.sqrt(rhobar[i] * rhobar[i] + alpha)
            phibar[i] *= rhobar[i] / rhobar1
            rho = math.sqrt(rhobar1 * rhobar1 + bn * bn)
            cs, sn = rhobar1 / rho, bn / rho
            theta, rhobar[i] = sn * an, -cs * an
            phi, phibar[i] = cs * phibar[i], sn * phibar[i]
            arnorm[i] = an * abs(sn * phi)
            trace[i] += phi * phi
            gambar = -cs2[i] * rho
            t = phi - sn2[i] * rho * z[i]
            q = t / gambar
            xnorm_sq[i] = xxnorm[i] + q * q
            solution_bound[i] = tol * alpha * math.sqrt(xnorm_sq[i])
            gamma = math.sqrt(gambar * gambar + theta * theta)
            cs2[i], sn2[i], z[i] = gambar / gamma, theta / gamma, t / gamma
            xxnorm[i] += z[i] * z[i]
        steps.append((solution_bound, list(trace), xnorm_sq))
        if relative:
            bound = solution_bound
        if an == 0.0 or all(r <= b for r, b in zip(arnorm, bound)):
            return j + 1, max(arnorm), steps
    raise AssertionError("the bidiagonal ends in a breakdown")


def _loop_states(run):
    """``run()``, and the state of ``tikhonov._golub_kahan_steps``, the loop of
    ``_golub_kahan``, at the head of each pass of its loop after the first:
    per pass the depth k, the live columns, the stopping bound and the settle
    test's forms at depth k."""
    code = tikhonov._golub_kahan_steps.__code__
    lines, first = inspect.getsourcelines(code)
    head = first + next(i for i, line in enumerate(lines) if line.strip() == "if done.any():")
    states = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == head and frame.f_locals["k"]:
            f = frame.f_locals
            states.append((f["k"], f["live"].copy(), np.array(f["bound"]),
                           f["forms"][f["k"] % f["forms"].shape[0]].copy()))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return states


class TestGolubKahanBlock:
    """A block of right-hand sides advances in lockstep; each column's run is
    the one it would get alone."""

    @pytest.mark.parametrize("stop", ["normal", "solution", "settle"])
    def test_rotations_match_scalar_recurrence_bit_for_bit(self, stop):
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
        relative = stop == "solution"
        for tol in (1e-2, 1e-4, 1e-6, 1e-300):
            runs = rr.golub_kahan(A, B, alphas, tol=tol, relative_to_solution=relative)
            for (dec, _, residual), (d, e, beta1) in zip(runs, entries):
                depth, ref, _ = _damped_lsqr_reference(d, e, beta1, alphas, tol, relative)
                assert dec.rank == depth and residual == ref
            # a tol above rounding stops some column before its breakdown
            assert (tol == 1e-300) == all(run[0].rank == m for run, m in zip(runs, sizes))
        # every step's rotations, whichever test stops the column: trace_k,
        # ||x_k||^2 and, on a "solution" path, its bound, each run to its
        # breakdown or, a probe, until its forms stop changing in the last bit
        runs = []
        states = _loop_states(lambda: runs.extend(tikhonov._golub_kahan(
            A, B, alphas, 1e-300, None, stop, lambda B_k, beta1, V_k: None)))
        for col, ((d, e, beta1), m) in enumerate(zip(entries, sizes)):
            steps = _damped_lsqr_reference(d, e, beta1, alphas, 1e-300, relative)[2]
            seen = [(k, bound[live == col][0], forms[:, live == col, :][:, 0])
                    for k, live, bound, forms in states if col in live]
            assert [k for k, _, _ in seen] == list(range(1, len(seen) + 1))
            assert len(seen) == m or (stop == "settle" and runs[col][2] == 0.0)
            for (k, bound, (trace, xnorm_sq)), (ref_bound, ref_trace, ref_xnorm_sq) in zip(
                    seen, steps):
                assert trace.tolist() == ref_trace, k
                assert xnorm_sq.tolist() == ref_xnorm_sq, k
                if relative:
                    assert bound.tolist() == ref_bound, k

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
        block, columns = _block_and_columns(p.A, B, alphas, tol=1e-300)
        _assert_runs_agree(block, columns, alphas)
        for dec_j, _, residual in block:  # tol = 1e-300 runs until a breakdown
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


def _svd_measure(A, alphas, probes, seed):
    """frob_sq, trace and noise_amp on ``alphas``, total weight and node count
    of the probe measure taken from the SVD of each probe's bidiagonal, on the
    probes ``influence_path_stochastic`` draws."""
    Z = keyed_rng(seed, TAG_PROBES).standard_normal((rr.as_operator(A).rows, probes))
    runs = rr.golub_kahan(A, Z, alphas)
    forms = sum(np.array(_probe_forms(run, alphas)) for run in runs) / probes
    weight = sum(float(np.sum((dec.U[0] * rhs[0]) ** 2)) for dec, rhs, _ in runs) / probes
    return (*forms, weight, sum(dec.rank for dec, _, _ in runs))


def _assert_quadrature_matches_svd(A, alphas, probes, seed, rtol_forms, rtol_weight):
    alphas = np.asarray(alphas, dtype=float)
    inf = rr.influence_path_stochastic(A, alphas, probes, seed, lam1=1.0)
    frob, trace, noise, weight, nodes = _svd_measure(A, alphas, probes, seed)
    np.testing.assert_allclose(inf.frob_sq, frob, rtol=rtol_forms, atol=0.0)
    np.testing.assert_allclose(inf.trace, trace, rtol=rtol_forms, atol=0.0)
    np.testing.assert_allclose(inf.noise_amp, noise, rtol=rtol_weight, atol=0.0)
    assert float(np.sum(inf.weights)) == pytest.approx(weight, rel=rtol_weight, abs=0.0)
    assert inf.nodes.size == inf.weights.size == nodes
    return inf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), rank=st.integers(1, 12),
       decades=st.floats(0.0, 14.0), probes=st.integers(1, 5), seed=st.integers(0, 2 ** 31 - 1))
def test_gauss_quadrature_matches_svd_measure(rows, cols, rank, decades, probes, seed):
    """The probe measure from the bidiagonal QR sweep equals the one from the
    SVD of each bidiagonal, on tall, wide and rank-deficient operators with
    singular values down to 1e-14 s1.  Both give the large nodes to rounding;
    the small ones the sweep gives to high relative accuracy, the dense SVD to
    rounding times s1.  Over 18,000 such random cases (six runs, the largest
    of 10,000) frob_sq and trace differed by up to 5.3e-13 relative, and
    noise_amp and the total weight, which weigh the small nodes most, by up
    to 2.6e-11 and 7.0e-12.  The rtols are 10x that."""
    rng = keyed_rng(seed)
    rank = min(rank, rows, cols)
    s = np.sort(10.0 ** rng.uniform(-decades, 0.0, rank))[::-1]
    U = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :rank]
    V = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :rank]
    A = (U * (s / s[0])) @ V.T
    _assert_quadrature_matches_svd(A, matrix_free_grid(1.0).values, probes, seed,
                                   rtol_forms=6e-12, rtol_weight=3e-10)


class TestGaussQuadrature:
    """Edge cases of the probe quadrature, each against the SVD measure."""

    def test_breakdown_at_step_one(self):
        # the identity: every probe breaks down after one step on the node 1
        inf = _assert_quadrature_matches_svd(np.eye(6), np.geomspace(1e-3, 1.0, 5), 3, 4,
                                             rtol_forms=1e-14, rtol_weight=1e-14)
        assert np.all(inf.iterations == 1)
        np.testing.assert_allclose(inf.nodes, 1.0, rtol=1e-15)

    def test_probe_with_no_adjoint_image(self):
        # A^T z = 0: the run stops before its first step and adds no node
        inf = _assert_quadrature_matches_svd(np.zeros((5, 3)), [1e-2, 1.0], 2, 0,
                                             rtol_forms=0.0, rtol_weight=0.0)
        assert inf.nodes.size == 0 and np.all(inf.iterations == 0)
        assert np.array_equal(inf.frob_sq, [0.0, 0.0]) and np.array_equal(inf.sn_sq, [1.0, 1.0])

    def test_depth_one(self):
        # a rank-one operator breaks down at its second adjoint step: k = 1
        # with a nonzero beta_2
        rng = keyed_rng(79)
        A = np.outer(rng.standard_normal(7), rng.standard_normal(4))
        inf = _assert_quadrature_matches_svd(A, np.geomspace(1e-3, 10.0, 6), 4, 2,
                                             rtol_forms=1e-13, rtol_weight=1e-13)
        assert np.all(inf.iterations == 1) and inf.nodes.size == 4


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
        # the same runs, each to its own depth, finished by the bidiagonal's SVD
        runs = [(*run, residual) for run, residual, _ in tikhonov._golub_kahan(
            p.A, Z, alphas, tikhonov.SETTLE_TOL, None, "settle", tikhonov._projected_svd)]
        assert [rhs.size - 1 for _, rhs, _ in runs] == inf.iterations.tolist()
        sums = sum(np.array(_probe_forms(run, alphas)) for run in runs)
        for got, ref in zip((inf.frob_sq, inf.trace, inf.noise_amp), sums / probes):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert inf.nodes.size == inf.weights.size == int(np.sum(inf.iterations))
        # off the grid too: the measure at the grid's midpoints
        mid = np.sqrt(alphas[1:] * alphas[:-1])
        sums = sum(np.array(_probe_forms(run, mid)) for run in runs)
        np.testing.assert_allclose(influence_measure(inf, mid).frob_sq, sums[0] / probes,
                                   rtol=1e-14, atol=0.0)


def _rule_forms(rule, alphas):
    """A quadrature rule's sums of 1/(t + a), 1/(t + a)^2 and the integrands
    of trace, frob_sq and noise_amp, at each alpha."""
    t, w = rule
    d = t[:, None] + alphas
    x = t[:, None] / d
    return {"g1": w @ (1 / d), "g2": w @ (1 / d ** 2), "trace": w @ x, "frob_sq": w @ (x * x),
            "noise_amp": w @ (x / d)}


def _assert_brackets_hold(op, A, probes, seed, alphas):
    """At every depth of each probe's run, its Gauss rule G and Gauss-Radau
    rule R bracket the exact forms of the dense SVD's measure: G <= exact <=
    R for 1/(t + a) and 1/(t + a)^2, and so, with D = a^2 (R - G)(1/(t + a)^2),
    R(x) <= trace <= G(x), R(x^2) - D <= frob_sq <= G(x^2) + D (with its
    envelope over the grid, ``_frob_sq_bounds``) and G(n) - D/a <= noise_amp
    <= R(n) + D/a.  The run is of the operator ``op``, the exact measure of
    its dense matrix A.  Over these cases the bounds were off by at most
    1.2e-14 relative, rounding; the rtol is 100x that."""
    Z = keyed_rng(seed, TAG_PROBES).standard_normal((A.shape[0], probes))
    U, s, _ = np.linalg.svd(A)
    t = np.zeros(A.shape[0])
    t[:s.size] = s * s
    runs = tikhonov._golub_kahan(op, Z, alphas, tikhonov.SETTLE_TOL, None, "settle",
                                 tikhonov._keep_bidiagonal)
    checked = 0
    for z, ((B, beta1), _, _) in zip(Z.T, runs):
        exact = _rule_forms((t, (U.T @ z) ** 2), alphas)
        for k in range(1, len(B) + 1):
            rules_k = tikhonov._gauss_radau_rules(B[:k], beta1)
            G, R = (_rule_forms(rule, alphas) for rule in rules_k)
            D = alphas ** 2 * np.maximum(R["g2"] - G["g2"], 0.0)
            env = [side[0] for side in tikhonov._frob_sq_bounds([rules_k], alphas)]
            for name, lo, hi in (("g1", G["g1"], R["g1"]), ("g2", G["g2"], R["g2"]),
                                 ("trace", R["trace"], G["trace"]),
                                 ("frob_sq", R["frob_sq"] - D, G["frob_sq"] + D),
                                 ("frob_sq", *env),
                                 ("noise_amp", G["noise_amp"] - D / alphas,
                                  R["noise_amp"] + D / alphas)):
                tol = 1.2e-12 * np.abs(exact[name])
                assert np.all(lo <= exact[name] + tol), (name, k)
                assert np.all(exact[name] <= hi + tol), (name, k)
            checked += 1
    assert checked


class TestProbeBrackets:
    """The brackets that certify a probe measure's selections hold at every
    depth of its run, and the complete measure lies in the pooled ones."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), decades=st.floats(0.0, 8.0), zeros=st.integers(0, 3),
           probes=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_brackets_on_diagonals(self, n, decades, zeros, probes, seed):
        d = 10.0 ** keyed_rng(seed).uniform(-decades, 0.0, n)
        d[:min(zeros, n - 1)] = 0.0
        op = rr.LinearOperator.from_functions(n, n, lambda x: d * x, lambda y: d * y)
        alphas = matrix_free_grid(float(np.max(d)) ** 2).values
        _assert_brackets_hold(op, np.diag(d), probes, seed, alphas)

    @pytest.mark.parametrize("cells", [8, 16])
    def test_brackets_on_tomography(self, cells):
        A = rr.make_problem("paralleltomo", None, cells).A
        dense = A.to_dense()
        alphas = matrix_free_grid(np.linalg.norm(dense, 2) ** 2).values
        _assert_brackets_hold(A, dense, 3, cells, alphas)

    def test_complete_measure_lies_in_every_pooled_bracket(self):
        p = rr.make_problem("paralleltomo", None, 16)
        lam1 = rr.largest_eigenvalue(p.A, seed=3)
        grid = matrix_free_grid(lam1).values
        m = rr.influence_path_stochastic(p.A, grid, probes=16, seed=5, lam1=lam1)
        brackets = []
        while m.bounds() is not None:
            brackets.append((m.probe_depth, *(b.frob_sq for b in m.bounds())))
            assert all(np.array_equal(b.sn_sq, m.sn_sq) for b in m.bounds())
            m.deepen()
        assert [k for k, _, _ in brackets] == [8, 10, 12, 15, 18, 22]
        for _, lo, hi in brackets:  # 1e-13 allows for rounding
            assert np.all(lo <= m.frob_sq * (1 + 1e-13)) and np.all(m.frob_sq <= hi * (1 + 1e-13))
        # the brackets narrow as the run deepens
        widths = [np.max((hi - lo) / hi) for _, lo, hi in brackets]
        assert widths == sorted(widths, reverse=True)

    def test_full_read_forms_no_bracket(self, monkeypatch):
        # only pro and ipro read a bracket; a reader of the complete run forms none
        p = rr.make_problem("paralleltomo", None, 16)
        grid = matrix_free_grid(1.0).values
        ref = rr.influence_path_stochastic(p.A, grid, probes=4, seed=5, lam1=1.0)

        def no_bracket(B_k, beta1):
            raise AssertionError("a bracket was formed")
        monkeypatch.setattr(tikhonov, "_gauss_radau_rules", no_bracket)
        m = rr.influence_path_stochastic(p.A, grid, probes=4, seed=5, lam1=1.0)
        assert m.probe_depth == 8
        assert np.array_equal(m.trace, ref.trace) and m.probe_depth == ref.probe_depth > 8


class TestInfluenceStochastic:
    @pytest.mark.parametrize("lam1", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_ill_formed_lam1(self, lam1):
        # nan gave a NaN sn_sq, on which ipro returned alpha 0.5 unflagged;
        # the others a wrong sn_sq
        p = rr.parallel_tomo(cells_per_side=8, angles=12, rays_per_angle=11)
        with pytest.raises(ValueError, match="lam1"):
            rr.influence_path_stochastic(p.A, [1e-3, 1e-2], probes=2, seed=0, lam1=lam1)

    def test_estimated_lam1_meets_the_same_rule(self, monkeypatch):
        # a zero operator fails in the power iteration; an estimate of 0 would
        # fail the check an explicit lam1 of 0 fails
        with pytest.raises(DegenerateDataError):
            rr.influence_path_stochastic(np.zeros((5, 3)), [1.0], probes=2, seed=0)
        monkeypatch.setattr(tikhonov, "largest_eigenvalue", lambda op, seed: 0.0)
        with pytest.raises(ValueError, match="lam1"):
            rr.influence_path_stochastic(np.eye(4), [1.0], probes=2, seed=0)

    @pytest.mark.parametrize("lam1", [np.nan, -1.0, np.inf, np.ones(2)])
    def test_measure_rejects_ill_formed_lam1(self, shaw32, lam1):
        # every constructor, and influence_measure's copy on another grid
        _, dec = shaw32
        inf = rr.influence_path_exact(dec, [1e-3])
        with pytest.raises(ValueError, match="lam1"):
            rr.InfluencePath(alphas=[1e-3], nodes=inf.nodes, weights=inf.weights, lam1=lam1)
        inf.lam1 = lam1  # a measure changed after its construction
        with pytest.raises(ValueError, match="lam1"):
            influence_measure(inf, [1e-2])

    @pytest.mark.parametrize("probes", [1.5, True, 0])
    def test_rejects_ill_formed_probes(self, probes):
        # 1.5 and True raised a numpy TypeError
        with pytest.raises(ValueError, match="probes"):
            rr.influence_path_stochastic(np.eye(4), [1.0], probes=probes, seed=0, lam1=1.0)

    def test_tomography_apply_counts(self):
        # the tomo_mf workload's sequence on replicate 0 (paralleltomo 16^2, power
        # seed 3, 16 probes from seed 5, noise seed 1 at 20 dB): the columns each
        # stage applies, which no change of arithmetic may alter
        class Counting(rr.LinearOperator):
            def __init__(self, op):
                super().__init__(op.rows, op.cols, op._apply, op._apply_adjoint,
                                 op.representation, op._matrix)
                self.counts = [0, 0]

            def apply(self, x):
                self.counts[0] += 1 if np.ndim(x) == 1 else np.shape(x)[1]
                return super().apply(x)

            def apply_adjoint(self, y):
                self.counts[1] += 1 if np.ndim(y) == 1 else np.shape(y)[1]
                return super().apply_adjoint(y)

        p = rr.make_problem("paralleltomo", None, 16)
        op = Counting(p.A)
        lam1 = rr.largest_eigenvalue(op, seed=3)
        assert op.counts == [17, 17]
        grid = matrix_free_grid(lam1).values
        op.counts = [0, 0]
        inf = rr.influence_path_stochastic(op, grid, probes=16, seed=5, lam1=lam1)
        assert op.counts == [16 * 8, 16 * 9]  # the probe block runs to its first bracket
        g = rr.add_noise(p, 20.0, 1, 0).g
        probes = op.counts
        op.counts = [0, 0]
        path = rr.iterative_path(op, g, grid)
        assert op.counts == [50, 51] and path.iterations == 50
        op.counts = probes
        sel = rules.ipro(inf, g, path=path)
        # ipro's grid argmins are certified at probe depth 10 of 25-26
        assert op.counts == [16 * 10, 16 * 11] and sel.diagnostics["probe_depth"] == 10
        assert inf.iterations.tolist() == [25] * 6 + [26] + [25] * 9
        assert op.counts == [401, 417]  # 515 and 531 while each probe's solve converged

    def test_fields_after_a_certified_selection_equal_an_uninterrupted_run(self):
        p = rr.make_problem("paralleltomo", None, 16)
        lam1 = rr.largest_eigenvalue(p.A, seed=3)
        grid = matrix_free_grid(lam1).values
        g = rr.add_noise(p, 20.0, 1, 0).g
        m = rr.influence_path_stochastic(p.A, grid, probes=16, seed=5, lam1=lam1)
        rules.ipro(m, g, path=rr.iterative_path(p.A, g, grid))
        assert m.bounds() is not None and m.probe_depth == 10
        # the loop run once, without a pause, as the measure was built before
        # it paused: each probe's Gauss quadrature at its stop
        Z = keyed_rng(5, TAG_PROBES).standard_normal((p.A.rows, 16))
        quadratures, residuals, settle = zip(*tikhonov._golub_kahan(
            p.A, Z, grid, tikhonov.SETTLE_TOL, None, "settle", tikhonov._gauss_quadrature))
        nodes, weights, depths = zip(*quadratures)
        ref = rr.InfluencePath(grid, np.concatenate(nodes), np.concatenate(weights) / 16, lam1,
                               np.array(depths), np.array(residuals), np.array(settle))
        for name in ("alphas", "nodes", "weights", "iterations", "normal_residual", "settle",
                     "sn_sq", "frob_sq", "trace", "noise_amp"):
            assert np.array_equal(getattr(m, name), getattr(ref, name)), name
        assert m.lam1 == ref.lam1 and m.bounds() is None and m.probe_depth == 26

    def test_fault_while_deepening_is_raised_by_every_reader(self):
        # the operator turns non-finite after the probe block's first bracket
        d = np.geomspace(1.0, 1e-3, 200)
        calls = []

        def apply(x):
            calls.append(1)
            return d * x if len(calls) <= 2 * 10 else np.full_like(x, np.nan)
        op = rr.LinearOperator.from_functions(d.size, d.size, apply, lambda y: d * y)
        m = rr.influence_path_stochastic(op, matrix_free_grid(1.0).values, 2, 0, lam1=1.0)
        assert m.probe_depth == 8
        with pytest.raises(ValueError, match="non-finite"):  # the rule that deepens
            rules.pro(m, 1.0, 1e-4)
        with pytest.raises(ValueError, match="non-finite"):  # and every later reader
            m.trace
        assert m.bounds() is None

    def test_identity_sn_exact(self):
        inf = rr.influence_path_stochastic(np.eye(8), [1.0], probes=4, seed=0)
        assert inf.sn_sq[0] == pytest.approx(0.25, rel=1e-8)
        # each probe's run breaks down after one step, on the node 1
        np.testing.assert_array_equal(inf.iterations, [1, 1, 1, 1])
        np.testing.assert_allclose(inf.nodes, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("smallest,depth", [(0.01, 97), (0.1, 48)])
    def test_probes_past_the_krylov_dimension_keep_the_exact_forms(self, smallest, depth):
        # a diagonal with 40 distinct values, 25 coordinates each: with only V
        # reorthogonalized, beta_k stays above the breakdown cutoff and a solve
        # to golub_kahan's tolerance runs past the Krylov dimension (40) to
        # ``depth``; the extra nodes do not move its forms off the exact
        # quadratic forms sum_i z_i^2 f(d_i^2).  The probe measure stops once
        # its forms settle, no deeper, and within 10 SETTLE_TOL of them.
        d = np.repeat(np.geomspace(1.0, smallest, 40), 25)
        op = rr.LinearOperator.from_functions(d.size, d.size, lambda x: d * x, lambda y: d * y)
        alphas = matrix_free_grid(1.0).values
        Z = keyed_rng(1, TAG_PROBES).standard_normal((d.size, 2))
        runs = rr.golub_kahan(op, Z, alphas)
        assert [rhs.size - 1 for _, rhs, _ in runs] == [depth, depth]
        w = np.mean(Z ** 2, axis=1)
        t = d * d
        x = t / (t + alphas[:, None])
        exact = ((w * x * x).sum(axis=1), (w * x).sum(axis=1), (w * x * x / t).sum(axis=1))
        forms = sum(np.array(_probe_forms(run, alphas)) for run in runs) / 2
        m = rr.influence_path_stochastic(op, alphas, 2, seed=1, lam1=1.0)
        assert np.all(m.iterations <= depth)
        for solved, measure, ref in zip(forms, (m.frob_sq, m.trace, m.noise_amp), exact):
            np.testing.assert_allclose(solved, ref, rtol=1e-12)
            np.testing.assert_allclose(measure, ref, rtol=10 * tikhonov.SETTLE_TOL)

    @pytest.mark.parametrize("operator_kind,size", [("paralleltomo", 16), ("paralleltomo", 24),
                                                    ("diagonal", 0.01), ("diagonal", 0.1)])
    def test_probes_stop_once_their_forms_settle(self, operator_kind, size):
        # paralleltomo with the tomo_mf workload's seeds (power 3, 16 probes
        # from seed 5), and 2 probes of the 40-value diagonals above: each
        # probe's measure at its stop is within 10 SETTLE_TOL of its fully
        # converged forms (its solve to golub_kahan's tolerance), shallower,
        # and unless it broke down it reports a settle estimate <= SETTLE_TOL
        if operator_kind == "paralleltomo":
            op = rr.make_problem("paralleltomo", None, size).A
            lam1, probes, seed = rr.largest_eigenvalue(op, seed=3), 16, 5
        else:
            d = np.repeat(np.geomspace(1.0, size, 40), 25)
            op = rr.LinearOperator.from_functions(d.size, d.size, lambda x: d * x,
                                                  lambda y: d * y)
            lam1, probes, seed = 1.0, 2, 1
        alphas = matrix_free_grid(lam1).values
        Z = keyed_rng(seed, TAG_PROBES).standard_normal((op.rows, probes))
        runs = tikhonov._golub_kahan(op, Z, alphas, tikhonov.SETTLE_TOL, None, "settle",
                                     tikhonov._gauss_quadrature)
        m = rr.influence_path_stochastic(op, alphas, probes, seed, lam1=lam1)
        assert m.settle.tolist() == [settle for _, _, settle in runs]
        for ((nodes, weights, depth), residual, settle), solved in zip(
                runs, rr.golub_kahan(op, Z, alphas)):
            probe = rr.InfluencePath(alphas=alphas, nodes=nodes, weights=weights, lam1=lam1)
            for got, ref in zip((probe.frob_sq, probe.trace, probe.noise_amp),
                                _probe_forms(solved, alphas)):
                np.testing.assert_allclose(got, ref, rtol=10 * tikhonov.SETTLE_TOL, atol=0.0)
            assert depth <= solved[1].size - 1
            assert residual == 0.0 or settle <= tikhonov.SETTLE_TOL

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
        with pytest.raises(ValueError, match=f"^g must be finite, got {bad!r}$"):
            rr.spectral_path(dec, g, default_grid(float(dec.s[0]) ** 2).values)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_spectral_filters_reject_nonfinite_or_negative_alphas(self, shaw32, alpha):
        # checked once per grid: spectral_path builds its filters there
        p, dec = shaw32
        for build in (lambda grid: tikhonov.spectral_filters(dec.s, grid),
                      lambda grid: rr.spectral_path(dec, p.g_true, grid)):
            with pytest.raises(ValueError, match="alphas must be nonnegative and finite"):
                build(np.array([alpha, 1.0]))

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
