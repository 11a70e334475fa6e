import pickle

import numpy as np
import pytest
import scipy.sparse as sp

import riskreg as rr
from riskreg import linop
from riskreg.cli import main
from riskreg.errors import ConvergenceError
from riskreg.linop import as_operator
from riskreg.problems import save_container
from riskreg.rng import keyed_rng


class TestSvd:
    def test_identity(self):
        dec = rr.svd(np.eye(4))
        np.testing.assert_allclose(dec.s, np.ones(4))
        assert dec.rank == 4

    def test_diagonal(self):
        dec = rr.svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(dec.s, [3.0, 2.0, 1.0])

    def test_reconstruction(self):
        rng = keyed_rng(7)
        A = rng.standard_normal((6, 4))
        dec = rr.svd(A)
        R = (dec.U * dec.s) @ dec.V.T
        assert np.linalg.norm(A - R) / np.linalg.norm(A) <= 1e-8

    def test_orthonormality(self, shaw32):
        _, dec = shaw32
        np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(dec.rank), atol=1e-10)
        np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(dec.rank), atol=1e-10)
        assert np.all(np.diff(dec.s) <= 0) and dec.s[-1] > 0

    def test_rank_cutoff(self):
        dec = rr.svd(np.diag([1.0, 1e-5, 1e-14]))
        assert dec.rank == 2

    def test_nonfinite_rejected(self):
        A = np.eye(3)
        A[1, 1] = np.nan
        with pytest.raises(ValueError, match="^A must be finite, got nan$"):
            rr.svd(A)

    def test_matrix_free_rejected(self):
        op = rr.LinearOperator.from_functions(2, 2, lambda x: x, lambda y: y)
        with pytest.raises(ValueError):
            rr.svd(op)


class TestOperatorForms:
    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError, match="^unknown representation 'sparse'$"):
            rr.LinearOperator(2, 2, np.negative, np.negative, "sparse")

    @pytest.mark.parametrize("A", [np.ones(3), np.ones((2, 2, 2)), 1.0])
    def test_dense_needs_a_matrix(self, A):
        with pytest.raises(ValueError, match="^expected a 2-d array$"):
            rr.LinearOperator.from_dense(A)

    def test_leading_dimension_checked(self):
        op = rr.LinearOperator.from_dense(np.ones((3, 2)))
        with pytest.raises(ValueError, match="^expected leading dimension 2, got 3$"):
            op.apply(np.ones(3))
        with pytest.raises(ValueError, match="^expected leading dimension 3, got 2$"):
            op.apply_adjoint(np.ones((2, 4)))

    def test_functions_to_dense_applies_the_identity(self):
        M = np.arange(6.0).reshape(3, 2)
        op = rr.LinearOperator.from_functions(3, 2, M.__matmul__, M.T.__matmul__)
        assert np.array_equal(op.to_dense(), M)

    def test_bare_sparse_matrix_is_matrix_free(self):
        S = sp.random(5, 4, density=0.5, random_state=keyed_rng(3), format="csc")
        op = as_operator(S)
        assert op.representation == "matrix-free" and op.shape == (5, 4)
        x, y = np.arange(4.0), np.arange(5.0)
        np.testing.assert_allclose(op.apply(x), S @ x, rtol=1e-15)
        np.testing.assert_allclose(op.apply_adjoint(y), S.T @ y, rtol=1e-15)
        assert np.array_equal(op.to_dense(), S.toarray())


class TestAdjointConsistency:
    def _check(self, op, norm_est, trials=20):
        rng = keyed_rng(13)
        for _ in range(trials):
            x = rng.standard_normal(op.cols)
            y = rng.standard_normal(op.rows)
            gap = abs(op.apply(x) @ y - x @ op.apply_adjoint(y))
            assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y) * norm_est

    def test_dense_benchmarks(self, benchmarks64):
        for p, dec in benchmarks64:
            self._check(p.A, float(dec.s[0]))

    def test_tomography(self):
        p = rr.parallel_tomo(cells_per_side=12, angles=18, rays_per_angle=17)
        norm_est = np.sqrt(rr.largest_eigenvalue(p.A, seed=1))
        self._check(p.A, norm_est)

    def test_block_apply_matches_columns(self):
        rng = keyed_rng(3)
        A = rng.standard_normal((5, 7))
        op = as_operator(A)
        X = rng.standard_normal((7, 4))
        np.testing.assert_allclose(op.apply(X),
                                   np.column_stack([op.apply(X[:, j]) for j in range(4)]))


class TestPickle:
    def test_dense_and_sparse_round_trip(self):
        rng = keyed_rng(5)
        A = rng.standard_normal((6, 4))
        A[A < 0.3] = 0.0
        x, y = rng.standard_normal((4, 3)), rng.standard_normal(6)
        ops = (rr.LinearOperator.from_dense(A), rr.LinearOperator.from_sparse(sp.csr_matrix(A)))
        for op in ops:
            back = pickle.loads(pickle.dumps(op))
            assert (back.rows, back.cols, back.representation) == (6, 4, op.representation)
            assert np.array_equal(back.apply(x), op.apply(x))
            assert np.array_equal(back.apply_adjoint(y), op.apply_adjoint(y))
            assert np.array_equal(back.to_dense(), A)

    def test_functions_pickle_only_if_their_callables_do(self):
        op = rr.LinearOperator.from_functions(3, 3, np.negative, np.negative)
        back = pickle.loads(pickle.dumps(op))
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(back.apply(x), -x)
        assert np.array_equal(back.apply_adjoint(x[:, 0]), -x[:, 0])
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(rr.LinearOperator.from_functions(3, 3, lambda v: v, lambda v: v))


class TestPowerMethod:
    def test_diagonal(self):
        assert rr.largest_eigenvalue(np.diag([2.0, 1.0]), seed=0) == pytest.approx(4.0, rel=1e-8)

    def test_identity(self):
        assert rr.largest_eigenvalue(np.eye(5), seed=0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_svd(self, shaw32):
        p, dec = shaw32
        lam = rr.largest_eigenvalue(p.A, tol=1e-10, seed=2)
        assert lam == pytest.approx(float(dec.s[0]) ** 2, rel=1e-6)

    def test_rayleigh_monotone(self):
        rng = keyed_rng(17)
        A = rng.standard_normal((30, 30))
        _, _, _, history = rr.power_iteration(A, tol=1e-12, seed=5)
        h = np.array(history)
        assert np.all(np.diff(h) >= -1e-9 * h[1:])

    def test_nonconvergence_carries_iterate(self):
        # two nearly equal top eigenvalues force slow convergence
        A = np.diag([1.0, 1.0 - 1e-12, 0.5])
        with pytest.raises(ConvergenceError) as err:
            rr.largest_eigenvalue(A, tol=1e-14, max_iter=3, seed=0)
        assert err.value.last_iterate == pytest.approx(1.0, rel=1e-2)

    @pytest.mark.parametrize("arg,value", [
        ("tol", np.nan),      # ran all 10,000 iterations, then ConvergenceError
        ("tol", np.inf),      # stopped at once: lam 2.10 on shaw 16, where s1^2 is 8.96
        ("max_iter", 2.5),    # a TypeError from range
        ("max_iter", 0),      # ConvergenceError "in 0 iterations"
        ("max_iter", -3),     # ConvergenceError "in -3 iterations"
        ("max_iter", None),   # a TypeError from range
    ])
    def test_rejects_ill_formed_solver_args(self, arg, value):
        A = rr.make_problem("shaw", None, 16).A
        with pytest.raises(ValueError, match=arg):
            rr.power_iteration(A, seed=0, **{arg: value})
        with pytest.raises(ValueError, match=arg):
            rr.largest_eigenvalue(A, seed=0, **{arg: value})


class TestBidiagonalSvd:
    @pytest.mark.parametrize("k", [1, 2, 40])
    def test_matches_dense_svd_through_either_library(self, monkeypatch, k):
        # a probe's [B_k | 0] with entries over 14 decades: the bundled
        # OpenBLAS's dbdsqr, and numpy's SVD where numpy bundles none
        rng = keyed_rng(83, k)
        entries = 10.0 ** rng.uniform(-14.0, 0.0, (k, 2))
        B = np.zeros((k + 1, k))  # the dense bidiagonal B_k
        B[np.arange(k), np.arange(k)] = entries[:, 0]
        B[np.arange(1, k + 1), np.arange(k)] = entries[:, 1]
        P, ref, _ = np.linalg.svd(B, full_matrices=False)
        solvers = [linop._dbdsqr()]
        monkeypatch.setattr(linop, "bundled_openblas", lambda: None)
        solvers.append(linop._dbdsqr.__wrapped__())
        for solve in solvers:
            s, p0, info = solve(np.append(entries[:, 0], 0.0), entries[:, 1])
            assert info == 0 and s.shape == p0.shape == (k + 1,)
            assert s[k] <= 1e-15 * s[0]   # the zero column's singular value, last
            # numpy's SVD is accurate to rounding times s1, not relative to each s_i
            np.testing.assert_allclose(s[:k], ref, rtol=0.0, atol=1e-14 * ref[0])
            np.testing.assert_allclose(p0[:k] ** 2, P[0] ** 2, rtol=0.0, atol=1e-14)
            assert float(p0 @ p0) == pytest.approx(1.0, rel=1e-14)

    def test_bundled_kernel_has_high_relative_accuracy(self):
        # the product of the singular values of a square bidiagonal is that of
        # its |diagonal|; numpy's SVD of this matrix returns a zero among them
        if linop._dbdsqr() is linop._dense_bidiagonal_svd:
            pytest.skip("numpy bundles no OpenBLAS with dbdsqr")
        rng = keyed_rng(83)
        diag, sub = 10.0 ** rng.uniform(-14.0, 0.0, 40), 10.0 ** rng.uniform(-14.0, 0.0, 39)
        s, _ = linop.bidiagonal_svd(diag, sub)
        assert np.sum(np.log(s)) == pytest.approx(np.sum(np.log(diag)), rel=0.0, abs=1e-12)

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="subdiagonal"):
            linop.bidiagonal_svd(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="subdiagonal"):
            linop.bidiagonal_svd(np.zeros(0), np.zeros(0))


@pytest.fixture
def failing_dbdsqr(monkeypatch):
    """dbdsqr reporting that it did not converge (LAPACK info 1)."""
    solve = linop._dbdsqr()
    monkeypatch.setattr(linop, "_dbdsqr", lambda: lambda diag, sub: (*solve(diag, sub)[:2], 1))


class TestBidiagonalSvdFailure:
    """A nonzero LAPACK info is a ConvergenceError, exit 4 from the CLI."""

    def test_probe_measure_raises(self, failing_dbdsqr):
        with pytest.raises(ConvergenceError, match="LAPACK info 1"):
            rr.influence_path_stochastic(rr.make_problem("shaw", None, 16).A, [1e-3], 2, 0).trace

    def test_matrix_free_select_exits_4(self, failing_dbdsqr, tmp_path, capsys):
        p = rr.make_problem("shaw", None, 16)
        path = tmp_path / "data.rr"
        save_container(path, problem=p, noisy=rr.add_noise(p, 20.0, seed=0))
        assert main(["select", "--data", str(path), "--rule", "upre", "--matrix-free"]) == 4
        assert capsys.readouterr() == (
            "", "error: the bidiagonal SVD failed (LAPACK info 1)\n")


def _probe_stats(A, alpha, probes, seed):
    # lam1 only sets sn_sq, which these tests do not read
    return rr.influence_path_stochastic(A, [alpha], probes, seed, lam1=1.0)


class TestInfluenceEstimators:
    def test_zero_operator(self):
        stats = _probe_stats(np.zeros((6, 4)), 1.0, probes=8, seed=0)
        assert stats.frob_sq[0] == 0.0
        assert stats.trace[0] == 0.0

    def test_identity_closed_form(self):
        # filter value is 1/2 per mode at alpha = 1, so frob -> 8/4, trace -> 8/2
        stats = _probe_stats(np.eye(8), 1.0, probes=2000, seed=4)
        assert stats.frob_sq[0] == pytest.approx(2.0, rel=0.05)
        assert stats.trace[0] == pytest.approx(4.0, rel=0.05)

    def test_matches_svd_on_shaw(self, shaw64):
        p, dec = shaw64
        alpha = 1e-3
        s2 = dec.s ** 2
        frob_exact = float(np.sum((s2 / (s2 + alpha)) ** 2))
        tr_exact = float(np.sum(s2 / (s2 + alpha)))
        stats = _probe_stats(p.A, alpha, 200, seed=0)
        assert stats.frob_sq[0] == pytest.approx(frob_exact, rel=0.05)
        assert stats.trace[0] == pytest.approx(tr_exact, rel=0.05)

    def test_deterministic_given_seed(self):
        rng = keyed_rng(31)
        A = rng.standard_normal((9, 9))
        a = _probe_stats(A, 0.5, probes=16, seed=42).frob_sq[0]
        b = _probe_stats(A, 0.5, probes=16, seed=42).frob_sq[0]
        assert a == b
        assert a != _probe_stats(A, 0.5, probes=16, seed=43).frob_sq[0]

    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0])
    def test_unbiased_over_seeds(self, shaw32, alpha):
        p, dec = shaw32
        s2 = dec.s ** 2
        frob_exact = float(np.sum((s2 / (s2 + alpha)) ** 2))
        tr_exact = float(np.sum(s2 / (s2 + alpha)))
        frobs, traces = [], []
        for seed in range(50):
            stats = _probe_stats(p.A, alpha, probes=20, seed=seed)
            frobs.append(stats.frob_sq[0])
            traces.append(stats.trace[0])
        for samples, exact in ((frobs, frob_exact), (traces, tr_exact)):
            samples = np.array(samples)
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - exact) <= 3.0 * se
