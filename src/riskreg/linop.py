"""Linear operators (dense and matrix-free) and the spectral utilities built on them.

All routines are pure given their seed: no shared mutable state, safe for
concurrent use.
"""

from __future__ import annotations

import ctypes
import operator
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, count, real, reals
from .rng import TAG_POWER, keyed_rng

# Singular values below s1 * RANK_CUTOFF are treated as zero; this defines the
# numerical rank everywhere in the package.
RANK_CUTOFF = 1e-12


def _transpose_matmul(A, y):
    return A.T @ y


def _columnwise(fn, x):
    # a vector callable applied to a vector or to each column of a block
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=float)
    return np.column_stack([np.asarray(fn(x[:, j]), dtype=float) for j in range(x.shape[1])])


class LinearOperator:
    """A forward map together with its adjoint.

    The operator maps R^cols -> R^rows.  ``apply`` and ``apply_adjoint``
    accept a single vector or a matrix of column vectors.  Dense operators
    carry their matrix; matrix-free ones only the callables.

    Dense and sparse operators pickle (so they can be sent to worker
    processes); one built ``from_functions`` pickles only if its callables do.
    """

    def __init__(self, rows: int, cols: int, apply: Callable, apply_adjoint: Callable,
                 representation: str, matrix=None):
        if representation not in ("dense", "matrix-free"):
            raise ValueError(f"unknown representation {representation!r}")
        self.rows = int(rows)
        self.cols = int(cols)
        self._apply = apply
        self._apply_adjoint = apply_adjoint
        self.representation = representation
        self._matrix = matrix

    @classmethod
    def from_dense(cls, A) -> "LinearOperator":
        A = reals("A", A)
        if A.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(A.shape[0], A.shape[1], partial(operator.matmul, A),
                   partial(_transpose_matmul, A), "dense", matrix=A)

    @classmethod
    def from_sparse(cls, S) -> "LinearOperator":
        import scipy.sparse as sp
        S = sp.csr_matrix(S)
        St = sp.csr_matrix(S.T)
        return cls(S.shape[0], S.shape[1], partial(operator.matmul, S),
                   partial(operator.matmul, St), "matrix-free", matrix=S)

    @classmethod
    def from_functions(cls, rows: int, cols: int, apply: Callable,
                       apply_adjoint: Callable) -> "LinearOperator":
        return cls(rows, cols, partial(_columnwise, apply), partial(_columnwise, apply_adjoint),
                   "matrix-free")

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.cols:
            raise ValueError(f"expected leading dimension {self.cols}, got {x.shape[0]}")
        return self._apply(x)

    def apply_adjoint(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.rows:
            raise ValueError(f"expected leading dimension {self.rows}, got {y.shape[0]}")
        return self._apply_adjoint(y)

    def to_dense(self) -> np.ndarray:
        if self._matrix is not None:
            if _issparse(self._matrix):
                return self._matrix.toarray()
            return np.asarray(self._matrix)
        return self.apply(np.eye(self.cols))


def _issparse(A) -> bool:
    # a scipy sparse matrix can exist only once scipy.sparse is loaded, so a
    # dense caller never pays for importing it
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


def as_operator(A) -> LinearOperator:
    """Coerce an ndarray, sparse matrix or LinearOperator into a LinearOperator."""
    if isinstance(A, LinearOperator):
        return A
    if _issparse(A):
        return LinearOperator.from_sparse(A)
    return LinearOperator.from_dense(A)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Truncated SVD: nonincreasing positive singular values and orthonormal
    vectors.  A NaN or inf entry, or a singular value <= 0, is a ValueError."""

    U: np.ndarray  # (n, r)
    s: np.ndarray  # (r,)
    V: np.ndarray  # (m, r)

    def __post_init__(self):
        for name, within in (("U", None), ("s", "positive"), ("V", None)):
            reals(name, getattr(self, name), within)

    @property
    def rank(self) -> int:
        return self.s.size


def numerical_rank(s) -> int:
    """The number of nonincreasing singular values s above RANK_CUTOFF * s[0]."""
    return int(np.count_nonzero(s > RANK_CUTOFF * s[:1]))


def svd(A) -> SpectralDecomposition:
    """Full SVD of a dense operator, truncated at the relative rank cutoff."""
    op = as_operator(A)
    if op.representation != "dense":
        raise ValueError("svd requires a dense operator")
    U, s, Vt = np.linalg.svd(reals("A", op.to_dense()), full_matrices=False)
    r = numerical_rank(s)
    return SpectralDecomposition(np.ascontiguousarray(U[:, :r]),
                                 np.ascontiguousarray(s[:r]),
                                 np.ascontiguousarray(Vt[:r].T))


@cache
def bundled_openblas():
    """The OpenBLAS that numpy's wheels bundle (``numpy.libs``), already loaded
    by numpy, as a ctypes library; None where numpy bundles none."""
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return None


def _dense_bidiagonal_svd(diag, sub):
    # dbdsqr's result from numpy's SVD of the dense matrix: O(n^2) memory
    n = diag.size
    M = np.zeros((n, n))
    M[np.arange(n), np.arange(n)] = diag
    M[np.arange(1, n), np.arange(n - 1)] = sub
    P, s, _ = np.linalg.svd(M)
    return s, P[0], 0


@cache
def _dbdsqr():
    """LAPACK's dbdsqr for ``bidiagonal_svd``, from the bundled OpenBLAS (its
    64-bit LAPACKE entry point), or else numpy's SVD of the dense matrix.
    Importing scipy.linalg for it would cost a matrix-free run about 8 MB of
    resident memory and 55 ms; the bundled library is already mapped."""
    fn = getattr(bundled_openblas(), "scipy_LAPACKE_dbdsqr64_", None)
    if fn is None:
        return _dense_bidiagonal_svd
    fn.restype = ctypes.c_int64
    # (layout, uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc)
    fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_int64]

    def dbdsqr(diag, sub):
        n = diag.size
        s, e = np.array(diag, dtype=float), np.array(sub, dtype=float)  # overwritten
        p0 = np.zeros(n)
        p0[0] = 1.0  # U = e_1^T (NRU = 1), which dbdsqr overwrites with U Q
        # column-major, NCVT = NCC = 0: VT and C are not referenced
        info = fn(102, b"L", n, 0, 1, 0, s.ctypes.data, e.ctypes.data, None, 1,
                  p0.ctypes.data, 1, None, 1)
        return s, p0, info
    return dbdsqr


def bidiagonal_svd(diag, sub):
    """Singular values (nonincreasing) of the square lower bidiagonal matrix
    with diagonal ``diag`` and subdiagonal ``sub``, and the first row of its
    left singular vectors, by LAPACK's implicit zero-shift QR (dbdsqr, Demmel
    & Kahan 1990): each singular value to high relative accuracy, in O(n^2)
    time and O(n) memory, as no singular vector but that row is formed."""
    diag, sub = np.asarray(diag, dtype=float), np.asarray(sub, dtype=float)
    if diag.ndim != 1 or not diag.size or sub.shape != (diag.size - 1,):
        raise ValueError("need a diagonal of n >= 1 entries and a subdiagonal of n - 1")
    s, p0, info = _dbdsqr()(diag, sub)
    if info:
        raise ConvergenceError(f"the bidiagonal SVD failed (LAPACK info {info})")
    return s, p0


def check_solver_args(tol, max_iter):
    """ValueError unless tol is finite and > 0 and max_iter an integer >= 1."""
    real("tol", tol, "positive")
    count("max_iter", max_iter, 1)


def power_iteration(A, tol: float = 1e-8, max_iter: int = 10_000, seed: int = 0):
    """Power method on A^T A from a seeded Gaussian start vector.

    Returns (lam, v, iterations, rayleighs) where lam estimates the largest
    eigenvalue of A^T A and rayleighs is the (nondecreasing) quotient history.
    ``tol`` must be finite and > 0 and ``max_iter`` an integer >= 1.
    """
    check_solver_args(tol, max_iter)
    op = as_operator(A)
    rng = keyed_rng(seed, TAG_POWER)
    v = rng.standard_normal(op.cols)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ValueError("degenerate start vector")
    v = v / nv
    rayleighs = []
    lam = 0.0
    for k in range(1, max_iter + 1):
        z = op.apply_adjoint(op.apply(v))
        lam = float(v @ z)
        rayleighs.append(lam)
        resid = float(np.linalg.norm(z - lam * v))
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            raise DegenerateDataError("operator annihilates the start vector")
        v = z / nz
        if resid <= tol * max(lam, np.finfo(float).tiny):
            return lam, v, k, rayleighs
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations",
        last_iterate=lam, iterations=max_iter, trail=rayleighs)


def largest_eigenvalue(A, tol: float = 1e-8, max_iter: int = 10_000, seed: int = 0) -> float:
    """Largest eigenvalue of A^T A (the squared operator norm of A)."""
    lam, _, _, _ = power_iteration(A, tol=tol, max_iter=max_iter, seed=seed)
    return lam

