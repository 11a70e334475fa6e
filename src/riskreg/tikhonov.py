"""Tikhonov solvers and influence-operator scalars, on spectral and matrix-free paths.

The spectral path works from a truncated SVD; the iterative path needs only
operator applications and realizes the same damped least-squares solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConvergenceError
from .linop import (SpectralDecomposition, as_operator, influence_probe_stats,
                    largest_eigenvalue)


@dataclass
class RegularizedSolution:
    """One point of the regularization path."""

    alpha: float
    f_alpha: np.ndarray
    residual_norm: float
    path: str  # "spectral" | "iterative"


def _filter_factors(s: np.ndarray, alpha: float) -> np.ndarray:
    # s / (s^2 + alpha); at alpha = 0 this is the pseudoinverse 1/s.
    return s / (s * s + alpha)


def solve_spectral(dec: SpectralDecomposition, g, alpha: float) -> RegularizedSolution:
    """Tikhonov solution through the SVD filter; alpha = 0 gives the pseudoinverse."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    g = np.asarray(g, dtype=float)
    if g.shape[0] != dec.U.shape[0]:
        raise ValueError("dimension mismatch between decomposition and data")
    c = dec.U.T @ g
    phi = _filter_factors(dec.s, alpha)
    f = dec.V @ (phi * c)
    r = g - dec.U @ (dec.s * phi * c)
    return RegularizedSolution(alpha=float(alpha), f_alpha=f,
                               residual_norm=float(np.linalg.norm(r)), path="spectral")


def solve_iterative(A, g, alpha: float, tol: float = 1e-8, x0=None,
                    max_iter: int | None = None) -> RegularizedSolution:
    """Damped least-squares solve without a decomposition (LSQR under the hood).

    Minimizes ||A f - g||^2 + alpha ||f||^2; convergence is measured by the
    relative residual of the normal equations A^T(g - A f) = alpha f.
    """
    if alpha <= 0:
        raise ValueError("the iterative path requires alpha > 0")
    op = as_operator(A)
    g = np.asarray(g, dtype=float)
    if max_iter is None:
        max_iter = 10 * min(op.rows, op.cols)
    atg = op.apply_adjoint(g)
    target = tol * max(np.linalg.norm(atg), np.finfo(float).tiny)

    def normal_residual(f):
        return np.linalg.norm(op.apply_adjoint(g - op.apply(f)) - alpha * f)

    # Solve for the correction d = f - x0 on the explicitly augmented system
    # [A; sqrt(alpha) I]; plain damped lsqr with a start vector would penalize
    # ||d|| instead of ||f||.
    sqa = np.sqrt(alpha)
    n, m = op.rows, op.cols
    aug = spla.LinearOperator(
        shape=(n + m, m),
        matvec=lambda d: np.concatenate([op.apply(d), sqa * d]),
        rmatvec=lambda y: op.apply_adjoint(y[:n]) + sqa * y[n:])
    x_base = np.zeros(m) if x0 is None else np.asarray(x0, dtype=float)
    f = None
    inner_tol = min(tol * 1e-2, 1e-10)
    for attempt in range(3):
        rhs = np.concatenate([g - op.apply(x_base), -sqa * x_base])
        d = spla.lsqr(aug, rhs, atol=inner_tol, btol=inner_tol,
                      conlim=0.0, iter_lim=max_iter * (attempt + 1))[0]
        f = x_base + d
        if normal_residual(f) <= target:
            break
        x_base = f
        inner_tol *= 1e-3
    else:
        raise ConvergenceError(
            f"lsqr did not reach normal-equation tolerance {tol}",
            last_iterate=f)
    r = g - op.apply(f)
    return RegularizedSolution(alpha=float(alpha), f_alpha=f,
                               residual_norm=float(np.linalg.norm(r)), path="iterative")


@dataclass
class InfluencePath:
    """Influence scalars sampled on an alpha grid (exact or probe-estimated).

    For X_a = A (A^T A + a I)^{-1} A^T, ``sn_sq`` is the squared smallest
    singular value of X_a - I, ``frob_sq`` the squared Frobenius norm of X_a
    and ``trace`` its trace.  ``noise_amp`` is tr((A^T A + a I)^{-2} A^T A),
    the expected squared solution norm under unit white noise.  A single
    alpha is a grid of length one.

    On the stochastic path the probe vectors are frozen across the grid, so
    the sampled curves are smooth functions of alpha.
    """

    alphas: np.ndarray
    sn_sq: np.ndarray
    frob_sq: np.ndarray
    trace: np.ndarray
    noise_amp: np.ndarray
    source: str


def influence_path_exact(dec: SpectralDecomposition, alphas) -> InfluencePath:
    """Influence scalars from the spectrum.

    The singular values of X_a are s_i^2/(s_i^2 + a) for the r retained modes
    and zero beyond; the smallest singular value of X_a - I is taken as
    a/(s_1^2 + a) in all cases.
    """
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas < 0):
        raise ValueError("alpha must be nonnegative")
    s2 = dec.s * dec.s
    x = s2[None, :] / (s2[None, :] + alphas[:, None])
    sn = alphas / (s2[0] + alphas) if dec.rank else np.ones_like(alphas)
    return InfluencePath(alphas=alphas, sn_sq=sn * sn,
                         frob_sq=np.sum(x * x, axis=1), trace=np.sum(x, axis=1),
                         noise_amp=np.sum(s2[None, :] / (s2[None, :] + alphas[:, None]) ** 2,
                                          axis=1),
                         source="exact")


def influence_path_stochastic(A, alphas, probes: int, seed: int,
                              solve_tol: float = 1e-8, lam1: float | None = None,
                              max_iter: int | None = None) -> InfluencePath:
    """Stochastic influence scalars over a grid with frozen probes.

    The grid is traversed from the largest alpha down, warm-starting each
    probe solve with the previous block.
    """
    op = as_operator(A)
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0):
        raise ValueError("stochastic influence requires positive alphas")
    if lam1 is None:
        lam1 = largest_eigenvalue(op, seed=seed)
    K = alphas.size
    frob = np.empty(K)
    trace = np.empty(K)
    namp = np.empty(K)
    W = None
    for k in range(K - 1, -1, -1):
        stats = influence_probe_stats(op, float(alphas[k]), probes, seed,
                                      solve_tol=solve_tol, x0=W, max_iter=max_iter)
        W = stats["W"]
        frob[k] = stats["frob_sq"]
        trace[k] = stats["trace"]
        namp[k] = stats["noise_amp"]
    sn = alphas / (lam1 + alphas)
    return InfluencePath(alphas=alphas, sn_sq=sn * sn, frob_sq=frob, trace=trace,
                         noise_amp=namp, source="stochastic")


@dataclass
class SolutionPath:
    """Regularization path on an alpha grid.

    ``solutions`` holds one solution per row and may be omitted when only the
    norms are needed.  ``solve`` resolves off-grid alphas (used by rules that
    refine between grid points).  ``data_size`` is the dimension the residual
    lives in.
    """

    alphas: np.ndarray
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    data_size: int
    solutions: Optional[np.ndarray] = None
    solve: Optional[Callable[[float], RegularizedSolution]] = None
    kind: str = "spectral"

    def __len__(self):
        return self.alphas.size


def spectral_path(dec: SpectralDecomposition, g, alphas,
                  keep_solutions: bool = True) -> SolutionPath:
    """Evaluate the whole Tikhonov path at once through the SVD filter."""
    g = np.asarray(g, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    c = dec.U.T @ g
    perp = g - dec.U @ c
    perp_sq = float(perp @ perp)
    s = dec.s
    s2 = s * s
    phi = s[None, :] / (s2[None, :] + alphas[:, None])          # (K, r)
    coef = phi * c[None, :]
    resid_sq = np.sum(((alphas[:, None] / (s2[None, :] + alphas[:, None])) ** 2)
                      * (c * c)[None, :], axis=1) + perp_sq
    sol_norms = np.linalg.norm(coef, axis=1)
    F = coef @ dec.V.T if keep_solutions else None
    return SolutionPath(alphas=alphas, residual_norms=np.sqrt(resid_sq),
                        solution_norms=sol_norms, data_size=g.size, solutions=F,
                        solve=lambda a: solve_spectral(dec, g, a), kind="spectral")


def iterative_path(A, g, alphas, tol: float = 1e-8) -> SolutionPath:
    """Tikhonov path via repeated damped least-squares solves, warm-started downhill."""
    op = as_operator(A)
    g = np.asarray(g, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    K = alphas.size
    F = np.empty((K, op.cols))
    resid = np.empty(K)
    x0 = None
    for k in range(K - 1, -1, -1):
        sol = solve_iterative(op, g, float(alphas[k]), tol=tol, x0=x0)
        F[k] = sol.f_alpha
        resid[k] = sol.residual_norm
        x0 = sol.f_alpha
    return SolutionPath(alphas=alphas, residual_norms=resid,
                        solution_norms=np.linalg.norm(F, axis=1), data_size=g.size,
                        solutions=F,
                        solve=lambda a: solve_iterative(op, g, a, tol=tol), kind="iterative")
