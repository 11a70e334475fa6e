"""Tikhonov solvers and influence-operator scalars, on spectral and matrix-free paths.

The spectral path works from a truncated SVD.  The matrix-free path needs only
operator applications: one Golub-Kahan bidiagonalization per right-hand side
projects the problem onto a small bidiagonal one, whose SVD then gives the
damped least-squares solution at every alpha of a grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError
from .linop import (RANK_CUTOFF, SpectralDecomposition, as_operator,
                    largest_eigenvalue)
from .rng import TAG_PROBES, keyed_rng


@dataclass
class RegularizedSolution:
    """One point of the regularization path."""

    alpha: float
    f_alpha: np.ndarray
    residual_norm: float


def solve_spectral(dec: SpectralDecomposition, g, alpha: float) -> RegularizedSolution:
    """Tikhonov solution through the SVD filter; alpha = 0 gives the pseudoinverse."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    g = np.asarray(g, dtype=float)
    if g.shape[0] != dec.U.shape[0]:
        raise ValueError("dimension mismatch between decomposition and data")
    c = dec.U.T @ g
    phi = dec.s / (dec.s * dec.s + alpha)
    f = dec.V @ (phi * c)
    r = g - dec.U @ (dec.s * phi * c)
    return RegularizedSolution(alpha=float(alpha), f_alpha=f,
                               residual_norm=float(np.linalg.norm(r)))


class _Basis:
    """Orthonormal rows, grown by doubling so only the used depth is held."""

    def __init__(self, length: int):
        self.rows, self.k = np.empty((8, length)), 0

    def extend(self, x, scale: float) -> float:
        """Orthogonalize x, append it normalized and return its norm; 0, appending
        nothing, below the rank cutoff of ``scale`` (largest alpha_k or beta_k so far)."""
        Q = self.rows[:self.k]
        for _ in range(2):
            # classical Gram-Schmidt, repeated when it cancels more than a
            # factor 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart)
            y = x - Q.T @ (Q @ x)
            if y @ y >= 0.5 * (x @ x):
                break
            x = y
        norm = float(np.sqrt(y @ y))
        if not np.isfinite(norm):
            raise ValueError("operator or right-hand side gives non-finite values")
        if norm <= RANK_CUTOFF * max(scale, norm):
            return 0.0
        if self.k == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
        self.rows[self.k] = y / norm
        self.k += 1
        return norm


def golub_kahan(A, b, alphas, tol: float = 1e-8, max_iter: int | None = None,
                relative_to_solution: bool = False):
    """Golub-Kahan bidiagonalization of A from b, deep enough for a whole alpha grid.

    Builds A V_k = U_{k+1} B_k from u_1 = b / beta1, both bases fully
    reorthogonalized.  With x = V_k y, min ||A x - b||^2 + a ||x||^2 becomes
    min ||B_k y - beta1 e1||^2 + a ||y||^2: ||A x|| = ||B_k y||, <b, A x> =
    beta1 (B_k y)_1, ||x|| = ||y|| and ||b - A x|| = ||beta1 e1 - B_k y||.
    Returns ``(dec, rhs, residual)``: the SVD P diag(s) Q^T of B_k with right
    vectors V_k Q (``dec.rank`` is k) and rhs = beta1 e1, which pose that
    problem to ``spectral_path``, and the largest normal-equation residual
    ||A^T(b - A x) - a x|| on the grid.

    Stops once that residual is at most ``tol * ||A^T b||`` at every alpha,
    or with ``relative_to_solution`` at most ``tol * a * ||x||``, which bounds
    the relative error of x by ``tol``.  The plane rotations of damped LSQR
    (Paige & Saunders 1982), one set per alpha, track both norms without
    operator applications.  A vanishing alpha_k or beta_k (an invariant
    subspace) ends the run with a zero residual; ``max_iter`` steps (default
    min(rows, cols)) raise ConvergenceError.
    """
    op = as_operator(A)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0 or np.any(~(alphas > 0)):
        raise ValueError("the Krylov path requires a nonempty grid of alphas > 0")
    max_iter = min(op.rows, op.cols) if max_iter is None else max_iter
    U, V = _Basis(op.rows), _Basis(op.cols)
    beta1 = U.extend(np.asarray(b, dtype=float), 0.0)
    a_next = scale = V.extend(op.apply_adjoint(U.rows[0]), 0.0) if beta1 else 0.0
    bound, diag, sub, residual = tol * beta1 * a_next, [], [], 0.0  # tol * ||A^T b||
    # damped LSQR per alpha, in scipy's names: left rotations give the residual,
    # a right rotation ||x||
    rhobar, phibar = np.full(alphas.size, a_next), np.full(alphas.size, beta1)
    cs2, sn2, z, xxnorm = np.full(alphas.size, -1.0), *np.zeros((3, alphas.size))
    while a_next > 0.0:
        if len(diag) == max_iter:
            raise ConvergenceError(f"Golub-Kahan did not reach tol={tol} in {max_iter} steps "
                                   f"(residual {residual:.3g})", iterations=max_iter)
        diag.append(a_next)
        b_next = U.extend(op.apply(V.rows[V.k - 1]) - a_next * U.rows[U.k - 1], scale)
        scale = max(scale, b_next)
        a_next = V.extend(op.apply_adjoint(U.rows[U.k - 1]) - b_next * V.rows[V.k - 1],
                          scale) if b_next else 0.0
        scale = max(scale, a_next)
        sub.append(b_next)
        rhobar1 = np.sqrt(rhobar * rhobar + alphas)
        phibar *= rhobar / rhobar1
        rho = np.hypot(rhobar1, b_next)
        cs, sn = rhobar1 / rho, b_next / rho
        theta, rhobar = sn * a_next, -cs * a_next
        phi, phibar = cs * phibar, sn * phibar
        arnorm = a_next * np.abs(sn * phi)
        residual = float(np.max(arnorm))
        if relative_to_solution:
            gambar = -cs2 * rho
            t = phi - sn2 * rho * z
            bound = tol * alphas * np.sqrt(xxnorm + (t / gambar) ** 2)
            gamma = np.hypot(gambar, theta)
            cs2, sn2, z = gambar / gamma, theta / gamma, t / gamma
            xxnorm += z * z
        if np.all(arnorm <= bound):
            break
    k = len(diag)
    B = (np.diag(diag + [0.0]) + np.diag(sub, -1))[:, :k]
    P, s, Qt = np.linalg.svd(B, full_matrices=False)
    rhs = np.concatenate([[beta1], np.zeros(k)])
    return SpectralDecomposition(P, s, V.rows[:k].T @ Qt.T, k), rhs, residual


@dataclass
class InfluencePath:
    """Influence scalars sampled on an alpha grid (exact or probe-estimated).

    For X_a = A (A^T A + a I)^{-1} A^T, ``sn_sq`` is the squared smallest
    singular value of X_a - I, ``frob_sq`` the squared Frobenius norm of X_a
    and ``trace`` its trace.  ``noise_amp`` is tr((A^T A + a I)^{-2} A^T A),
    the expected squared solution norm under unit white noise.  A single
    alpha is a grid of length one.

    On the stochastic path the probe vectors are frozen across the grid, so
    the sampled curves are smooth functions of alpha; ``iterations`` and
    ``normal_residual`` hold each probe's Krylov depth and final residual.
    """

    alphas: np.ndarray
    sn_sq: np.ndarray
    frob_sq: np.ndarray
    trace: np.ndarray
    noise_amp: np.ndarray
    source: str
    iterations: Optional[np.ndarray] = None
    normal_residual: Optional[np.ndarray] = None


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
                              solve_tol: float = 1e-8, lam1: float | None = None) -> InfluencePath:
    """Stochastic influence scalars over a grid with frozen probes.

    One ``golub_kahan`` run per probe z (alphas must be positive): with
    c = beta1 P[0] and x = s^2/(s^2 + a) from its projected SVD,
    w = (A^T A + a I)^{-1} A^T z has ||A w||^2 = sum x^2 c^2,
    <z, A w> = sum x c^2 and ||w||^2 = sum x/(s^2 + a) c^2.
    """
    op = as_operator(A)
    alphas = np.asarray(alphas, dtype=float)
    if probes < 1:
        raise ValueError("need at least one probe")
    if lam1 is None:
        lam1 = largest_eigenvalue(op, seed=seed)
    Z = keyed_rng(seed, TAG_PROBES).standard_normal((op.rows, probes))
    sums = np.zeros((3, alphas.size))
    iterations, residuals = np.empty(probes, dtype=int), np.empty(probes)
    for j in range(probes):
        dec, rhs, residuals[j] = golub_kahan(op, Z[:, j], alphas, tol=solve_tol)
        d = dec.s[None, :] ** 2 + alphas[:, None]
        x = dec.s ** 2 / d
        sums += np.stack([x * x, x, x / d]) @ (dec.U[0] * rhs[0]) ** 2
        iterations[j] = dec.rank
    frob, trace, namp = sums / probes
    sn = alphas / (lam1 + alphas)
    return InfluencePath(alphas=alphas, sn_sq=sn * sn, frob_sq=frob, trace=trace,
                         noise_amp=namp, source="stochastic", iterations=iterations,
                         normal_residual=residuals)


@dataclass
class SolutionPath:
    """Regularization path on an alpha grid.

    ``solutions`` holds one solution per row and may be omitted when only the
    norms are needed.  ``solve`` resolves off-grid alphas inside the grid's
    range (used by rules that refine between grid points) from the SVD the
    path was built on, with no operator application.  ``data_size`` is the
    dimension the residual lives in.  An iterative path also records its
    Krylov depth and final normal-equation residual.
    """

    alphas: np.ndarray
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    data_size: int
    solutions: Optional[np.ndarray] = None
    solve: Optional[Callable[[float], RegularizedSolution]] = None
    iterations: Optional[int] = None
    normal_residual: Optional[float] = None

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
                        solve=lambda a: solve_spectral(dec, g, a))


def iterative_path(A, g, alphas, tol: float = 1e-8) -> SolutionPath:
    """Tikhonov path from one ``golub_kahan`` run from g, every solution to
    relative accuracy ``tol`` (normal-equation residual <= tol * a * ||f||).

    The path is the spectral path of the projected problem: its right vectors
    V_k Q map solutions back to the original space, and g lies in the span of
    U_{k+1}, so residual norms, on the grid and from ``solve``, are exact."""
    dec, rhs, residual = golub_kahan(A, g, alphas, tol=tol, relative_to_solution=True)
    return replace(spectral_path(dec, rhs, alphas), data_size=np.size(g),
                   iterations=dec.rank, normal_residual=residual)
