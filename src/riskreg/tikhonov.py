"""Tikhonov solvers and influence-operator scalars, on spectral and matrix-free paths.

The spectral path works from a truncated SVD.  The matrix-free path needs only
operator applications: a Golub-Kahan bidiagonalization of each right-hand side
(a block of them in lockstep) projects the problem onto a small bidiagonal one,
whose SVD then gives the damped least-squares solution at every alpha of a grid
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError
from .linop import (RANK_CUTOFF, SpectralDecomposition, as_operator,
                    largest_eigenvalue, numerical_rank)
from .rng import TAG_PROBES, keyed_rng


@dataclass
class RegularizedSolution:
    """One point of the regularization path."""

    alpha: float
    f_alpha: np.ndarray
    residual_norm: float


def finite_data(g) -> np.ndarray:
    """The data vector g as a float array; a NaN or inf entry is a ValueError."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("data has non-finite entries")
    return g


def solve_spectral(dec: SpectralDecomposition, g, alpha: float) -> RegularizedSolution:
    """Tikhonov solution through the SVD filter; alpha = 0 gives the pseudoinverse."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    g = finite_data(g)
    if g.shape[0] != dec.U.shape[0]:
        raise ValueError("dimension mismatch between decomposition and data")
    c = dec.U.T @ g
    phi = dec.s / (dec.s * dec.s + alpha)
    f = dec.V @ (phi * c)
    r = g - dec.U @ (dec.s * phi * c)
    return RegularizedSolution(alpha=float(alpha), f_alpha=f,
                               residual_norm=float(np.linalg.norm(r)))


def _normalize(X, scale):
    """Norms of the rows of X, zeroed at or below the rank cutoff of ``scale``
    (each row's largest alpha_k or beta_k so far); the other rows are normalized."""
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    if not np.all(np.isfinite(norms)):
        raise ValueError("operator or right-hand side gives non-finite values")
    norms[norms <= RANK_CUTOFF * np.maximum(scale, norms)] = 0.0
    X /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return norms


def _reorthogonalize(Q, x):
    """Each row x[j] minus its projection on the orthonormal rows of Q[j].

    Classical Gram-Schmidt, batched over j and repeated on the rows where it
    cancels more than a factor 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman
    & Stewart)."""
    y = x - ((Q @ x[:, :, None]).transpose(0, 2, 1) @ Q)[:, 0]
    again = ~(np.einsum("ij,ij->i", y, y) >= 0.5 * np.einsum("ij,ij->i", x, x))
    if again.any():
        Qa, ya = (Q, y) if again.all() else (Q[again], y[again])
        y[again] = ya - ((Qa @ ya[:, :, None]).transpose(0, 2, 1) @ Qa)[:, 0]
    return y


def golub_kahan(A, b, alphas, tol: float = 1e-8, max_iter: int | None = None,
                relative_to_solution: bool = False):
    """Golub-Kahan bidiagonalization of A from b, deep enough for a whole alpha grid.

    Builds A V_k = U_{k+1} B_k from u_1 = b / beta1.  With x = V_k y,
    min ||A x - b||^2 + a ||x||^2 becomes min ||B_k y - beta1 e1||^2 + a ||y||^2:
    ||A x|| = ||B_k y||, <b, A x> = beta1 (B_k y)_1, ||x|| = ||y|| and
    ||b - A x|| = ||beta1 e1 - B_k y||.  Returns ``(dec, rhs, residual)``: the
    SVD P diag(s) Q^T of B_k with right vectors V_k Q, truncated at the
    numerical rank as ``linop.svd`` truncates, and rhs = beta1 e1 (k + 1
    entries), which pose that problem to ``spectral_path``, and the largest
    normal-equation residual ||A^T(b - A x) - a x|| on the grid.

    ``b`` may also be a block of right-hand sides (rows x p); the result is
    then a list of p such triples, one per column, each as the column alone
    would give it up to rounding.  The columns advance in lockstep, with one
    ``apply`` and one ``apply_adjoint`` of the active block per step, and each
    leaves the block at its own stopping test or breakdown.  Only V is
    reorthogonalized (one-sided, Simon & Zha 2000): it is the basis solutions
    are mapped back through, and only the newest u of each column is kept,
    so the memory is p * k * cols for the V stack and no U basis is stored.

    A column stops once that residual is at most ``tol * ||A^T b||`` at every
    alpha, or with ``relative_to_solution`` at most ``tol * a * ||x||``.  That
    bounds the relative error of x by ``tol`` only while tol is above roughly
    cond(A^T A + a I) times machine epsilon; below it rounding sets the error.
    The plane rotations of damped LSQR (Paige & Saunders 1982), one set per
    column and alpha, track both norms without operator applications.  A
    vanishing alpha_k or beta_k (an invariant subspace) ends a column with a
    zero residual; ``max_iter`` steps (default min(rows, cols)) in any column
    raise ConvergenceError.
    """
    op = as_operator(A)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0 or np.any(~(alphas > 0)):
        raise ValueError("the Krylov path requires a nonempty grid of alphas > 0")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != op.rows:
        raise ValueError(f"right-hand side must have {op.rows} rows")
    max_iter = min(op.rows, op.cols) if max_iter is None else max_iter
    U = b.reshape(op.rows, -1).T.copy()  # the newest u of each column, one per row
    p = U.shape[0]
    beta1 = _normalize(U, 0.0)
    V = np.empty((p, 8, op.cols))  # V[j, :k + 1] holds v_1 .. v_{k+1} of column j
    diag, sub, scale = np.empty((p, 8)), np.empty((p, 8)), np.zeros(p)
    live, residual, k, runs = np.arange(p), np.zeros(p), 0, [None] * p

    def step_adjoint(go, b_next):
        # v = A^T u - beta v_k, reorthogonalized, for the rows in go; returns alpha
        a = np.zeros(go.size)
        if not go.any():
            return a
        go = slice(None) if go.all() else go  # a view of V, not a copy, if all go
        x = op.apply_adjoint(U[go].T).T
        if k:
            x = _reorthogonalize(V[go, :k], x - b_next[go, None] * V[go, k - 1])
        a[go] = _normalize(x, np.maximum(scale, b_next)[go])
        V[go, k] = x
        return a

    def retire(done):
        # finish the columns in done at depth k, one batched SVD of their B_k
        B = np.zeros((np.count_nonzero(done), k + 1, k))
        B[:, np.arange(k), np.arange(k)] = diag[done, :k]
        B[:, np.arange(1, k + 1), np.arange(k)] = sub[done, :k]
        P, s, Qt = np.linalg.svd(B, full_matrices=False)
        W = Qt @ V[done, :k]  # (V_k Q)^T
        for i, j in enumerate(np.flatnonzero(done)):
            rhs = np.concatenate([beta1[j:j + 1], np.zeros(k)])
            r = numerical_rank(s[i])
            runs[live[j]] = (SpectralDecomposition(P[i, :, :r], s[i, :r], W[i, :r].T),
                             rhs, float(residual[j]))

    a = step_adjoint(beta1 > 0, np.zeros(p))
    scale, done = a.copy(), a == 0.0
    bound = (tol * beta1 * a)[:, None]  # tol * ||A^T b||
    # damped LSQR per column and alpha, in scipy's names: left rotations give
    # the residual, a right rotation ||x||
    rhobar, phibar = np.outer(a, np.ones(alphas.size)), np.outer(beta1, np.ones(alphas.size))
    cs2, sn2, z, xxnorm = np.full(rhobar.shape, -1.0), *np.zeros((3, *rhobar.shape))
    tol_alphas, work = tol * alphas, None
    while True:
        if done.any():
            retire(done)
            keep = ~done
            live, U, V, a, beta1, scale, diag, sub, residual, bound = (
                x[keep] for x in (live, U, V, a, beta1, scale, diag, sub, residual, bound))
            rhobar, phibar, cs2, sn2, z, xxnorm = (
                x[keep] for x in (rhobar, phibar, cs2, sn2, z, xxnorm))
            work = None
        if not live.size:
            break
        if k == max_iter:
            raise ConvergenceError(f"Golub-Kahan did not reach tol={tol} in {max_iter} steps "
                                   f"(residual {residual.max():.3g})", iterations=max_iter)
        if k + 2 > V.shape[1]:
            V = np.concatenate([V, np.empty_like(V)], axis=1)
            diag, sub = (np.concatenate([x, np.empty_like(x)], axis=1) for x in (diag, sub))
        diag[:, k] = a
        U = op.apply(V[:, k].T).T - a[:, None] * U
        b_next = _normalize(U, scale)
        sub[:, k] = b_next
        k += 1
        a = step_adjoint(b_next > 0, b_next)
        scale = np.maximum(scale, np.maximum(b_next, a))
        bn, an = b_next[:, None], a[:, None]
        if work is None:
            # (live column, alpha) scratch for the rotations, kept until the
            # block is compacted: fresh temporaries of a wide block cost more
            # than their arithmetic
            work = np.empty((12 if relative_to_solution else 7, live.size, alphas.size))
            within = np.empty(work.shape[1:], dtype=bool)
            rhobar1, rho, cs, sn, phi, arnorm, tmp, *solution_work = work
        # rhobar1 = sqrt(rhobar^2 + a), phibar *= rhobar / rhobar1,
        # rho = sqrt(rhobar1^2 + bn^2), cs, sn = rhobar1 / rho, bn / rho,
        # rhobar = -cs an, phi, phibar = cs phibar, sn phibar and
        # arnorm = an |sn phi|, each operation in this order
        np.multiply(rhobar, rhobar, out=rhobar1)
        rhobar1 += alphas
        np.sqrt(rhobar1, out=rhobar1)
        np.divide(rhobar, rhobar1, out=tmp)
        phibar *= tmp
        np.multiply(rhobar1, rhobar1, out=rho)
        rho += bn * bn
        np.sqrt(rho, out=rho)  # np.hypot is ~20x slower
        np.divide(rhobar1, rho, out=cs)
        np.divide(bn, rho, out=sn)
        np.negative(cs, out=rhobar)
        rhobar *= an
        np.multiply(cs, phibar, out=phi)
        phibar *= sn
        np.multiply(sn, phi, out=arnorm)
        np.abs(arnorm, out=arnorm)
        arnorm *= an
        residual = np.max(arnorm, axis=1)
        if relative_to_solution:
            # theta = sn an, gambar = -cs2 rho, t = phi - sn2 rho z,
            # bound = tol a sqrt(xxnorm + (t / gambar)^2),
            # gamma = sqrt(gambar^2 + theta^2), cs2, sn2, z = (gambar, theta,
            # t) / gamma and xxnorm += z^2
            theta, gambar, t, gamma, bound = solution_work
            np.multiply(sn, an, out=theta)
            np.negative(cs2, out=gambar)
            gambar *= rho
            np.multiply(sn2, rho, out=t)
            t *= z
            np.subtract(phi, t, out=t)
            np.divide(t, gambar, out=tmp)
            tmp *= tmp
            tmp += xxnorm
            np.sqrt(tmp, out=tmp)
            np.multiply(tol_alphas, tmp, out=bound)
            np.multiply(gambar, gambar, out=gamma)
            np.multiply(theta, theta, out=tmp)
            gamma += tmp
            np.sqrt(gamma, out=gamma)
            np.divide(gambar, gamma, out=cs2)
            np.divide(theta, gamma, out=sn2)
            np.divide(t, gamma, out=z)
            np.multiply(z, z, out=tmp)
            xxnorm += tmp
        np.less_equal(arnorm, bound, out=within)
        done = (a == 0.0) | np.all(within, axis=1)
    return runs if b.ndim == 2 else runs[0]


@dataclass
class InfluencePath:
    """The spectral measure of the influence operator, sampled on an alpha grid.

    For X_a = A (A^T A + a I)^{-1} A^T and nodes t with weights w, ``frob_sq``
    = ||X_a||_F^2 = sum w x^2 and ``trace`` = tr X_a = sum w x, with
    x = t/(t + a); ``noise_amp`` = tr((A^T A + a I)^{-2} A^T A) = sum w t/(t + a)^2
    is the expected squared solution norm under unit white noise, and
    ``sn_sq`` = (a/(lam1 + a))^2 the squared smallest singular value of X_a - I.
    They are sampled once on ``alphas`` (one alpha is a grid of length one);
    ``influence_measure`` samples another grid.  A spectrum gives nodes s_i^2
    with unit weights; on the stochastic path each probe's Golub-Kahan run
    gives a Gauss quadrature, and ``iterations`` and ``normal_residual`` hold
    its Krylov depth and final residual.
    """

    alphas: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    lam1: float
    iterations: Optional[np.ndarray] = None
    normal_residual: Optional[np.ndarray] = None

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.sn_sq, self.frob_sq, self.trace, self.noise_amp = _influence_scalars(self,
                                                                                  self.alphas)


def _influence_scalars(m: InfluencePath, alphas):
    """(sn_sq, frob_sq, trace, noise_amp) of the measure ``m`` at ``alphas`` >= 0."""
    if not alphas.size:  # a spectrum's bare measure (``influence_measure``)
        return alphas, alphas, alphas, alphas
    if np.any(alphas < 0):
        raise ValueError("alpha must be nonnegative")
    t, w = m.nodes, m.weights
    d = t + alphas[..., None]
    x = t / d
    sn = alphas / (m.lam1 + alphas) if t.size else np.ones_like(alphas)
    return (sn * sn, np.sum(w * x * x, axis=-1), np.sum(w * x, axis=-1),
            np.sum(w * t / d ** 2, axis=-1))


def influence_path_exact(dec: SpectralDecomposition, alphas) -> InfluencePath:
    """The measure of a spectrum, nodes s_i^2 with unit weights, sampled on ``alphas``.

    The singular values of X_a are s_i^2/(s_i^2 + a) for the r retained modes
    and zero beyond; lam1 is s_1^2 (zero for a zero operator, whose sn_sq is 1).
    """
    t = dec.s * dec.s
    return InfluencePath(alphas=alphas, nodes=t, weights=np.ones_like(t),
                         lam1=float(t[0]) if dec.rank else 0.0)


def influence_measure(source, alphas=None) -> InfluencePath:
    """The measure of a spectrum or of an influence path, sampled on ``alphas``.

    Without ``alphas`` (or with the path's own grid array) an influence path
    is returned as it is, and a spectrum's measure comes on an empty grid."""
    if isinstance(source, SpectralDecomposition):
        return influence_path_exact(source, np.empty(0) if alphas is None else alphas)
    if alphas is None or alphas is source.alphas:
        return source
    return replace(source, alphas=alphas)


def influence_path_stochastic(A, alphas, probes: int, seed: int,
                              lam1: float | None = None) -> InfluencePath:
    """The measure of frozen Gaussian probes, pooled, sampled on ``alphas`` > 0.

    One ``golub_kahan`` run over the block of probes, at its tolerance 1e-8.
    For a probe z with projected SVD P diag(s) Q^T and c = beta1 P[0],
    w = (A^T A + a I)^{-1} A^T z has ||A w||^2, <z, A w> and ||w||^2 equal to
    the sums of x^2, x and s^2/(s^2 + a)^2 against weights c^2 on the nodes
    s^2 (x = s^2/(s^2 + a)).  Each probe's weights are divided by ``probes``.
    ``lam1`` (default: power iteration) sets sn_sq.
    """
    op = as_operator(A)
    alphas = np.asarray(alphas, dtype=float)
    if probes < 1:
        raise ValueError("need at least one probe")
    if lam1 is None:
        lam1 = largest_eigenvalue(op, seed=seed)
    Z = keyed_rng(seed, TAG_PROBES).standard_normal((op.rows, probes))
    runs = golub_kahan(op, Z, alphas, tol=1e-8)
    return InfluencePath(alphas=alphas,
                         nodes=np.concatenate([dec.s ** 2 for dec, _, _ in runs]),
                         weights=np.concatenate([(dec.U[0] * rhs[0]) ** 2
                                                 for dec, rhs, _ in runs]) / probes,
                         lam1=lam1, iterations=np.array([rhs.size - 1 for _, rhs, _ in runs]),
                         normal_residual=np.array([residual for _, _, residual in runs]))


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
    g = finite_data(g)
    alphas = np.asarray(alphas, dtype=float)
    c = dec.U.T @ g
    perp = g - dec.U @ c
    perp_sq = float(perp @ perp)
    s = dec.s
    s2 = s * s
    d = s2[None, :] + alphas[:, None]                            # (K, r)
    coef = s[None, :] / d
    coef *= c[None, :]
    w = alphas[:, None] / d
    w *= w
    w *= (c * c)[None, :]
    resid_sq = np.add.reduce(w, axis=1) + perp_sq
    w = coef * coef
    sol_norms = np.sqrt(np.add.reduce(w, axis=1))
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
                   iterations=rhs.size - 1, normal_residual=residual)
