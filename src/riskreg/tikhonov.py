"""Tikhonov solvers and influence-operator scalars, on spectral and matrix-free paths.

The spectral path works from a truncated SVD.  The matrix-free path needs only
operator applications: a Golub-Kahan bidiagonalization of each right-hand side
(a block of them in lockstep) projects the problem onto a small bidiagonal one.
For a solution path its SVD gives the damped least-squares solution at every
alpha of a grid at once; for a probe of the influence measure a QR sweep of
its bidiagonal gives the Gauss quadrature, from the singular values and the
first row of the left singular vectors alone.  The probes' run pauses between
steps, and goes on only while the Gauss and Gauss-Radau brackets of their
quadrature leave a reader's selection open.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, count, real, reals
from .linop import (RANK_CUTOFF, SpectralDecomposition, as_operator, bidiagonal_svd,
                    check_solver_args, largest_eigenvalue, numerical_rank)
from .rng import TAG_PROBES, keyed_rng

# The tolerance and delay of a probe's stop, ``_golub_kahan``'s "settle"
# test (its docstring says how it works).  A delay of 2 stopped a probe
# 33 SETTLE_TOL short of its limit of ||w||^2 on a diagonal with 40 values from
# 1 to 0.01; at 4 no probe of that diagonal, of one from 1 to 0.1 or of
# paralleltomo 16x16 and 24x24 stopped more than 0.07 SETTLE_TOL short.
SETTLE_TOL = 1e-8
SETTLE_DELAY = 4


@dataclass
class RegularizedSolution:
    """One point of the regularization path."""

    alpha: float
    f_alpha: np.ndarray
    residual_norm: float


def solve_spectral(dec: SpectralDecomposition, g, alpha: float) -> RegularizedSolution:
    """Tikhonov solution through the SVD filter; alpha = 0 gives the pseudoinverse."""
    real("alpha", alpha, "nonnegative")
    g = reals("g", g)
    if g.shape[0] != dec.U.shape[0]:
        raise ValueError("dimension mismatch between decomposition and data")
    c = dec.U.T @ g
    phi = dec.s / (dec.s * dec.s + alpha)
    f = dec.V @ (phi * c)
    r = g - dec.U @ (dec.s * phi * c)
    return RegularizedSolution(alpha=float(alpha), f_alpha=f,
                               residual_norm=float(np.linalg.norm(r)))


def _sq_norms(X):
    """The squared norm of each row of X."""
    return np.einsum("ij,ij->i", X, X)


def _norms(sq, scale):
    """Norms from the squared norms ``sq``, zeroed at or below the rank cutoff
    of ``scale`` (each one's largest alpha_k or beta_k so far)."""
    norms = np.sqrt(sq)
    kept = norms > RANK_CUTOFF * np.maximum(scale, norms)
    if not kept.all():  # also where a norm is NaN or inf
        if not np.isfinite(norms).all():
            raise ValueError("operator or right-hand side gives non-finite values")
        norms[~kept] = 0.0
    return norms


def _normalize(X, scale):
    """``_norms`` of the rows of X; the rows whose norm is kept are normalized
    in place."""
    norms = _norms(_sq_norms(X), scale)
    X /= (norms if norms.all() else np.where(norms > 0.0, norms, 1.0))[:, None]
    return norms


def _project_out(Q, x):
    """x minus its projection on the orthonormal rows of Q: for a stack Q
    (p, k, n) and x (p, n), each row of x against its own Q[j]."""
    return x - (np.matmul(Q, x[:, :, None]).transpose(0, 2, 1) @ Q)[:, 0]


def _reorthogonalize(Q, x):
    """``_project_out``, repeated on the rows where it cancels more than a
    factor 1/sqrt(2) of the norm (classical Gram-Schmidt, twice if needed:
    Daniel, Gragg, Kaufman & Stewart).  A repeat on some rows projects each
    of them as a one-row stack, against the view Q[j:j + 1]."""
    y = _project_out(Q, x)
    again = _sq_norms(y) < 0.5 * _sq_norms(x)
    if again.all():
        y = _project_out(Q, y)
    elif again.any():
        for j in np.flatnonzero(again):
            y[j:j + 1] = _project_out(Q[j:j + 1], y[j:j + 1])
    return y


def _projected_svd(B_k, beta1, V):
    """A column's ``(dec, rhs)`` for ``spectral_path``: the SVD P diag(s) Q^T
    of its lower bidiagonal B_k (rows alpha_j, beta_{j+1}) with right vectors
    V_k Q, truncated at the numerical rank, and rhs = beta1 e1."""
    k = B_k.shape[0]
    B = np.zeros((k + 1, k))
    B[np.arange(k), np.arange(k)] = B_k[:, 0]
    B[np.arange(1, k + 1), np.arange(k)] = B_k[:, 1]
    P, s, Qt = np.linalg.svd(B, full_matrices=False)
    r = numerical_rank(s)
    rhs = np.zeros(k + 1)
    rhs[0] = beta1
    return SpectralDecomposition(P[:, :r], s[:r], (Qt[:r] @ V).T), rhs


def _gauss_quadrature(B_k, beta1, V):
    """A probe's Gauss quadrature ``(nodes, weights, depth)`` from its
    bidiagonal B_k (rows alpha_j, beta_{j+1}), with no SVD of B_k formed.

    The square lower bidiagonal [B_k | 0], diagonal alpha_1 .. alpha_k, 0 and
    subdiagonal beta_2 .. beta_{k+1}, has the singular values s_i of B_k, and
    a zero, with the same left singular vectors P.  The nodes are s_i^2 and
    the weights (beta1 P[0, i])^2 (Golub & Welsch 1969), truncated at the
    numerical rank as ``linop.svd`` truncates.  ``linop.bidiagonal_svd``
    gives each s_i to high relative accuracy and, of P, only its first row:
    no probe holds more than O(k) numbers for it."""
    k = B_k.shape[0]
    if not k:
        return np.empty(0), np.empty(0), 0
    s, p0 = bidiagonal_svd(np.append(B_k[:, 0], 0.0), B_k[:, 1])
    r = numerical_rank(s[:k])  # the zero singular value, the smallest, is dropped
    c = beta1 * p0[:r]
    return s[:r] * s[:r], c * c, k


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
    leaves the block at its own stopping test or breakdown.  Every step takes
    one path for the whole block, a single column too: a column whose u
    vanished (beta_{k+1} = 0) is carried to the end of the step as a zero row,
    with no operator application, and gets alpha_{k+1} = 0.  Only V is
    reorthogonalized (one-sided, Simon & Zha 2000), each column against its
    own basis in one stacked projection: solutions are mapped back through
    it, and only the newest u of each column is kept.  V and the bidiagonals
    share one depth-major layout and double in place together as the columns
    deepen, from 8 rows up to max_iter + 1, so past 8 rows they hold at most
    twice the k + 1 rows of the deepest column.  The probe measure
    (``influence_path_stochastic``) runs the same loop but takes Gauss
    quadrature from each B_k instead of its SVD, stops each probe on its own
    test (``_golub_kahan``) and pauses the loop between steps
    (``_golub_kahan_steps``).

    A column stops once that residual is at most ``tol * ||A^T b||`` at every
    alpha, or with ``relative_to_solution`` at most ``tol * a * ||x||``.  That
    bounds the relative error of x by ``tol`` (finite, > 0) only while tol is
    above roughly cond(A^T A + a I) times machine epsilon; below it rounding
    sets the error.  The plane rotations of damped LSQR (Paige & Saunders
    1982), one set per column and alpha, track both norms without operator
    applications; each is a numpy expression over the (column, alpha) array,
    in the scalar recurrence's order of operations, and every column runs
    both the left and the right rotations whichever test stops it.  A
    vanishing alpha_k or beta_k (an invariant subspace) ends a column with a
    zero residual; ``max_iter`` steps (an integer >= 1, default min(rows,
    cols), at most cols: V has no more directions) in any column raise
    ConvergenceError.
    """
    b = reals("b", b)
    runs = [(*run, residual) for run, residual, _ in _golub_kahan(
        A, b, alphas, tol, max_iter, "solution" if relative_to_solution else "normal",
        _projected_svd)]
    return runs if np.ndim(b) == 2 else runs[0]


def _golub_kahan(A, b, alphas, tol, max_iter, stop, finish):
    """``_golub_kahan_steps`` run to its end: its result."""
    steps = _golub_kahan_steps(A, b, alphas, tol, max_iter, stop, finish)
    while True:
        try:
            next(steps)
        except StopIteration as end:
            return end.value


def _golub_kahan_steps(A, b, alphas, tol, max_iter, stop, finish):
    """The loop of ``golub_kahan``, each column stopped by the test ``stop``,
    as a generator that pauses between steps.
    A column that stops at depth k is handed to ``finish(B_k, beta1, V_k)``:
    B_k (k x 2) holds alpha_j and beta_{j+1} of its bidiagonal in row j, V_k
    is its (k x cols) basis, both views of the loop's depth-major stacks,
    valid only during the call.  Returns, in the order of b's columns,
    ``(finished, residual, settle)``: finish's result, the largest
    normal-equation residual on the grid, and the settle estimate (0 unless
    ``stop`` is "settle").  While some column runs, it yields before each
    step ``(k, peek)``: the depth k reached, and ``peek()``, which gives in
    the order of b's columns finish's result, of a stopped column's run and
    of a running column's so far.  A resumed loop goes on with the same
    arithmetic, so its result does not depend on where it paused.

    ``stop`` is "normal" or "solution", ``golub_kahan``'s residual tests
    (without and with ``relative_to_solution``), or "settle", a probe's; it
    only picks the test, for every column runs the same rotations and keeps
    the same two quadratic forms of the damped solution x_k = V_k y_k at
    depth k.  They are all that a probe needs, the ones its Gauss quadrature
    at depth k gives: trace_k = <b, A x_k> = ||b||^2 - ||rbar_k||^2, where
    ||rbar_k||^2 = ||b - A x_k||^2 + a ||x_k||^2 (phibar^2 plus the damping
    rotations' psi^2), and noise_k = ||x_k||^2 (the right rotation's ||x||).
    Step j lowers ||rbar||^2 by exactly phi_j^2, so trace_k is summed as
    phi_1^2 + .. + phi_k^2, with no cancellation against ||b||^2.  Both forms
    grow with k toward their limits, and the error of the Gauss rule is the
    solve's CG energy-norm error, roughly its square (Golub & Meurant 2010),
    so the forms settle well before the solve converges.  A "settle" column
    stops once each has moved by at most ``tol`` of itself over the last
    SETTLE_DELAY steps at every alpha: the change over those steps estimates
    the forms' error at the older step (Hestenes & Stiefel 1952; Strakos &
    Tichy 2002), and the largest relative change is the column's settle
    estimate.  It costs the loop no operator application: both forms come
    from the rotations.  A "settle" column also stops at the "normal" test,
    or at a breakdown, if that comes first (a small operator may bring the
    solve to tol before SETTLE_DELAY steps have run), so no probe runs deeper
    than its solve needs; only then can its estimate exceed ``tol``."""
    op = as_operator(A)
    alphas = reals("alphas", alphas, "positive")
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("the Krylov path requires a nonempty grid of alphas > 0")
    max_iter = op.rows if max_iter is None else max_iter
    check_solver_args(tol, max_iter)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != op.rows:
        raise ValueError(f"right-hand side must have {op.rows} rows")
    max_iter = min(max_iter, op.cols)
    # U holds u_{k+1} of each live column times its norm ``unorm``, one per
    # column in the layout the sparse kernels read and write: the division by
    # the norm goes to the (cols x p) adjoint image and into the next update,
    # not over U.  V[:k + 1, j] holds v_1 .. v_{k+1} of live column j and
    # bidiag[:k, j] its B_k (rows alpha_i, beta_{i+1}): depth leads, so
    # ``ndarray.resize`` grows both in place (glibc's realloc remaps a large
    # block), and each column's basis is a (k x cols) matrix with a constant
    # row stride.
    U = np.array(b.reshape(op.rows, -1), order="C")
    n = U.shape[1]
    unorm = beta1 = _norms(np.einsum("ij,ij->j", U, U), 0.0)
    depth = min(8, max_iter + 1)
    V, bidiag = np.empty((depth, n, op.cols)), np.empty((depth, n, 2))
    live, residual, scale, k, runs = np.arange(n), np.zeros(n), np.zeros(n), 0, [None] * n
    settle = np.zeros(n)

    def peek():
        out = [None if run is None else run[0] for run in runs]
        for i, j in enumerate(live):
            out[j] = finish(bidiag[:k, i], beta1[i], V[:k, i])
        return out

    def step_adjoint(go, b_next):
        # v = A^T u - b_next v_k, reorthogonalized, and its norm alpha; a column
        # not in go (its u vanished) is a zero row of y and gets alpha 0
        if go.all():
            y = op.apply_adjoint(U).T / unorm[:, None]
        else:  # in the adjoint image's layout, on which the projections' rounding depends
            y = np.zeros((op.cols, n)).T
            if go.any():
                y[go] = op.apply_adjoint(U[:, go]).T / unorm[go, None]
        if k:
            y -= b_next[:, None] * V[k - 1, :n]
            y = _reorthogonalize(V[:k, :n].transpose(1, 0, 2), y)
        a = _normalize(y, np.maximum(scale, b_next))
        V[k, :n] = y
        return a

    a = step_adjoint(beta1 > 0, np.zeros(n))
    scale, done = a.copy(), a == 0.0
    bound = (tol * beta1 * a)[:, None]  # tol * ||A^T b||
    # damped LSQR per column and alpha, in scipy's names: left rotations give
    # the residual, a right rotation ||x||
    rhobar, phibar = np.outer(a, np.ones(alphas.size)), np.outer(beta1, np.ones(alphas.size))
    cs2, sn2, z, xxnorm = np.full(rhobar.shape, -1.0), *np.zeros((3, *rhobar.shape))
    # (trace_j, noise_j) of the last SETTLE_DELAY + 1 depths j, each in slot
    # j % (SETTLE_DELAY + 1) (zero before step 1)
    forms = np.zeros((SETTLE_DELAY + 1, 2, *rhobar.shape))
    while True:
        if done.any():
            for i in np.flatnonzero(done):
                runs[live[i]] = (finish(bidiag[:k, i], beta1[i], V[:k, i]), float(residual[i]),
                                 float(settle[i]))
            keep = np.flatnonzero(~done)
            for i, j in enumerate(keep):  # the kept columns move down in place
                if i != j:
                    V[:k + 1, i], bidiag[:k, i] = V[:k + 1, j], bidiag[:k, j]
            n, U = keep.size, U[:, keep]
            live, a, beta1, unorm, scale, residual, settle, bound = (
                x[keep] for x in (live, a, beta1, unorm, scale, residual, settle, bound))
            rhobar, phibar, cs2, sn2, z, xxnorm = (
                x[keep] for x in (rhobar, phibar, cs2, sn2, z, xxnorm))
            forms = forms[:, :, keep]
        if not n:
            break
        yield k, peek
        if k == max_iter:
            raise ConvergenceError(f"Golub-Kahan did not reach tol={tol} in {max_iter} steps "
                                   f"(residual {residual.max():.3g})", iterations=max_iter)
        if k + 2 > depth:
            depth = min(2 * depth, max_iter + 1)
            try:  # the loop holds each once: a second reference would refuse the resize
                V.resize((depth, *V.shape[1:]))
                bidiag.resize((depth, *bidiag.shape[1:]))
            except ValueError:  # an operator keeps a view of V, or a tracer the locals
                V, bidiag = (np.concatenate([x, np.empty((depth - x.shape[0], *x.shape[1:]))])
                             for x in (V, bidiag))
        bidiag[k, :n, 0] = a
        np.multiply(U, a / unorm, out=U)  # a_k u_k
        np.subtract(op.apply(V[k, :n].T), U, out=U)
        unorm = b_next = _norms(np.einsum("ij,ij->j", U, U), scale)
        bidiag[k, :n, 1] = b_next
        k += 1
        a = step_adjoint(b_next > 0, b_next)
        scale = np.maximum(scale, np.maximum(b_next, a))
        bn, an = b_next[:, None], a[:, None]
        # each rotation in the order of the scalar recurrence (Paige & Saunders)
        rhobar1 = np.sqrt(rhobar * rhobar + alphas)
        phibar = phibar * (rhobar / rhobar1)
        rho = np.sqrt(rhobar1 * rhobar1 + bn * bn)  # np.hypot is ~20x slower
        cs, sn = rhobar1 / rho, bn / rho
        rhobar = -cs * an
        phi, phibar = cs * phibar, sn * phibar
        arnorm = an * np.abs(sn * phi)
        residual = arnorm.max(axis=1)
        theta, gambar = sn * an, -cs2 * rho
        t = phi - sn2 * rho * z
        q = t / gambar
        gamma = np.sqrt(gambar * gambar + theta * theta)
        cs2, sn2, z = gambar / gamma, theta / gamma, t / gamma
        # the slot of depth k - SETTLE_DELAY is the next one
        now, then = forms[k % len(forms)], forms[(k + 1) % len(forms)]
        np.add(forms[(k - 1) % len(forms), 0], phi * phi, out=now[0])
        np.add(xxnorm, q * q, out=now[1])  # ||x_k||^2
        xxnorm = xxnorm + z * z
        if stop == "solution":  # bound = tol a ||x||
            bound = tol * alphas * np.sqrt(now[1])
        done = (a == 0.0) | (arnorm <= bound).all(axis=1)
        if stop == "settle":
            settle = ((now - then) / now).max(axis=(0, 2))
            done |= settle <= tol
    return runs


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
    gives a Gauss quadrature, and ``iterations``, ``normal_residual`` and
    ``settle`` hold, per probe, its Krylov depth (not its node count, which
    the numerical rank may cut), its final normal-equation residual and its
    settle estimate at its stop (``_golub_kahan``'s "settle" test).  ``lam1``,
    the alphas, nodes and weights must be finite and >= 0, the nodes and
    weights of one shape.

    The stochastic path's measure runs its probes on demand
    (``influence_path_stochastic``): ``bounds`` brackets ``frob_sq`` at the
    depth its run has reached (formed when first asked for), ``deepen``
    resumes the run, and reading any other field but ``alphas``, ``lam1``
    and ``sn_sq`` completes it.  A complete measure has no bounds to give:
    ``bounds`` is None.
    ``probe_depth`` is the depth its probes' run has reached (None without
    probes).
    """

    alphas: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    lam1: float
    iterations: Optional[np.ndarray] = None
    normal_residual: Optional[np.ndarray] = None
    settle: Optional[np.ndarray] = None

    def __post_init__(self):
        real("lam1", self.lam1, "nonnegative")
        self.alphas = reals("alphas", self.alphas, "nonnegative")
        self.nodes, self.weights = (reals(key, getattr(self, key), "nonnegative")
                                    for key in ("nodes", "weights"))
        if self.nodes.shape != self.weights.shape:
            raise ValueError(f"nodes and weights must have one shape, got {self.nodes.shape} "
                             f"and {self.weights.shape}")
        self.sn_sq, self.frob_sq, self.trace, self.noise_amp = _influence_scalars(self,
                                                                                  self.alphas)
        self.probe_depth = (None if self.iterations is None
                            else int(np.max(self.iterations, initial=0)))

    def bounds(self):
        return None


_TINY = np.finfo(float).tiny  # the smallest normal float


def _sn_sq(alphas, lam1):
    sn = alphas / (lam1 + alphas)
    return sn * sn


def _influence_scalars(m: InfluencePath, alphas):
    """(sn_sq, frob_sq, trace, noise_amp) of the measure ``m`` at ``alphas`` >= 0."""
    if not alphas.size:  # a spectrum's bare measure (``influence_measure``)
        return alphas, alphas, alphas, alphas
    t, w = m.nodes, m.weights
    d = t + alphas[..., None]
    x = t / d
    least = t.min(initial=np.inf) + alphas.min()  # the least d, as rounding is monotone
    if least * least >= _TINY:
        amp = w * t / d ** 2
    else:  # d^2 underflows where d < 1.5e-154: w x / d there
        d2 = d ** 2
        amp = np.divide(w * t, d2, out=w * x / d, where=d2 >= _TINY)
    return (_sn_sq(alphas, m.lam1) if t.size else np.ones_like(alphas),
            np.sum(w * x * x, axis=-1), np.sum(w * x, axis=-1), np.sum(amp, axis=-1))


class MeasureBound(NamedTuple):
    """One side of a bracket of a measure's ``frob_sq`` on its grid, with its
    exact ``sn_sq``: what ``risk.lower_bound_T`` reads of a measure."""

    alphas: np.ndarray
    sn_sq: np.ndarray
    frob_sq: np.ndarray


def _gauss_radau_rules(B_k, beta1):
    """A probe's two quadrature rules at depth k >= 1, each ``(nodes,
    weights)`` with every node kept: G, the k-node Gauss rule of the leading
    k x k block of its bidiagonal B_k (beta_{k+1} dropped), and R, the
    (k + 1)-node rule of [B_k | 0] (``_gauss_quadrature``'s, its node at zero
    too), a Gauss-Radau rule.  Both carry the whole mass beta1^2, and for the
    completely monotone 1/(t + a) and 1/(t + a)^2, G <= the probe's exact
    form <= R (Golub & Meurant 2010)."""
    rules = []
    for diag, sub in ((B_k[:, 0], B_k[:-1, 1]), (np.append(B_k[:, 0], 0.0), B_k[:, 1])):
        s, p0 = bidiagonal_svd(diag, sub)
        c = beta1 * p0
        rules.append((s * s, c * c))
    return rules


def _frob_sq_bounds(rules, alphas):
    """Lower and upper bounds of each probe's frob_sq (one row per probe of
    ``rules``, its (G, R) pair) at ``alphas``.  With h = (a/(t + a))^2,
    x^2 = 1 - 2a/(t + a) + h, so on the whole mass frob_sq lies between
    R(x^2) - D and G(x^2) + D, D = R(h) - G(h) >= 0.  frob_sq does not
    increase with alpha, so a bound at one alpha holds at the smaller (lower
    bound) or larger (upper bound) ones: each side is the envelope of its
    bounds over the grid, which must be increasing."""
    def forms(rule):  # rule(x^2) and rule(h) per probe, the rules padded by nodes of weight 0
        width = max(t.size for t, _ in rule)
        t, w = np.zeros((2, len(rule), width))
        for i, (ti, wi) in enumerate(rule):
            t[i, :ti.size], w[i, :wi.size] = ti, wi
        d = t[..., None] + alphas
        x, h = t[..., None] / d, alphas / d
        return np.einsum("pn,pna->pa", w, x * x), np.einsum("pn,pna->pa", w, h * h)
    (g_frob, g_h), (r_frob, r_h) = (forms(rule) for rule in zip(*rules))
    D = np.maximum(r_h - g_h, 0.0)
    lo = np.maximum.accumulate((r_frob - D)[:, ::-1], axis=1)[:, ::-1]
    return lo, np.minimum.accumulate(g_frob + D, axis=1)


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
    return InfluencePath(alphas, source.nodes, source.weights, source.lam1, source.iterations,
                         source.normal_residual, source.settle)


def influence_path_stochastic(A, alphas, probes: int, seed: int,
                              lam1: float | None = None) -> InfluencePath:
    """The measure of frozen Gaussian probes, pooled, sampled on ``alphas`` > 0.

    One Golub-Kahan run (``golub_kahan``'s loop) over the block of ``probes``
    (an integer >= 1).  For a probe z whose bidiagonal B_k has singular
    values s and left vectors P, and c = beta1 P[0],
    w = (A^T A + a I)^{-1} A^T z has ||A w||^2, <z, A w> and ||w||^2 equal to
    the sums of x^2, x and s^2/(s^2 + a)^2 against weights c^2 on the nodes
    s^2 (x = s^2/(s^2 + a)).  A probe stops once <z, A w> and ||w||^2 have
    settled at SETTLE_TOL (``_golub_kahan``'s "settle" test).  The nodes and
    weights come from LAPACK's QR sweep of B_k (``_gauss_quadrature``), which
    carries of P only its first row, so no probe forms a singular vector
    matrix or its V_k Q and its quadrature takes O(k) memory.  Each probe's
    weights are divided by ``probes``.  ``lam1`` (default: power iteration,
    which raises DegenerateDataError on a zero operator) sets sn_sq and must
    be > 0.

    The run goes only as deep as the measure's readers need.  It runs to
    depth _FIRST_CHECK here (a fault there is raised here); grid-mode ``pro``
    and ``ipro`` (``rules._grid_min_T``) then form and read its bracket of
    frob_sq and resume it until their grid argmin is certified.  Every other
    reader (``nodes``, ``weights``, ``trace``, ``frob_sq``, ``noise_amp``,
    ``iterations``, ``settle``, ``normal_residual``, ``influence_measure``
    on another grid, and the rules that read them) completes the run to each
    probe's settle stop and gets the arrays of an uninterrupted run, bit for
    bit; a fault while resuming is raised by the reader that resumes it.
    """
    op = as_operator(A)
    alphas = reals("alphas", alphas, "positive")
    count("probes", probes, 1)
    if lam1 is None:
        lam1 = largest_eigenvalue(op, seed=seed)
    real("lam1", lam1, "positive")  # given or estimated, one rule
    Z = keyed_rng(seed, TAG_PROBES).standard_normal((op.rows, probes))
    return _ProbeMeasure(op, Z, alphas, lam1)


# The depths at which a probe run still going is bracketed: _FIRST_CHECK,
# then after every max(2, k // 4) more steps.  On matrix_free_grid, with 16
# probes on paralleltomo and 32 on the n = 64 test problems, the grid
# argmins of pro and ipro are first certified at depth 9-22 of 25-26 at
# 16x16 (9-10 at 10 and 20 dB), 11-29 of 54-55 at 24x24 and 13 of 190-198
# at 32x32 (20 dB), and at 3-8 on shaw, baart, foxgood, i_laplace(1),
# deriv2 and heat(1) at 10 and 20 dB; a bracket of 16 probes costs about
# one step at 16x16.
_FIRST_CHECK = 8


def _keep_bidiagonal(B_k, beta1, V_k):
    return B_k.copy(), beta1


class _OnDemand:
    """A field of a probe measure that its run sets once complete: reading it
    before completes the run."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, m, owner=None):
        if m is None:
            return self
        m._run(None)
        return m.__dict__[self.name]


class _ProbeMeasure(InfluencePath):
    """``influence_path_stochastic``'s measure, whose probe block is paused
    between the readers that deepen it: every field but ``alphas``, ``lam1``
    and ``sn_sq`` is set once the block's run ends.  While it is paused, V
    (which doubles in place) and the rotations are held only by the paused
    loop; they go when it ends."""

    nodes, weights, iterations, normal_residual, settle, frob_sq, trace, noise_amp = (
        _OnDemand() for _ in range(8))

    def __init__(self, op, Z, alphas, lam1):
        self.alphas, self.lam1, self.sn_sq = alphas, lam1, _sn_sq(alphas, lam1)
        self._probes, self.probe_depth, self._bounds = Z.shape[1], 0, None
        self._steps = _golub_kahan_steps(op, Z, alphas, SETTLE_TOL, None, "settle",
                                         _keep_bidiagonal)
        self._fault = self._peek = None
        self._run(_FIRST_CHECK)

    def bounds(self):
        """None once the run is complete (or has failed); else (lower, upper), the
        ``MeasureBound`` sides of a bracket of frob_sq at the run's depth:
        each probe's (``_frob_sq_bounds``), pooled.  The complete run's
        frob_sq lies in it up to rounding."""
        if self._steps is None:
            return None
        if self._bounds is None:
            rules = [_gauss_radau_rules(B_k, beta1) for B_k, beta1 in self._peek() if len(B_k)]
            self._bounds = tuple(
                MeasureBound(self.alphas, self.sn_sq, side.sum(axis=0) / self._probes)
                for side in _frob_sq_bounds(rules, self.alphas))
        return self._bounds

    def deepen(self) -> None:
        """Resume the run to its next bracketed depth, or to its end."""
        self._run(self.probe_depth + max(2, self.probe_depth // 4))

    def _run(self, until):
        # resume the run until depth ``until`` or, None, to its end; at its
        # end, set the fields as an uninterrupted run does.  A fault is raised
        # again by every later reader.
        if self._fault is not None:
            raise self._fault
        self._bounds, runs = None, None
        try:
            while runs is None and (until is None or self.probe_depth < until):
                try:
                    self.probe_depth, self._peek = next(self._steps)
                except StopIteration as end:
                    runs = end.value
            if runs is not None:
                bidiagonals, residuals, settle = zip(*runs)
                nodes, weights, depths = zip(*(_gauss_quadrature(B_k, beta1, None)
                                               for B_k, beta1 in bidiagonals))
                InfluencePath.__init__(self, self.alphas, np.concatenate(nodes),
                                       np.concatenate(weights) / self._probes, self.lam1,
                                       np.array(depths), np.array(residuals), np.array(settle))
                self._steps = self._peek = None
        except Exception as exc:  # the loop is dead: no bounds, and every read raises
            self._fault, self._steps, self._peek = exc, None, None
            raise


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


def spectral_filters(s, alphas) -> tuple[np.ndarray, np.ndarray]:
    """The Tikhonov filter factors s/(s^2 + a) and (a/(s^2 + a))^2 of the
    singular values ``s`` at each alpha, one row per alpha; they hold all that
    a spectral path reads of its grid, which must be nonnegative and finite."""
    alphas = reals("alphas", alphas, "nonnegative")
    d = (s * s)[None, :] + alphas[:, None]                       # (K, r)
    psi = alphas[:, None] / d
    psi *= psi
    return np.divide(s[None, :], d, out=d), psi


def spectral_path(dec: SpectralDecomposition, g, alphas,
                  keep_solutions: bool = True) -> SolutionPath:
    """Evaluate the whole Tikhonov path at once through the SVD filter: the
    one-row stack of g through ``filtered_paths`` with ``spectral_filters``."""
    filters = spectral_filters(dec.s, alphas)
    g = reals("g", g)
    F, residual_norms, solution_norms = filtered_paths(dec, g[None], filters, keep_solutions)
    return SolutionPath(alphas=np.asarray(alphas, dtype=float), residual_norms=residual_norms[0],
                        solution_norms=solution_norms[0], data_size=g.size,
                        solutions=None if F is None else F[0],
                        solve=lambda a: solve_spectral(dec, g, a))


def filtered_paths(dec: SpectralDecomposition, G, filters, keep_solutions: bool = True):
    """The spectral paths of the rows of G on the grid of ``filters``, as stacks:
    the solutions (rows x alphas x n, or None) and the residual and solution
    norms (rows x alphas).  Each row is what its path alone gives, bit for bit:
    U^T g and the residual outside the range of U are taken a row at a time, and
    the solutions come from one batched product of the coefficient stack by
    V^T, a product per row; one product over the coefficients of all rows at
    once would not reproduce each row's."""
    G = reals("g", G)
    phi, psi = filters
    C, perp_sq = np.empty((len(G), phi.shape[1])), np.empty(len(G))
    for i, g in enumerate(G):
        C[i] = c = dec.U.T @ g
        perp = g - dec.U @ c
        perp_sq[i] = perp @ perp
    W = phi * C[:, None, :]      # the solutions' coefficients, then one scratch array
    F = np.matmul(W, dec.V.T) if keep_solutions else None
    W *= W
    solution_norms = np.sqrt(np.add.reduce(W, axis=-1))
    np.multiply(psi, (C * C)[:, None, :], out=W)
    resid_sq = np.add.reduce(W, axis=-1) + perp_sq[:, None]
    return F, np.sqrt(resid_sq), solution_norms


def iterative_path(A, g, alphas, tol: float = 1e-8) -> SolutionPath:
    """Tikhonov path from one ``golub_kahan`` run from g, every solution to
    relative accuracy ``tol`` (normal-equation residual <= tol * a * ||f||).

    The path is the spectral path of the projected problem: its right vectors
    V_k Q map solutions back to the original space, and g lies in the span of
    U_{k+1}, so residual norms, on the grid and from ``solve``, are exact."""
    dec, rhs, residual = golub_kahan(A, reals("g", g), alphas, tol, relative_to_solution=True)
    return replace(spectral_path(dec, rhs, alphas), data_size=np.size(g),
                   iterations=rhs.size - 1, normal_residual=residual)
