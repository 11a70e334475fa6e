"""Parameter-choice rules behind one interface.

Two families share the machinery:

- lower-bound minimization: ``pro`` (signal and noise energies known),
  ``pro_estimated`` (noise known, signal energy estimated from the data) and
  ``ipro`` (neither known; alternate between estimating the signal-to-noise
  ratio from the residual and reminimizing);
- classical rules on a sampled regularization path: ``dp``, ``upre``, ``bp``,
  ``gcv``, ``lc`` and ``qoc``.

Rules used inside the replicate harness operate in grid mode: they select a
point of the shared path, so their error can never beat the path oracle.

The public functions select on one path; ``select`` calls them directly.
``RULES`` maps each rule name to its block form, which selects for a
``PathBlock``, many replicates' paths on one grid at once, as the replicate
harness does: ``pro``, ``ipro``, ``dp``, ``upre``, ``gcv`` and ``lc`` from
residual and solution norms on the grid, ``bp`` and ``qoc``
(``NEEDS_SOLUTIONS``) from the stacked solutions.  Each computes its objective
and index row-wise, in one function that the single-path rule calls on its one
row, so a block row selects what its path alone would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DegenerateDataError
from .problems import snr_db
from .risk import SEARCH_CAP, lower_bound_T, minimize_T
from .tikhonov import InfluencePath, SolutionPath, influence_measure

# Relative residual below which the noise level is considered unidentifiable
# (the residual is then dominated by floating-point rounding).
RESIDUAL_FLOOR = 1e-14

# Largest number of solution-difference entries ``bp`` holds at once.
_BP_BLOCK_ELEMENTS = 1 << 15


@dataclass
class RuleSelection:
    """A chosen regularization parameter with its diagnostic trail."""

    rule: str
    alpha: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = self.diagnostics
        payload = {
            "rule": self.rule,
            "alpha": self.alpha,
            "xi_hat": d.get("xi_hat"),
            "rho2_hat": d.get("rho2_hat"),
            "sigma2_hat": d.get("sigma2_hat"),
            "iterations": d.get("iterations"),
            "flags": d.get("flags", []),
        }
        if "trail" in d:
            payload["trail"] = [float(a) for a in d["trail"]]
        return json.dumps(payload)


def argmin_last(values):
    """Index of the minimum of grid samples along the last axis; ties go to the
    largest alpha.  An int for one row of samples, an array for a block of rows."""
    v = np.asarray(values)
    idx = v.shape[-1] - 1 - v[..., ::-1].argmin(axis=-1)
    return int(idx) if v.ndim == 1 else idx


def nearest_index(alphas, alpha: float) -> int:
    """Index of the grid point nearest to ``alpha`` on a log scale."""
    return int(np.argmin(np.abs(np.log(alphas) - np.log(alpha))))


def _on_grid(rule: str, alphas, idx: int, **diagnostics) -> RuleSelection:
    """The selection of grid point ``idx``: its alpha and index, with no flags
    unless ``diagnostics`` names some."""
    return RuleSelection(rule=rule, alpha=float(alphas[idx]),
                         diagnostics={"flags": [], **diagnostics, "grid_index": int(idx)})


def _check_increasing(alphas) -> None:
    """The rules that read a grid's order (``dp``, ``bp``, ``lc``, ``qoc``, grid-mode
    ``pro`` and ``ipro``) need it strictly increasing."""
    if not np.all(alphas[1:] > alphas[:-1]):
        raise ValueError("the grid of alphas must be strictly increasing")


def _column(x):
    """A scalar or a vector of per-row values as a column against grid samples."""
    return np.asarray(x)[..., None]


def _grid_min_T(m: InfluencePath, rho2, sigma2):
    """The lower bound on m's grid for each row of (rho2, sigma2), its argmin
    and whether that is a grid edge."""
    values = lower_bound_T(_column(rho2), _column(sigma2), m)
    idx = argmin_last(values)
    return values, idx, (idx == 0) | (idx == m.alphas.size - 1)


def _select_min_T(source, rho2: float, sigma2: float) -> RuleSelection:
    """Minimize the lower bound: continuous on a spectrum, grid argmin on an
    influence path's grid."""
    m = influence_measure(source)
    h = sigma2 / rho2
    if not m.alphas.size:
        res = minimize_T(m, h)
        return RuleSelection(rule="pro", alpha=res.alpha_star, diagnostics={
            "h": h, "objective": res.objective * rho2, "iterations": res.iterations,
            "converged": res.converged, "flags": (["boundary"] if res.at_boundary else [])})
    _check_increasing(m.alphas)
    values, idx, edge = _grid_min_T(m, rho2, sigma2)
    return _on_grid("pro", m.alphas, idx, h=h, objective=float(values[idx]),
                    objective_samples=values, flags=["grid_edge"] if edge else [])


def pro(source, rho2: float, sigma2: float, n: Optional[int] = None) -> RuleSelection:
    """Minimize the predictive-risk lower bound for known (rho2, sigma2)."""
    if not (0 < rho2 < np.inf and 0 < sigma2 < np.inf):
        raise ValueError("need finite rho2 > 0 and sigma2 > 0")
    sel = _select_min_T(source, rho2, sigma2)
    sel.diagnostics.update(rho2_hat=rho2, sigma2_hat=sigma2)
    if n is not None:
        sel.diagnostics["xi_hat"] = snr_db(rho2, sigma2, n)
    return sel


def _signal_energy(g_sq, n: int, sigma2):
    """The estimate ||g||^2 - n sigma2 of the exact data energy, row-wise."""
    return g_sq - n * sigma2


def pro_estimated(source, g, sigma2: float, on_degenerate: str = "raise") -> RuleSelection:
    """Lower-bound rule with the signal energy estimated as ||g||^2 - n sigma2.

    The estimator is unbiased for the exact data energy.  When it comes out
    nonpositive the data is indistinguishable from pure noise; the default is
    to raise, ``on_degenerate="max_alpha"`` opts into maximal smoothing.
    """
    if not 0 < sigma2 < np.inf:
        raise ValueError("sigma2 must be positive and finite")
    g = np.asarray(g, dtype=float)
    n = g.size
    rho2_hat = _signal_energy(float(g @ g), n, sigma2)
    if rho2_hat <= 0:
        if on_degenerate == "max_alpha":
            m = influence_measure(source)
            _check_increasing(m.alphas)
            alpha = float(m.alphas[-1]) if m.alphas.size else SEARCH_CAP * m.lam1
            return RuleSelection(rule="pro", alpha=alpha, diagnostics={
                "rho2_hat": rho2_hat, "sigma2_hat": sigma2,
                "flags": ["degenerate_snr", "fallback_max_alpha"]})
        raise DegenerateDataError(
            "estimated signal energy is nonpositive (data looks like pure noise)")
    return pro(source, rho2_hat, sigma2, n)


# the outcome of one row of ipro's fixed-point iteration
_SETTLED, _UNSETTLED, _AT_FLOOR, _EXHAUSTS = range(4)
IPRO_MAX_ITER = 100


def _ipro_rows(alpha, g_sq, n: int, residual_sq, step, max_iter: int):
    """ipro's fixed-point iteration for rows of data at once, as each row alone.

    ``alpha`` holds the rows' starts, ``residual_sq(rows, alpha)`` gives the
    squared residual norms of the rows ``rows`` at their alphas, and
    ``step(rho2, sigma2)`` the lower-bound minimizers of rows of estimates.  A
    row stops once it settles, or when its residual falls below floating-point
    resolution or exhausts the data energy; a row still moving after
    ``max_iter`` steps is _UNSETTLED.  Returns each row's final alpha and
    outcome, and per step the rows that took it, their new alphas and their
    h = sigma2/rho2.
    """
    floor_sq = (RESIDUAL_FLOOR ** 2) * g_sq
    # the rows still iterating, with their alphas, data energies and floors
    rows, at, g_rows, floor_rows = np.arange(alpha.size), alpha, g_sq, floor_sq
    alpha, status, history = alpha.copy(), np.full(alpha.size, _UNSETTLED), []
    for _ in range(max_iter):
        r_sq = residual_sq(rows, at)
        sigma2, rho2 = r_sq / n, g_rows - r_sq
        at_floor = r_sq <= floor_rows
        stop = at_floor | (rho2 <= 0.0)
        if stop.any():
            status[rows[stop]] = np.where(at_floor[stop], _AT_FLOOR, _EXHAUSTS)
            alpha[rows[stop]] = at[stop]
            go = ~stop
            rows, at, g_rows, floor_rows, sigma2, rho2 = (
                x[go] for x in (rows, at, g_rows, floor_rows, sigma2, rho2))
            if not rows.size:
                break
        new = step(rho2, sigma2)
        settled = np.abs(new - at) <= 1e-16 * new + 4.0 * np.spacing(new)
        history.append((rows, new, sigma2 / rho2))
        at = new
        if settled.any():
            status[rows[settled]] = _SETTLED
            alpha[rows[settled]] = at[settled]
            go = ~settled
            rows, at, g_rows, floor_rows = (x[go] for x in (rows, at, g_rows, floor_rows))
            if not rows.size:
                break
    alpha[rows] = at
    return alpha, status, history


def _grid_ipro(m: InfluencePath, residual_norms):
    """``_ipro_rows``' residual and step on m's grid, the residuals read from
    rows of path residual norms on that grid; every alpha is a grid point."""
    def residual_sq(rows, alpha):
        r = residual_norms[rows, m.alphas.searchsorted(alpha)]
        return r * r
    return residual_sq, lambda rho2, sigma2: m.alphas[_grid_min_T(m, rho2, sigma2)[1]]


def ipro(source, g, alpha_init: Optional[float] = None, max_iter: int = IPRO_MAX_ITER,
         path: Optional[SolutionPath] = None) -> RuleSelection:
    """Alternate between SNR estimation from the residual and lower-bound
    minimization until the parameter stops moving.

    At each step sigma2 <- ||r||^2/n and rho2 <- ||g||^2 - ||r||^2 are taken at
    the current alpha, then alpha is reminimized.  The iterate sequence is
    monotone; it stops when |a_k - a_{k-1}| <= 1e-16 a_k, with a floor of a few
    ulps of a_k so the loop terminates once the fixed point is resolved to
    floating-point precision.

    On an influence path (grid mode) the residual is read from ``path``, a
    solution path on the same grid; on a spectrum it is evaluated at any alpha.
    ``max_iter`` is an integer >= 0; at 0 no step runs, so the rule does not settle.
    """
    if alpha_init is not None and not 0 < alpha_init < np.inf:
        raise ValueError("alpha_init must be positive and finite")
    if not (isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool)
            and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    g = np.asarray(g, dtype=float)
    g_sq, n = float(g @ g), g.size
    if isinstance(source, InfluencePath) and source.alphas.size:
        m = source
        _check_increasing(m.alphas)
        if path is None:
            raise ValueError("grid mode needs a solution path to evaluate residuals")
        if path.alphas.shape != m.alphas.shape:
            raise ValueError("influence path and solution path use different grids")
        alpha_init = m.alphas[len(m.alphas) // 2 if alpha_init is None
                              else nearest_index(m.alphas, alpha_init)]
        residual_sq, step = _grid_ipro(m, path.residual_norms[None])
    else:
        c = source.U.T @ g
        c_sq, s2 = c * c, source.s * source.s
        # vector form avoids the catastrophic cancellation of ||g||^2 - ||c||^2
        perp = g - source.U @ c
        perp_sq = float(perp @ perp)
        if alpha_init is None:
            try:
                s1_sq = float(source.s[0]) ** 2
                alpha_init = np.sqrt((1e-12 * s1_sq) * (0.5 * s1_sq))
            except OverflowError:  # s1^2 itself is beyond the float range
                alpha_init = np.inf
            if not np.isfinite(alpha_init):
                raise DegenerateDataError(
                    f"the default start sqrt(1e-12 s1^2 * 0.5 s1^2) overflows at "
                    f"s1 = {source.s[0]:.3g}; pass alpha_init")
        m = influence_measure(source)  # after the check: an overflowed s1^2 is no measure

        def residual_sq(rows, alpha):
            a = _column(alpha)
            return np.sum((a / (s2 + a)) ** 2 * c_sq, axis=-1) + perp_sq

        def step(rho2, sigma2):
            return np.array([minimize_T(m, h).alpha_star for h in sigma2 / rho2])

    alpha, status, history = _ipro_rows(np.array([float(alpha_init)]), np.array([g_sq]), n,
                                        residual_sq, step, max_iter)
    trail = [float(alpha_init)] + [float(new[0]) for _, new, _ in history]
    if status[0] == _AT_FLOOR:
        exc = DegenerateDataError(
            "residual below floating-point resolution: noise level is "
            "unidentifiable (zero is not a meaningful fixed point)")
        exc.trail = trail
        raise exc
    if status[0] == _EXHAUSTS:
        raise DegenerateDataError("residual exhausts the data energy")
    if status[0] == _UNSETTLED:
        raise ConvergenceError("iterative rule did not settle", last_iterate=trail[-1],
                               iterations=len(history), trail=trail)
    r_sq = float(residual_sq(np.arange(1), alpha)[0])
    rho2_hat, sigma2_hat = g_sq - r_sq, r_sq / n
    return RuleSelection(rule="ipro", alpha=trail[-1], diagnostics={
        "trail": trail, "h_trail": [float(h[0]) for _, _, h in history],
        "iterations": len(history), "rho2_hat": rho2_hat, "sigma2_hat": sigma2_hat,
        "xi_hat": snr_db(rho2_hat, sigma2_hat, n), "flags": [],
        "grid_index": int(m.alphas.searchsorted(trail[-1])) if m.alphas.size else None})


def _dp_rows(residual_norms, data_size: int, sigma):
    """Per row, the target sqrt(n) sigma, the first grid index whose residual
    reaches it, whether none does and whether the first grid point does."""
    target = np.sqrt(data_size) * sigma
    reached = residual_norms >= _column(target)
    j, saturated = reached.argmax(axis=-1), ~reached.any(axis=-1)
    return target, j, saturated, ~saturated & (j == 0)


def dp(path: SolutionPath, sigma: float, refine: bool = True) -> RuleSelection:
    """Discrepancy principle: match the residual norm to sqrt(n) * sigma.

    Picks the smallest grid alpha whose residual reaches the target, bisecting
    between neighbors when a resolver is available.  If the target is never
    reached the largest alpha is returned with a saturation flag.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    _check_increasing(path.alphas)
    target, j, saturated, at_grid_min = _dp_rows(path.residual_norms, path.data_size, sigma)
    if saturated:
        return _on_grid("dp", path.alphas, len(path) - 1, target=target,
                        flags=["saturated_max"])
    flags = []
    j = int(j)
    alpha = float(path.alphas[j])
    if at_grid_min:
        flags.append("at_grid_min")
    elif refine and path.solve is not None:
        lo, hi = float(path.alphas[j - 1]), alpha
        for _ in range(80):
            if (hi - lo) <= 1e-6 * hi:
                break
            mid = math.sqrt(lo * hi)
            if mid == math.inf:  # lo * hi overflows once alpha passes about 1e154
                mid = math.sqrt(lo) * math.sqrt(hi)
            if path.solve(mid).residual_norm >= target:
                hi = mid
            else:
                lo = mid
        alpha = hi
    return RuleSelection(rule="dp", alpha=alpha,
                         diagnostics={"target": target, "flags": flags, "grid_index": j})


def _upre_rows(residual_norms, data_size: int, trace, sigma2):
    """Per row, upre's objective on the grid and its argmin."""
    values = residual_norms ** 2 - 2.0 * _column(sigma2) * (data_size - trace)
    return values, argmin_last(values)


def upre(path: SolutionPath, trace_source, sigma2: float) -> RuleSelection:
    """Unbiased predictive-risk estimate: ||r||^2 - 2 sigma2 tr(I - X_a), on the grid."""
    if not 0 <= sigma2 < np.inf:
        raise ValueError("sigma2 must be nonnegative and finite")
    tr = influence_measure(trace_source, path.alphas).trace
    values, idx = _upre_rows(path.residual_norms, path.data_size, tr, sigma2)
    return _on_grid("upre", path.alphas, idx, objective_samples=values)


def _gcv_rows(residual_norms, data_size: int, trace):
    """Per row, gcv's objective on the grid and its argmin."""
    denom = (data_size - trace) ** 2
    values = residual_norms ** 2 / np.maximum(denom, np.finfo(float).tiny)
    return values, argmin_last(values)


def gcv(path: SolutionPath, trace_source) -> RuleSelection:
    """Generalized cross validation: ||r||^2 / tr(I - X_a)^2, on the grid."""
    tr = influence_measure(trace_source, path.alphas).trace
    values, idx = _gcv_rows(path.residual_norms, path.data_size, tr)
    return _on_grid("gcv", path.alphas, idx, objective_samples=values)


def check_bp(gamma: float, c: float, sigma: float = 0.0, keys=("gamma", "c")) -> None:
    """bp's conditions on its settings and, where one is given, the noise level;
    a message names the setting at fault by its entry in ``keys``."""
    if not 0 < gamma < 1:
        raise ValueError(f"{keys[0]} must be in (0, 1), got {gamma!r}")
    if not 0 <= c < np.inf:
        raise ValueError(f"{keys[1]} must be nonnegative and finite, got {c!r}")
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")


def bp(path: SolutionPath, sigma: float, noise_source, gamma: float = 0.25,
       c: float = 1.5) -> RuleSelection:
    """Balancing principle over a geometrically thinned subgrid.

    Walking up from the smallest alpha, an alpha stays admissible while its
    solution differs from every less-smoothed subgrid solution by at most
    c * sigma * sqrt(noise amplification there); the largest admissible alpha
    is returned.  The admissible set is a contiguous lower segment by
    construction, so the scan stops at the first failure (``_bp_rows`` on
    the one-row stack of the path).
    """
    if path.solutions is None:
        raise ValueError("bp needs the solutions along the path")
    check_bp(gamma, c, sigma)
    _check_increasing(path.alphas)
    namp = influence_measure(noise_source, path.alphas).noise_amp
    chosen, sub = _bp_rows(path.alphas, path.solutions[None], np.array([sigma]), namp, gamma, c)
    flags = ["at_grid_min"] if chosen[0] == sub[0] else []
    return _on_grid("bp", path.alphas, chosen[0], flags=flags, subgrid=sub, gamma=gamma, c=c)


def _bp_rows(alphas, solutions, sigma, namp, gamma: float, c: float):
    """bp on a stack of solution paths on the grid ``alphas``, one per row, with
    noise levels ``sigma`` per row and noise amplification ``namp`` on the
    grid: per row the chosen grid index, and the ascending subgrid indices.

    The distances ||F_i - F_pos|| of the subgrid pairs i < pos are formed in
    order of pos, a block of rows and pairs at a time, each block at most
    ``_BP_BLOCK_ELEMENTS`` entries in size (or one pair of each row), and no
    block is formed for a row after the block holding its first violation.
    """
    ratio = alphas[1] / alphas[0] if alphas.size > 1 else np.e
    step = max(1, int(round(np.log(1.0 / gamma) / np.log(ratio))))
    sub = np.arange(alphas.size - 1, -1, -step)[::-1]   # ascending subgrid indices
    thresholds = c * _column(sigma) * np.sqrt(namp[sub])
    F = solutions[:, sub]
    pos = np.repeat(np.arange(sub.size), np.arange(sub.size))
    i = np.arange(pos.size) - pos * (pos - 1) // 2
    # a row's first position with a violation is the one after its chosen point
    first_bad = np.full(len(F), sub.size)
    scanned = np.arange(len(F))   # the rows of the stack still in F
    lo = 0
    while lo < pos.size and scanned.size:
        hi = lo + max(1, _BP_BLOCK_ELEMENTS // (scanned.size * F.shape[2]))
        D = F.take(i[lo:hi], axis=1)
        D -= F.take(pos[lo:hi], axis=1)
        D *= D
        dist = np.sqrt(np.add.reduce(D, axis=-1))
        violated = dist > thresholds.take(i[lo:hi], axis=1)
        first = np.where(violated, pos[lo:hi], sub.size).min(axis=-1)
        bad = first < sub.size
        if bad.any():
            first_bad[scanned[bad]] = first[bad]
            F, thresholds, scanned = F[~bad], thresholds[~bad], scanned[~bad]
        lo = hi
    return sub[first_bad - 1], sub


def _gradient(f, dt):
    """``np.gradient(f, dt, axis=-1)`` with first-order edges, in its arithmetic."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dt)
    out[..., 0] = (f[..., 1] - f[..., 0]) / dt
    out[..., -1] = (f[..., -1] - f[..., -2]) / dt
    return out


def _lc_rows(alphas, residual_norms, solution_norms):
    """Per row, the L-curve's curvature on the grid, its interior argmax and
    whether that is next to a grid edge."""
    if alphas.size < 5:
        raise ValueError("lc needs at least five grid points")
    t = np.log(alphas)
    tiny = np.finfo(float).tiny
    x = np.log(np.maximum(residual_norms, tiny))
    y = np.log(np.maximum(solution_norms, tiny))
    dt = t[1] - t[0]
    xp, yp = slopes = _gradient(np.stack([x, y]), dt)
    xpp, ypp = _gradient(slopes, dt)
    denom = np.maximum((xp * xp + yp * yp) ** 1.5, tiny)
    kappa = (xp * ypp - yp * xpp) / denom
    idx = 1 + argmin_last(-kappa[..., 1:-1])
    return kappa, idx, (idx == 1) | (idx == alphas.size - 2)


def lc(path: SolutionPath) -> RuleSelection:
    """L-curve corner: maximal curvature of (log ||r||, log ||f||) against log alpha,
    via central differences on the grid."""
    _check_increasing(path.alphas)
    kappa, idx, at_boundary = _lc_rows(path.alphas, path.residual_norms, path.solution_norms)
    return _on_grid("lc", path.alphas, idx, curvature=kappa,
                    flags=["curvature_at_boundary"] if at_boundary else [])


def qoc(path: SolutionPath) -> RuleSelection:
    """Quasi-optimality: minimize the norm of consecutive solution differences."""
    if path.solutions is None:
        raise ValueError("qoc needs the solutions along the path")
    if len(path) < 2:
        raise ValueError("qoc needs at least two grid points")
    _check_increasing(path.alphas)
    diffs, idx = _qoc_rows(path.solutions[None])
    return _on_grid("qoc", path.alphas, idx[0], differences=diffs[0])


def _qoc_rows(solutions):
    """Per row of a stack of solution paths, the norms of consecutive solution
    differences and their argmin."""
    D = solutions[..., 1:, :] - solutions[..., :-1, :]    # np.diff's arithmetic
    D *= D
    diffs = np.sqrt(np.add.reduce(D, axis=-1))
    return diffs, argmin_last(diffs)


@dataclass
class PathBlock:
    """Grid-mode inputs of many data vectors on one grid, one row each: the
    residual and solution norms of its path on the grid of the influence path
    ``source``, ||g||^2, sigma and sigma2; for the rules that read them
    (``NEEDS_SOLUTIONS``), the stacked solutions along the paths and
    bp's settings."""

    source: InfluencePath
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    data_size: int
    g_sq: np.ndarray
    sigma: np.ndarray
    sigma2: np.ndarray
    solutions: Optional[np.ndarray] = None
    bp_gamma: float = 0.25
    bp_c: float = 1.5


def _flag_rows(**masks) -> list[tuple[str, ...]]:
    """Per row, the names whose mask is set in that row."""
    return [tuple(name for name, on in zip(masks, row) if on) for row in zip(*masks.values())]


def _pro_block(b: PathBlock):
    # pro_estimated with on_degenerate="max_alpha"
    rho2 = _signal_energy(b.g_sq, b.data_size, b.sigma2)
    ok = rho2 > 0
    idx, edge = np.full(ok.size, b.source.alphas.size - 1), np.zeros(ok.size, dtype=bool)
    if ok.any():
        _, idx[ok], edge[ok] = _grid_min_T(b.source, rho2[ok], b.sigma2[ok])
    return idx, _flag_rows(degenerate_snr=~ok, fallback_max_alpha=~ok, grid_edge=edge)


def _ipro_block(b: PathBlock):
    # a row ipro raises on takes the largest alpha if the data is degenerate,
    # its last iterate if it did not settle
    m = b.source
    alpha, status, _ = _ipro_rows(np.full(b.g_sq.size, m.alphas[m.alphas.size // 2]), b.g_sq,
                                   b.data_size, *_grid_ipro(m, b.residual_norms), IPRO_MAX_ITER)
    degenerate = status >= _AT_FLOOR
    idx = np.where(degenerate, m.alphas.size - 1, m.alphas.searchsorted(alpha))
    return idx, _flag_rows(degenerate=degenerate, no_convergence=status == _UNSETTLED)


def _dp_block(b: PathBlock):
    # dp with refine=False
    _, j, saturated, at_grid_min = _dp_rows(b.residual_norms, b.data_size, b.sigma)
    return (np.where(saturated, b.source.alphas.size - 1, j),
            _flag_rows(saturated_max=saturated, at_grid_min=at_grid_min))


def _upre_block(b: PathBlock):
    _, idx = _upre_rows(b.residual_norms, b.data_size, b.source.trace, b.sigma2)
    return idx, [()] * idx.size


def _gcv_block(b: PathBlock):
    _, idx = _gcv_rows(b.residual_norms, b.data_size, b.source.trace)
    return idx, [()] * idx.size


def _lc_block(b: PathBlock):
    _, idx, at_boundary = _lc_rows(b.source.alphas, b.residual_norms, b.solution_norms)
    return idx, _flag_rows(curvature_at_boundary=at_boundary)


def _bp_block(b: PathBlock):
    idx, sub = _bp_rows(b.source.alphas, b.solutions, b.sigma, b.source.noise_amp, b.bp_gamma,
                        b.bp_c)
    return idx, _flag_rows(at_grid_min=idx == sub[0])


def _qoc_block(b: PathBlock):
    _, idx = _qoc_rows(b.solutions)
    return idx, [()] * idx.size


# Each rule's block form selects for every row of a ``PathBlock`` at once and
# gives the grid indices and flags the replicate study records: those of the
# single-path rule in grid mode (of ``pro_estimated`` with
# ``on_degenerate="max_alpha"`` and ``dp`` with ``refine=False``), and for a row
# the single-path rule raises on, the largest alpha flagged ``degenerate`` or
# the last iterate flagged ``no_convergence``.  The rules of ``NEEDS_SOLUTIONS``
# read the block's solutions, the others only norms on the grid.
RULES = {"pro": _pro_block, "ipro": _ipro_block, "dp": _dp_block, "upre": _upre_block,
         "bp": _bp_block, "gcv": _gcv_block, "lc": _lc_block, "qoc": _qoc_block}
RULE_NAMES = tuple(RULES)
NEEDS_SOLUTIONS = frozenset({"bp", "qoc"})
