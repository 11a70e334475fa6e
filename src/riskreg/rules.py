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

``RULES`` maps each rule name to one way of running it on ``SelectionInputs``
and to the inputs it needs; the CLI and the replicate harness both select
through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConvergenceError, DegenerateDataError
from .linop import SpectralDecomposition
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


def argmin_last(values) -> int:
    """Index of the minimum of grid samples; ties go to the largest alpha."""
    v = np.asarray(values)
    return int(v.size - 1 - np.argmin(v[::-1]))


def nearest_index(alphas, alpha: float) -> int:
    """Index of the grid point nearest to ``alpha`` on a log scale."""
    return int(np.argmin(np.abs(np.log(alphas) - np.log(alpha))))


def _on_grid(rule: str, alphas, idx: int, **diagnostics) -> RuleSelection:
    """The selection of grid point ``idx``: its alpha and index, with no flags
    unless ``diagnostics`` names some."""
    return RuleSelection(rule=rule, alpha=float(alphas[idx]),
                         diagnostics={"flags": [], **diagnostics, "grid_index": int(idx)})


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
    values = lower_bound_T(rho2, sigma2, m)
    idx = argmin_last(values)
    flags = []
    if idx in (0, len(values) - 1):
        flags.append("grid_edge")
    return _on_grid("pro", m.alphas, idx, h=h, objective=float(values[idx]),
                    objective_samples=values, flags=flags)


def pro(source, rho2: float, sigma2: float, n: Optional[int] = None) -> RuleSelection:
    """Minimize the predictive-risk lower bound for known (rho2, sigma2)."""
    if not (0 < rho2 < np.inf and 0 < sigma2 < np.inf):
        raise ValueError("need finite rho2 > 0 and sigma2 > 0")
    sel = _select_min_T(source, rho2, sigma2)
    sel.diagnostics.update(rho2_hat=rho2, sigma2_hat=sigma2)
    if n is not None:
        sel.diagnostics["xi_hat"] = snr_db(rho2, sigma2, n)
    return sel


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
    rho2_hat = float(g @ g) - n * sigma2
    if rho2_hat <= 0:
        if on_degenerate == "max_alpha":
            m = influence_measure(source)
            alpha = float(m.alphas[-1]) if m.alphas.size else SEARCH_CAP * m.lam1
            return RuleSelection(rule="pro", alpha=alpha, diagnostics={
                "rho2_hat": rho2_hat, "sigma2_hat": sigma2,
                "flags": ["degenerate_snr", "fallback_max_alpha"]})
        raise DegenerateDataError(
            "estimated signal energy is nonpositive (data looks like pure noise)")
    return pro(source, rho2_hat, sigma2, n)


def ipro(source, g, alpha_init: Optional[float] = None, max_iter: int = 100,
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
    """
    if alpha_init is not None and not 0 < alpha_init < np.inf:
        raise ValueError("alpha_init must be positive and finite")
    g = np.asarray(g, dtype=float)
    g_sq, n = float(g @ g), g.size
    m = influence_measure(source)
    if m.alphas.size:
        if path is None:
            raise ValueError("grid mode needs a solution path to evaluate residuals")
        if path.alphas.shape != m.alphas.shape:
            raise ValueError("influence path and solution path use different grids")
        sel = _on_grid("ipro", m.alphas, len(m.alphas) // 2 if alpha_init is None
                       else nearest_index(m.alphas, alpha_init))

        def residual_sq(at: RuleSelection) -> float:
            return float(path.residual_norms[at.diagnostics["grid_index"]]) ** 2
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
        sel = RuleSelection(rule="ipro", alpha=float(alpha_init))

        def residual_sq(at: RuleSelection) -> float:
            return float(np.sum((at.alpha / (s2 + at.alpha)) ** 2 * c_sq) + perp_sq)

    trail, h_trail = [sel.alpha], []
    floor_sq = (RESIDUAL_FLOOR ** 2) * g_sq
    for _ in range(max_iter):
        r_sq = residual_sq(sel)
        sigma2 = r_sq / n
        rho2 = g_sq - r_sq
        if r_sq <= floor_sq:
            exc = DegenerateDataError(
                "residual below floating-point resolution: noise level is "
                "unidentifiable (zero is not a meaningful fixed point)")
            exc.trail = trail
            raise exc
        if rho2 <= 0.0:
            raise DegenerateDataError("residual exhausts the data energy")
        step = _select_min_T(m, rho2, sigma2)
        h_trail.append(step.diagnostics["h"])
        trail.append(step.alpha)
        settled = abs(step.alpha - sel.alpha) <= 1e-16 * step.alpha + 4.0 * np.spacing(step.alpha)
        sel = step
        if settled:
            break
    else:
        raise ConvergenceError("iterative rule did not settle", last_iterate=sel.alpha,
                               iterations=len(h_trail), trail=trail)
    r_sq = residual_sq(sel)
    rho2_hat, sigma2_hat = g_sq - r_sq, r_sq / n
    return RuleSelection(rule="ipro", alpha=sel.alpha, diagnostics={
        "trail": trail, "h_trail": h_trail, "iterations": len(h_trail), "rho2_hat": rho2_hat,
        "sigma2_hat": sigma2_hat, "xi_hat": snr_db(rho2_hat, sigma2_hat, n), "flags": [],
        "grid_index": sel.diagnostics.get("grid_index")})


def dp(path: SolutionPath, sigma: float, refine: bool = True) -> RuleSelection:
    """Discrepancy principle: match the residual norm to sqrt(n) * sigma.

    Picks the smallest grid alpha whose residual reaches the target, bisecting
    between neighbors when a resolver is available.  If the target is never
    reached the largest alpha is returned with a saturation flag.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    target = np.sqrt(path.data_size) * sigma
    resid = path.residual_norms
    flags = []
    above = np.nonzero(resid >= target)[0]
    if above.size == 0:
        return _on_grid("dp", path.alphas, len(path) - 1, target=target,
                        flags=["saturated_max"])
    j = int(above[0])
    alpha = float(path.alphas[j])
    if j == 0:
        flags.append("at_grid_min")
    elif refine and path.solve is not None:
        lo, hi = float(path.alphas[j - 1]), alpha
        for _ in range(80):
            if (hi - lo) <= 1e-6 * hi:
                break
            mid = np.sqrt(lo * hi)
            if path.solve(mid).residual_norm >= target:
                hi = mid
            else:
                lo = mid
        alpha = hi
    return RuleSelection(rule="dp", alpha=alpha,
                         diagnostics={"target": target, "flags": flags, "grid_index": j})


def upre(path: SolutionPath, trace_source, sigma2: float) -> RuleSelection:
    """Unbiased predictive-risk estimate: ||r||^2 - 2 sigma2 tr(I - X_a), on the grid."""
    if not 0 <= sigma2 < np.inf:
        raise ValueError("sigma2 must be nonnegative and finite")
    tr = influence_measure(trace_source, path.alphas).trace
    values = path.residual_norms ** 2 - 2.0 * sigma2 * (path.data_size - tr)
    return _on_grid("upre", path.alphas, argmin_last(values), objective_samples=values)


def gcv(path: SolutionPath, trace_source) -> RuleSelection:
    """Generalized cross validation: ||r||^2 / tr(I - X_a)^2, on the grid."""
    tr = influence_measure(trace_source, path.alphas).trace
    denom = (path.data_size - tr) ** 2
    values = path.residual_norms ** 2 / np.maximum(denom, np.finfo(float).tiny)
    return _on_grid("gcv", path.alphas, argmin_last(values), objective_samples=values)


def check_bp(gamma: float, c: float, sigma: float = 0.0) -> None:
    """bp's conditions on its settings and, where one is given, the noise level."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if not (0 <= sigma < np.inf and 0 <= c < np.inf):
        raise ValueError("sigma and c must be nonnegative and finite")


def bp(path: SolutionPath, sigma: float, noise_source, gamma: float = 0.25,
       c: float = 1.5) -> RuleSelection:
    """Balancing principle over a geometrically thinned subgrid.

    Walking up from the smallest alpha, an alpha stays admissible while its
    solution differs from every less-smoothed subgrid solution by at most
    c * sigma * sqrt(noise amplification there); the largest admissible alpha
    is returned.  The admissible set is a contiguous lower segment by
    construction, so the scan stops at the first failure.  The comparisons
    run on blocks of pairwise subgrid distances of bounded size
    (``_BP_BLOCK_ELEMENTS`` entries), and no block after the first failing
    one is formed.
    """
    if path.solutions is None:
        raise ValueError("bp needs the solutions along the path")
    check_bp(gamma, c, sigma)
    namp = influence_measure(noise_source, path.alphas).noise_amp
    ratio = path.alphas[1] / path.alphas[0] if len(path) > 1 else np.e
    step = max(1, int(round(np.log(1.0 / gamma) / np.log(ratio))))
    sub = np.arange(len(path) - 1, -1, -step)[::-1]   # ascending subgrid indices
    thresholds = c * sigma * np.sqrt(namp[sub])
    F = path.solutions[sub]
    # rows pos of dist[pos, i] = ||F[i] - F[pos]||, i < pos, a block at a time;
    # the chosen point is the one before the first row with a violation
    chosen = sub[-1]
    rows = max(1, _BP_BLOCK_ELEMENTS // max(1, sub.size * F.shape[1]))
    for lo in range(1, sub.size, rows):
        hi = min(lo + rows, sub.size)
        D = F[None, :hi - 1] - F[lo:hi, None]
        D *= D
        dist = np.sqrt(np.add.reduce(D, axis=-1))
        pos = np.arange(lo, hi)[:, None]
        violated = (dist > thresholds[:hi - 1]) & (np.arange(hi - 1) < pos)
        bad = np.flatnonzero(violated.any(axis=1))
        if bad.size:
            chosen = sub[lo + bad[0] - 1]
            break
    flags = []
    if chosen == sub[0]:
        flags.append("at_grid_min")
    return _on_grid("bp", path.alphas, chosen, flags=flags, subgrid=sub, gamma=gamma, c=c)


def _gradient(f, dt):
    """``np.gradient(f, dt, axis=-1)`` with first-order edges, in its arithmetic."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dt)
    out[..., 0] = (f[..., 1] - f[..., 0]) / dt
    out[..., -1] = (f[..., -1] - f[..., -2]) / dt
    return out


def lc(path: SolutionPath) -> RuleSelection:
    """L-curve corner: maximal curvature of (log ||r||, log ||f||) against log alpha,
    via central differences on the grid."""
    if len(path) < 5:
        raise ValueError("lc needs at least five grid points")
    t = np.log(path.alphas)
    tiny = np.finfo(float).tiny
    x = np.log(np.maximum(path.residual_norms, tiny))
    y = np.log(np.maximum(path.solution_norms, tiny))
    dt = t[1] - t[0]
    xp, yp = slopes = _gradient(np.stack([x, y]), dt)
    xpp, ypp = _gradient(slopes, dt)
    denom = np.maximum((xp * xp + yp * yp) ** 1.5, tiny)
    kappa = (xp * ypp - yp * xpp) / denom
    interior = slice(1, len(path) - 1)
    idx = 1 + argmin_last(-kappa[interior])
    flags = []
    if idx in (1, len(path) - 2):
        flags.append("curvature_at_boundary")
    return _on_grid("lc", path.alphas, idx, curvature=kappa, flags=flags)


def qoc(path: SolutionPath) -> RuleSelection:
    """Quasi-optimality: minimize the norm of consecutive solution differences."""
    if path.solutions is None:
        raise ValueError("qoc needs the solutions along the path")
    if len(path) < 2:
        raise ValueError("qoc needs at least two grid points")
    D = np.diff(path.solutions, axis=0)
    D *= D
    diffs = np.sqrt(np.add.reduce(D, axis=1))
    return _on_grid("qoc", path.alphas, argmin_last(diffs), differences=diffs)


@dataclass
class SelectionInputs:
    """Everything a registered rule may read, and the settings a caller may vary.

    ``source`` is a spectrum (continuous selection) or an influence path on
    the grid of ``path`` (grid mode).  ``rho2`` makes ``pro`` use a known
    signal energy instead of estimating it; ``on_degenerate`` is passed to
    ``pro_estimated``, ``refine`` to ``dp``.
    """

    g: np.ndarray
    source: Union[SpectralDecomposition, InfluencePath]
    path: Optional[SolutionPath] = None
    sigma: Optional[float] = None
    sigma2: Optional[float] = None
    rho2: Optional[float] = None
    alpha_init: Optional[float] = None
    on_degenerate: str = "raise"
    refine: bool = True
    bp_gamma: float = 0.25
    bp_c: float = 1.5


@dataclass(frozen=True)
class Rule:
    """A registry entry: the rule on its inputs, whether it selects on a sampled
    solution path, and the noise input (``"sigma"`` or ``"sigma2"``) it needs."""

    run: Callable[[SelectionInputs], RuleSelection]
    needs_path: bool
    noise: Optional[str] = None


def _run_pro(x: SelectionInputs) -> RuleSelection:
    if x.rho2 is not None:
        return pro(x.source, x.rho2, x.sigma2, n=x.g.size)
    return pro_estimated(x.source, x.g, x.sigma2, on_degenerate=x.on_degenerate)


RULES = {
    "pro": Rule(_run_pro, needs_path=False, noise="sigma2"),
    "ipro": Rule(lambda x: ipro(x.source, x.g, alpha_init=x.alpha_init, path=x.path),
                 needs_path=False),
    "dp": Rule(lambda x: dp(x.path, x.sigma, refine=x.refine), needs_path=True,
               noise="sigma"),
    "upre": Rule(lambda x: upre(x.path, x.source, x.sigma2), needs_path=True,
                 noise="sigma2"),
    "bp": Rule(lambda x: bp(x.path, x.sigma, x.source, gamma=x.bp_gamma, c=x.bp_c),
               needs_path=True, noise="sigma"),
    "gcv": Rule(lambda x: gcv(x.path, x.source), needs_path=True),
    "lc": Rule(lambda x: lc(x.path), needs_path=True),
    "qoc": Rule(lambda x: qoc(x.path), needs_path=True),
}
RULE_NAMES = tuple(RULES)
