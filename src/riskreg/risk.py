"""Predictive risk, its computable lower bound, and the bound's 1-D minimization.

With singular values s_1 >= ... >= s_r > 0 and h = sigma^2/rho^2, the
normalized lower bound is

    T_h(a) = a^2/(a + s_1^2)^2  +  h * sum_i s_i^4/(a + s_i^2)^2,

strictly convex on (0, s_1^2/2), with T_h -> r h as a -> 0+ and T_h -> 1 as
a -> inf.  Its minimizer depends on the data only through h.  A ``source``
is read as its spectral measure (``tikhonov.influence_measure``): the sums run
over its weighted nodes, unit weights on s_i^2 for a spectrum, and s_1^2 is lam1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .linop import SpectralDecomposition
from .tikhonov import InfluencePath, finite_data, influence_measure

SEARCH_CAP = 0.5  # the minimizer is searched on [0, lam1 * SEARCH_CAP]


@dataclass
class RiskCurve:
    """A risk-like functional sampled on an increasing alpha grid."""

    alphas: np.ndarray
    values: np.ndarray
    kind: str  # "predictive" | "lower_bound" | "upre" | "gcv"

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("alphas must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")

    def to_csv(self, file) -> None:
        """Write alpha,value,kind rows to the open text file ``file``."""
        file.write("alpha,value,kind\n")
        for a, v in zip(self.alphas, self.values):
            file.write(f"{a:.12g},{v:.12g},{self.kind}\n")


@dataclass
class MinimizerResult:
    """Outcome of the 1-D lower-bound minimization."""

    alpha_star: float
    objective: float
    bracket: Tuple[float, float]
    iterations: int
    converged: bool
    at_boundary: bool = False


def predictive_risk(dec: SpectralDecomposition, g_true, sigma2: float, alpha: float):
    """Expected squared prediction error at alpha: bias plus noise amplification."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    g_true = finite_data(g_true)
    c = dec.U.T @ g_true
    s2 = dec.s * dec.s
    a = np.asarray(alpha, dtype=float)
    denom = s2 + a[..., None]
    bias = np.sum((a[..., None] / denom) ** 2 * (c * c), axis=-1)
    var = sigma2 * np.sum((s2 / denom) ** 2, axis=-1)
    out = bias + var
    return float(out) if np.isscalar(alpha) else out


def predictive_risk_derivative(dec: SpectralDecomposition, g_true, sigma2: float, alpha: float):
    """d/dalpha of the predictive risk (diagnostic for the over-smoothing check)."""
    g_true = finite_data(g_true)
    c = dec.U.T @ g_true
    s2 = dec.s * dec.s
    a = np.asarray(alpha, dtype=float)
    denom = (s2 + a[..., None]) ** 3
    bias_d = np.sum(2.0 * a[..., None] * s2 * (c * c) / denom, axis=-1)
    var_d = sigma2 * np.sum(2.0 * s2 * s2 / denom, axis=-1)
    out = bias_d - var_d
    return float(out) if np.isscalar(alpha) else out


def lower_bound_T(rho2: float, sigma2: float,
                  source: Union[SpectralDecomposition, InfluencePath], alpha=None):
    """The lower bound rho^2 * sn_sq + sigma^2 * frob_sq.

    A spectrum or an influence path (exact or stochastic) is evaluated through
    its spectral measure at ``alpha``, a scalar or an array of any alphas >= 0;
    without ``alpha`` an influence path gives its samples on its own grid.  A
    scalar alpha gives a float, otherwise an array.
    """
    if not (0 < rho2 < np.inf and 0 <= sigma2 < np.inf):
        raise ValueError("need finite rho2 > 0 and sigma2 >= 0")
    m = influence_measure(source, None if alpha is None else np.atleast_1d(alpha))
    if alpha is None and not m.alphas.size:
        raise ValueError("alpha is required with a spectral source")
    values = rho2 * m.sn_sq + sigma2 * m.frob_sq
    return float(values[0]) if np.isscalar(alpha) else values


def T_h(source, h: float, alpha):
    """The normalized lower bound f1 + h f2: the bound at rho^2 = 1, sigma^2 = h."""
    return lower_bound_T(1.0, h, source, alpha)


def _T_h_derivative_terms(source, alpha):
    # dT_h/da = t1 - h t2
    m = influence_measure(source)
    t, lam1, a = m.nodes, m.lam1, np.asarray(alpha, dtype=float)
    t1 = 2.0 * a * lam1 / (a + lam1) ** 3
    t2 = np.sum(m.weights * (2.0 * t * t / (a[..., None] + t) ** 3), axis=-1)
    return t1, t2


def T_h_derivative(source, h: float, alpha):
    """Closed-form derivative of T_h."""
    if not 0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    t1, t2 = _T_h_derivative_terms(source, alpha)
    out = t1 - h * t2
    return float(out) if np.isscalar(alpha) else out


def _T_h_second(source, h: float, alpha: float) -> float:
    m = influence_measure(source)
    t, lam1 = m.nodes, m.lam1
    f1 = 2.0 * lam1 * (lam1 - 2.0 * alpha) / (alpha + lam1) ** 4
    f2 = np.sum(m.weights * (6.0 * t * t / (alpha + t) ** 4))
    return float(f1 + h * f2)


def minimize_T(source, h: float) -> MinimizerResult:
    """Minimize T_h over [0, lam1/2] by safeguarded Newton on its derivative,
    at any alpha (off an influence path's grid too).

    The derivative is negative at 0+; if it is still nonpositive at the right
    endpoint the endpoint is returned with ``at_boundary`` set.  Otherwise the
    unique interior stationary point lies in [lam1 h, lam1/2] and is located
    there by Newton steps clipped to the sign-change bracket, with geometric
    bisection as the fallback (the root can sit many decades below the
    endpoint).  Convergence is relative: the derivative's two terms must
    cancel to 1e-12, or the bracket must shrink to 1e-12 relative width,
    within 300 steps.
    """
    if not 0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    m = influence_measure(source)
    if not m.nodes.size:
        raise ValueError("cannot minimize over a zero operator")
    hi = SEARCH_CAP * m.lam1
    t1, t2 = _T_h_derivative_terms(m, hi)
    if t1 - h * t2 <= 0.0:
        return MinimizerResult(alpha_star=hi, objective=T_h(m, h, hi),
                               bracket=(0.0, hi), iterations=0, converged=True,
                               at_boundary=True)
    # any interior stationary point satisfies alpha >= lam1 h
    lo = m.lam1 * h
    t1, t2 = _T_h_derivative_terms(m, lo)
    if t1 - h * t2 >= 0.0:
        return MinimizerResult(alpha_star=lo, objective=T_h(m, h, lo),
                               bracket=(lo, lo), iterations=0, converged=True)
    up = hi
    x = np.sqrt(lo * up)
    it = 0
    converged = False
    for it in range(1, 301):
        t1, t2 = _T_h_derivative_terms(m, x)
        d = t1 - h * t2
        if abs(d) <= 1e-12 * (t1 + h * t2):
            converged = True
            break
        if d < 0:
            lo = x
        else:
            up = x
        if up - lo <= 1e-12 * up:
            converged = True
            break
        curv = _T_h_second(m, h, x)
        x_new = x - d / curv if curv > 0 else np.sqrt(lo * up)
        if not (lo < x_new < up):
            x_new = np.sqrt(lo * up)
        x = x_new
    return MinimizerResult(alpha_star=float(x), objective=T_h(m, h, x),
                           bracket=(lo, up), iterations=it, converged=converged)


def alpha_bounds(source, h: float):
    """Analytic bracket for the minimizer: (lam1 h, upper) with upper defined
    only when h is below zeta = lam1 / tr(A^T A), the trace being sum w t."""
    if not 0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    m = influence_measure(source)
    zeta = m.lam1 / float(np.sum(m.weights * m.nodes))
    lo = m.lam1 * h
    if h >= zeta:
        return lo, None
    t = (h / zeta) ** (1.0 / 3.0)
    return lo, m.lam1 * t / (1.0 - t)


def global_minimizer_certificate(source, h: float) -> bool:
    """True when h <= 1/(27 r), r the measure's total weight (a spectrum's
    rank): the interval minimizer is then the global one."""
    if not 0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    return h <= 1.0 / (27.0 * float(np.sum(influence_measure(source).weights)))


def upper_bound_threshold(dec: SpectralDecomposition) -> float:
    """s1^{4/3} * s_r^{2/3}: below this alpha the over-smoothing guarantee
    provably kicks in for any true data (a loose diagnostic)."""
    s1 = float(dec.s[0])
    sr = float(dec.s[dec.rank - 1])
    return s1 ** (4.0 / 3.0) * sr ** (2.0 / 3.0)
