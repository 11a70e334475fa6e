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

from .errors import real, reals
from .linop import SpectralDecomposition
from .tikhonov import InfluencePath, _influence_scalars, influence_measure

SEARCH_CAP = 0.5  # the minimizer is searched on [0, lam1 * SEARCH_CAP]
# the default dense grid is [GRID_MIN_FACTOR, GRID_MAX_FACTOR] * s1^2, to that cap
GRID_MIN_FACTOR = 1e-12
GRID_MAX_FACTOR = SEARCH_CAP


@dataclass
class RiskCurve:
    """A risk-like functional sampled on an increasing alpha grid."""

    alphas: np.ndarray
    values: np.ndarray
    kind: str  # "predictive" | "lower_bound" | "upre" | "gcv"

    def __post_init__(self):
        self.alphas = reals("alphas", self.alphas, "nonnegative")
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("alphas must be strictly increasing")
        self.values = reals("values", self.values)

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
    real("sigma2", sigma2, "nonnegative")
    g_true = reals("g_true", g_true)
    c = dec.U.T @ g_true
    s2 = dec.s * dec.s
    a = reals("alpha", alpha, "nonnegative")
    denom = s2 + a[..., None]
    bias = np.sum((a[..., None] / denom) ** 2 * (c * c), axis=-1)
    var = sigma2 * np.sum((s2 / denom) ** 2, axis=-1)
    out = bias + var
    return float(out) if np.isscalar(alpha) else out


def predictive_risk_derivative(dec: SpectralDecomposition, g_true, sigma2: float, alpha: float):
    """d/dalpha of the predictive risk (diagnostic for the over-smoothing check)."""
    real("sigma2", sigma2, "nonnegative")
    g_true = reals("g_true", g_true)
    c = dec.U.T @ g_true
    s2 = dec.s * dec.s
    a = reals("alpha", alpha, "nonnegative")
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
    scalar alpha gives a float, otherwise an array.  ``rho2`` and ``sigma2``
    may be arrays that broadcast against the samples: columns give one row of
    samples per (rho2, sigma2) pair.
    """
    rho2, sigma2 = reals("rho2", rho2, "positive"), reals("sigma2", sigma2, "nonnegative")
    m = influence_measure(source, None if alpha is None else np.atleast_1d(alpha))
    if alpha is None and not m.alphas.size:
        raise ValueError("alpha is required with a spectral source")
    values = rho2 * m.sn_sq + sigma2 * m.frob_sq
    return float(values[0]) if np.isscalar(alpha) else values


def T_h(source, h: float, alpha):
    """The normalized lower bound f1 + h f2: the bound at rho^2 = 1, sigma^2 = h."""
    return lower_bound_T(1.0, real("h", h, "nonnegative"), source, alpha)


def _T_h_terms(source, alpha):
    # dT_h/da = t1 - h t2 and d2T_h/da2 = f1 + h f2, from one alpha + t; the
    # curvature only sizes a Newton step, so its overflow or underflow is ignored
    m = influence_measure(source)
    t, lam1, a = m.nodes, m.lam1, np.asarray(alpha, dtype=float)
    at = a[..., None] + t
    t1 = 2.0 * a * lam1 / (a + lam1) ** 3
    t2 = np.sum(m.weights * (2.0 * t * t / at ** 3), axis=-1)
    with np.errstate(all="ignore"):
        f1 = 2.0 * lam1 * (lam1 - 2.0 * a) / (a + lam1) ** 4
        f2 = np.sum(m.weights * (6.0 * t * t / at ** 4), axis=-1)
    return t1, t2, f1, f2


def T_h_derivative(source, h: float, alpha):
    """Closed-form derivative of T_h."""
    real("h", h, "positive")
    t1, t2, _, _ = _T_h_terms(source, reals("alpha", alpha, "nonnegative"))
    out = t1 - h * t2
    return float(out) if np.isscalar(alpha) else out


def _T_h_at(m: InfluencePath, h: float, alpha) -> float:
    """``T_h`` of a checked measure at one alpha >= 0, with no argument checks:
    ``minimize_T`` reads it once per call, ``ipro`` once per step."""
    sn_sq, frob_sq, _, _ = _influence_scalars(m, np.array([alpha], dtype=float))
    return float(sn_sq[0] + h * frob_sq[0])


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
    real("h", h, "positive")
    m = influence_measure(source)
    if not m.nodes.size:
        raise ValueError("cannot minimize over a zero operator")
    hi = SEARCH_CAP * m.lam1
    t1, t2, _, _ = _T_h_terms(m, hi)
    if t1 - h * t2 <= 0.0:
        return MinimizerResult(alpha_star=hi, objective=_T_h_at(m, h, hi),
                               bracket=(0.0, hi), iterations=0, converged=True,
                               at_boundary=True)
    # any interior stationary point satisfies alpha >= lam1 h
    lo = m.lam1 * h
    t1, t2, _, _ = _T_h_terms(m, lo)
    if t1 - h * t2 >= 0.0:
        return MinimizerResult(alpha_star=lo, objective=_T_h_at(m, h, lo),
                               bracket=(lo, lo), iterations=0, converged=True)
    up = hi
    x = np.sqrt(lo * up)
    it = 0
    converged = False
    for it in range(1, 301):
        t1, t2, f1, f2 = _T_h_terms(m, x)
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
        curv = f1 + h * f2
        x_new = x - d / curv if curv > 0 else np.sqrt(lo * up)
        if not (lo < x_new < up):
            x_new = np.sqrt(lo * up)
        x = x_new
    return MinimizerResult(alpha_star=float(x), objective=_T_h_at(m, h, x),
                           bracket=(lo, up), iterations=it, converged=converged)


def alpha_bounds(source, h: float):
    """Analytic bracket for the minimizer: (lam1 h, upper) with upper defined
    only when h is below zeta = lam1 / tr(A^T A), the trace being sum w t."""
    real("h", h, "positive")
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
    real("h", h, "positive")
    return h <= 1.0 / (27.0 * float(np.sum(influence_measure(source).weights)))


def upper_bound_threshold(dec: SpectralDecomposition) -> float:
    """s1^{4/3} * s_r^{2/3}: below this alpha the over-smoothing guarantee
    provably kicks in for any true data (a loose diagnostic)."""
    s1 = float(dec.s[0])
    sr = float(dec.s[dec.rank - 1])
    return s1 ** (4.0 / 3.0) * sr ** (2.0 / 3.0)
