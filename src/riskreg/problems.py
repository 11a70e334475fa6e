"""Benchmark inverse problems: 1-D integral equations, parallel-beam tomography,
and reproducible Gaussian noise.

Discretizations (documented per generator below) follow the classical test
problem definitions: midpoint quadrature where the kernels are smooth,
Galerkin coefficients where they are standard (second derivative), and
Gauss-Laguerre collocation for the Laplace transform.  Every instance
satisfies g_true = A f_true exactly by construction.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linop import LinearOperator
from .rng import TAG_NOISE, keyed_rng

PROBLEM_NAMES = ("baart", "deriv2", "foxgood", "gravity", "heat", "i_laplace",
                 "phillips", "shaw", "paralleltomo")


@dataclass(frozen=True)
class ProblemInstance:
    """A forward operator with its exact solution and exact data."""

    name: str
    variant: Optional[int]
    n: int
    A: LinearOperator
    f_true: np.ndarray
    g_true: np.ndarray


@dataclass(frozen=True)
class NoisyData:
    """One replicate of noisy data; sigma is derived from the SNR in decibels."""

    g: np.ndarray
    sigma: float
    xi: float
    seed: int
    replicate: int


def _midpoints(a: float, b: float, n: int) -> np.ndarray:
    h = (b - a) / n
    return a + h * (np.arange(n) + 0.5)


def _shaw(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Kernel ((cos s + cos t) * sin(u)/u)^2 with u = pi (sin s + sin t) on
    # [-pi/2, pi/2]^2, midpoint rule; the solution is a pair of Gaussians.
    th = _midpoints(-np.pi / 2, np.pi / 2, n)
    co = np.cos(th)
    si = np.sin(th)
    A = (np.pi / n) * ((co[:, None] + co[None, :]) * np.sinc(si[:, None] + si[None, :])) ** 2
    f = 2.0 * np.exp(-6.0 * (th - 0.8) ** 2) + np.exp(-2.0 * (th + 0.5) ** 2)
    return A, f


def _baart(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Kernel exp(s cos t), s in [0, pi/2], t in [0, pi], midpoint rule;
    # solution sin t.
    s = _midpoints(0.0, np.pi / 2, n)
    t = _midpoints(0.0, np.pi, n)
    A = (np.pi / n) * np.exp(s[:, None] * np.cos(t)[None, :])
    return A, np.sin(t)


def _deriv2(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Green's function of the second derivative on [0,1], Galerkin coefficients
    # in the orthonormal box basis; solution coefficients for f(t) = t.
    h = 1.0 / n
    i = np.arange(1, n + 1, dtype=float)
    A = np.empty((n, n))
    lower = h * h * ((i[None, :] - 0.5) * ((i[:, None] - 0.5) * h - 1.0))
    A[:] = lower
    iu = np.triu_indices(n, 1)
    A[iu] = lower.T[iu]
    A[np.diag_indices(n)] = h * h * ((i * i - i + 0.25) * h - (i - 2.0 / 3.0))
    f = h ** 1.5 * (i - 0.5)
    return A, f


def _foxgood(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Kernel sqrt(s^2 + t^2) on [0,1]^2, midpoint rule; solution t.
    t = _midpoints(0.0, 1.0, n)
    A = (1.0 / n) * np.sqrt(t[:, None] ** 2 + t[None, :] ** 2)
    return A, t


def _gravity(n: int, d: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    # Kernel d (d^2 + (s-t)^2)^{-3/2} on [0,1]^2, midpoint rule; solution
    # sin(pi t) + 0.5 sin(2 pi t).
    t = _midpoints(0.0, 1.0, n)
    A = (d / n) / (d * d + (t[:, None] - t[None, :]) ** 2) ** 1.5
    f = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    return A, f


def _heat(n: int, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    # Volterra convolution with k(t) = t^{-3/2} exp(-1/(4 kappa^2 t)) / (2 kappa sqrt(pi)),
    # midpoint rule; kappa = 1 is ill-conditioned, kappa = 5 almost well posed.
    h = 1.0 / n
    t = _midpoints(0.0, 1.0, n)
    c = h / (2.0 * kappa * np.sqrt(np.pi))
    d = 1.0 / (4.0 * kappa * kappa)
    col = c * t ** (-1.5) * np.exp(-d / t)
    i = np.arange(n)
    A = np.tril(col[i[:, None] - i[None, :]])   # Toeplitz: A[i, j] = col[i - j], i >= j
    f = np.zeros(n)
    ti = 20.0 * np.arange(1, n // 2 + 1) / n
    seg1 = ti < 2.0
    seg2 = (ti >= 2.0) & (ti < 3.0)
    seg3 = ti >= 3.0
    half = np.empty(n // 2)
    half[seg1] = 0.75 * ti[seg1] ** 2 / 4.0
    half[seg2] = 0.75 + (ti[seg2] - 2.0) * (3.0 - ti[seg2])
    half[seg3] = 0.75 * np.exp(-2.0 * (ti[seg3] - 3.0))
    f[: n // 2] = half
    return A, f


def _laguerre_nodes_logweights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and log of (weight * exp(node)).

    Nodes come from the symmetric tridiagonal Jacobi matrix of the Laguerre
    recurrence.  Weights are evaluated through the exponentially scaled
    polynomials L_k(t) e^{-t/2}, with periodic renormalization, so the
    products w_j e^{t_j} stay representable for any n.
    """
    from scipy.linalg import eigh_tridiagonal
    diag = 2.0 * np.arange(n) + 1.0
    off = np.arange(1, n, dtype=float)
    t = eigh_tridiagonal(diag, off, eigvals_only=True)
    # scaled recurrence: same three-term relation as L_k, started at e^{-t/2}
    p_prev = np.ones_like(t)
    p_curr = 1.0 - t
    logscale = -0.5 * t
    for k in range(1, n + 1):
        p_next = ((2.0 * k + 1.0 - t) * p_curr - k * p_prev) / (k + 1.0)
        p_prev, p_curr = p_curr, p_next
        big = np.abs(p_curr) > 1e120
        if np.any(big):
            p_curr[big] *= 1e-120
            p_prev[big] *= 1e-120
            logscale[big] += np.log(1e120)
    # after the loop p_curr = L_{n+1}(t) e^{logscale adjustments}
    log_lhat = np.log(np.abs(p_curr)) + logscale   # log |L_{n+1}(t) e^{-t/2}|
    log_w_exp = np.log(t) - 2.0 * np.log(n + 1.0) - 2.0 * log_lhat
    return t, log_w_exp


def _i_laplace(n: int, example: int) -> tuple[np.ndarray, np.ndarray]:
    # Laplace transform kernel exp(-s t) on [0, inf), Gauss-Laguerre quadrature
    # in t, collocation at s_i = 10 i / n.  Solutions:
    #   1: exp(-t/2)    2: 1 - exp(-t/2)    3: t^2 exp(-t/2)
    s = 10.0 * np.arange(1, n + 1) / n
    t, logw = _laguerre_nodes_logweights(n)
    A = np.exp(logw[None, :] - s[:, None] * t[None, :])
    if example == 1:
        f = np.exp(-t / 2.0)
    elif example == 2:
        f = 1.0 - np.exp(-t / 2.0)
    elif example == 3:
        f = t * t * np.exp(-t / 2.0)
    else:
        raise ValueError("i_laplace supports cases 1, 2, 3")
    return A, f


def _phillips(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Convolution with phi(x) = 1 + cos(pi x / 3) on |x| < 3, domain [-6, 6],
    # midpoint rule; the solution is phi itself.
    t = _midpoints(-6.0, 6.0, n)

    def phi(x):
        return np.where(np.abs(x) < 3.0, 1.0 + np.cos(np.pi * x / 3.0), 0.0)

    A = (12.0 / n) * phi(t[:, None] - t[None, :])
    return A, phi(t)


_DENSE_GENERATORS = {
    "shaw": lambda n, v: _shaw(n),
    "baart": lambda n, v: _baart(n),
    "deriv2": lambda n, v: _deriv2(n),
    "foxgood": lambda n, v: _foxgood(n),
    "gravity": lambda n, v: _gravity(n),
    "heat": lambda n, v: _heat(n, float(v)),
    "i_laplace": lambda n, v: _i_laplace(n, int(v)),
    "phillips": lambda n, v: _phillips(n),
}

_DEFAULT_VARIANTS = {"heat": 1, "i_laplace": 1}
_ALLOWED_VARIANTS = {"heat": (1, 5), "i_laplace": (1, 2, 3)}
_EVEN_N = ("heat", "shaw")   # as the classical definitions of these problems


def check_problem(name: str, variant, n) -> Optional[int]:
    """``variant`` as an integer (None, the family's default, stays None) once
    ``name`` is a known family, ``n`` an integer in [8, 4096], even for shaw
    and heat, and ``variant`` one the family takes; a ValueError otherwise."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}")
    if not 8 <= _count("n", n) <= 4096:
        raise ValueError("n out of supported range")
    if name in _EVEN_N and n % 2:
        raise ValueError(f"{name} requires even n")
    if variant is None:
        return None
    if name not in _ALLOWED_VARIANTS:
        raise ValueError(f"{name} takes no variant")
    variant = _count("variant", variant)
    if variant not in _ALLOWED_VARIANTS[name]:
        raise ValueError(f"{name} variant must be one of {_ALLOWED_VARIANTS[name]}")
    return variant


def make_problem(name: str, variant: Optional[int] = None, n: int = 64) -> ProblemInstance:
    """Build a named benchmark instance of size n (cells per side for tomography);
    ``check_problem`` says which inputs it rejects."""
    variant = check_problem(name, variant, n)
    if variant is None:
        variant = _DEFAULT_VARIANTS.get(name)
    if name == "paralleltomo":
        return parallel_tomo(cells_per_side=n)
    M, f = _DENSE_GENERATORS[name](n, variant)
    A = LinearOperator.from_dense(M)
    g = A.apply(f)
    if not (np.any(f) and np.any(g)):
        raise ValueError("degenerate instance: zero solution or data")
    return ProblemInstance(name=name, variant=variant, n=A.rows, A=A, f_true=f, g_true=g)


def sigma_for_snr(g_true, xi: float) -> float:
    """Noise level giving the requested SNR: xi = 10 log10(||g||^2 / (n sigma^2))."""
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    g_true = np.asarray(g_true, dtype=float)
    n = g_true.size
    return float(np.linalg.norm(g_true) / (np.sqrt(n) * 10.0 ** (xi / 20.0)))


def snr_db(rho2: float, sigma2: float, n: int) -> float:
    """SNR in decibels for signal energy rho2 and per-sample noise variance sigma2."""
    return 10.0 * np.log10(rho2 / (n * sigma2))


def unit_noise(size: int, seed: int, replicate: int = 0) -> np.ndarray:
    """The standard normal draw keyed by (seed, replicate) that ``add_noise``
    scales by sigma, at every SNR."""
    return keyed_rng(seed, replicate, TAG_NOISE).standard_normal(size)


def add_noise(p: ProblemInstance, xi: float, seed: int, replicate: int = 0) -> NoisyData:
    """White Gaussian noise at the requested SNR; keyed by (seed, replicate)."""
    sigma = sigma_for_snr(p.g_true, xi)
    eta = sigma * unit_noise(p.g_true.size, seed, replicate)
    return NoisyData(g=p.g_true + eta, sigma=sigma, xi=float(xi), seed=int(seed),
                     replicate=int(replicate))


# ---------------------------------------------------------------------------
# Parallel-beam tomography
# ---------------------------------------------------------------------------

# Ellipses of the standard head phantom: (value, a, b, x0, y0, angle_deg) on [-1,1]^2.
_PHANTOM_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def head_phantom(cells_per_side: int) -> np.ndarray:
    """Piecewise-constant ellipse phantom sampled at cell centers, row-major
    with x fastest (index = iy * cells + ix)."""
    ell = cells_per_side
    centers = (np.arange(ell) + 0.5) * 2.0 / ell - 1.0
    X, Y = np.meshgrid(centers, centers)   # X varies along axis 1
    img = np.zeros((ell, ell))
    for val, a, b, x0, y0, ang in _PHANTOM_ELLIPSES:
        th = np.deg2rad(ang)
        xr = (X - x0) * np.cos(th) + (Y - y0) * np.sin(th)
        yr = -(X - x0) * np.sin(th) + (Y - y0) * np.cos(th)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    return img.ravel()


def _trace_angle(offsets: np.ndarray, u: np.ndarray, v: np.ndarray, ell: int):
    """Siddon-style tracing of all parallel rays of one angle in one pass.

    Ray r starts at ``offsets[r] * v`` and runs along ``u``.  Its crossing
    parameters with the grid lines form row r of a sorted array.  ``p0 + t u``
    is monotone in t in floating point, so a row's inside-the-box parameters
    are contiguous, and the consecutive pairs with both ends inside are
    exactly the consecutive pairs of the clipped row.  Returns the ray index,
    the cell index and the intersection length of every kept segment, in ray
    order and along each ray.
    """
    half = ell / 2.0
    lines = np.arange(-half, half + 1.0)
    p0 = offsets[:, None] * v[None, :]
    ts = np.sort(np.concatenate([(lines[None, :] - p0[:, axis, None]) / u[axis]
                                 for axis in range(2) if abs(u[axis]) > 1e-14],
                                axis=1), axis=1)
    inside = np.ones(ts.shape, dtype=bool)
    for axis in range(2):
        inside &= np.abs(p0[:, axis, None] + ts * u[axis]) <= half + 1e-9
    dt = ts[:, 1:] - ts[:, :-1]
    ray, seg = np.nonzero(inside[:, 1:] & inside[:, :-1] & (dt > 1e-12))
    dt = dt[ray, seg]
    mid = ts[ray, seg] + 0.5 * dt
    ix = np.clip(np.floor(p0[ray, 0] + mid * u[0] + half).astype(np.int64), 0, ell - 1)
    iy = np.clip(np.floor(p0[ray, 1] + mid * u[1] + half).astype(np.int64), 0, ell - 1)
    return ray, iy * ell + ix, dt


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def parallel_tomo(cells_per_side: int = 32, angles: int = 60,
                  rays_per_angle: int = 45, span: float | None = None) -> ProblemInstance:
    """Parallel-beam tomography operator over an ell x ell unit-cell grid.

    Rows are rays: for each of the equally spaced angles in [0, 180) degrees,
    ``rays_per_angle`` parallel rays with offsets spread over ``span`` (the
    grid diagonal by default).  Entries are exact ray-cell intersection
    lengths, held in sparse form behind a matrix-free operator; the rays of
    one angle are traced together.  The exact solution is the classical head
    phantom.
    """
    import scipy.sparse as sp
    ell = _count("cells_per_side", cells_per_side)
    angles = _count("angles", angles)
    rays_per_angle = _count("rays_per_angle", rays_per_angle)
    if ell < 2:
        raise ValueError("need at least a 2x2 grid")
    if angles < 1 or rays_per_angle < 1:
        raise ValueError("degenerate geometry: need at least one angle and one ray")
    if span is None:
        span = np.sqrt(2.0) * ell
    elif not 0.0 < span < np.inf:
        raise ValueError("span must be positive and finite")
    theta = np.deg2rad(np.arange(angles) * 180.0 / angles)
    if rays_per_angle == 1:
        offsets = np.array([0.0])
    else:
        offsets = np.linspace(-span / 2.0, span / 2.0, rays_per_angle)
    rows, cols, vals = [], [], []
    for k, th in enumerate(theta):
        u = np.array([np.cos(th), np.sin(th)])
        v = np.array([-np.sin(th), np.cos(th)])
        ray, idx, lengths = _trace_angle(offsets, u, v, ell)
        rows.append(ray + k * rays_per_angle)
        cols.append(idx)
        vals.append(lengths)
    S = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(angles * rays_per_angle, ell * ell)).tocsr()
    A = LinearOperator.from_sparse(S)
    f = head_phantom(ell)
    g = A.apply(f)
    if not np.any(g):
        raise ValueError("degenerate instance: zero solution or data")
    return ProblemInstance(name="paralleltomo", variant=None, n=A.rows, A=A,
                           f_true=f, g_true=g)


# ---------------------------------------------------------------------------
# Container files
# ---------------------------------------------------------------------------
#
# Layout: 8-byte magic b"RISKREG1", little-endian uint64 header length, UTF-8
# JSON header, then the raw array payloads in header order.  All payloads are
# float64 little-endian; matrices are stored column-major.  The header lists
# each section as {"field", "shape"} plus the scalar metadata (format_version,
# name, variant, n, m, and the noise parameters when present).

_MAGIC = b"RISKREG1"


def save_container(path, problem: Optional[ProblemInstance] = None,
                   noisy: Optional[NoisyData] = None) -> None:
    """Write a problem and/or one noisy replicate to a single container file."""
    if problem is None and noisy is None:
        raise ValueError("nothing to save")
    header: dict = {"format_version": 1}
    arrays: list[tuple[str, np.ndarray, str]] = []
    if problem is not None:
        header.update(name=problem.name, variant=problem.variant,
                      n=problem.A.rows, m=problem.A.cols)
        arrays.append(("A", problem.A.to_dense(), "F"))
        if problem.f_true is not None:
            arrays.append(("f_true", problem.f_true, "C"))
        if problem.g_true is not None:
            arrays.append(("g_true", problem.g_true, "C"))
    if noisy is not None:
        header.update(sigma=noisy.sigma, xi=noisy.xi, seed=noisy.seed,
                      replicate=noisy.replicate)
        arrays.append(("g", noisy.g, "C"))
    header["sections"] = [{"field": name, "shape": list(arr.shape), "order": order}
                          for name, arr, order in arrays]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for _, arr, order in arrays:
            fh.write(np.asarray(arr, dtype="<f8").tobytes(order=order))


_FIELDS = {"A": 2, "f_true": 1, "g_true": 1, "g": 1}    # section field -> ndim
_NOISE_KEYS = ("sigma", "xi", "seed", "replicate")


def _check_header(header) -> list:
    """The sections of a parsed container header, after checking that the
    header is an object, each section names a distinct known field with a
    shape of non-negative ints of that field's rank and order "C" or "F", and
    the noise metadata is numeric and finite.  Anything else is a ValueError."""
    if not isinstance(header, dict):
        raise ValueError("container header is not a JSON object")
    for key in _NOISE_KEYS:
        value = header.get(key, 0)
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ValueError(f"container {key} must be a finite number, got {value!r}")
    sections = header.get("sections")
    if not (isinstance(sections, list) and all(isinstance(s, dict) for s in sections)):
        raise ValueError("container sections must be a list of objects")
    fields = [sec.get("field") for sec in sections]
    if not all(type(f) is str and f in _FIELDS for f in fields) or \
            len(set(fields)) < len(fields):
        raise ValueError(f"container sections must name distinct fields of {list(_FIELDS)}")
    if any(key in header for key in _FIELDS):
        raise ValueError("container header holds an array field outside its sections")
    for field, sec in zip(fields, sections):
        shape = sec.get("shape")
        if not (isinstance(shape, list) and len(shape) == _FIELDS[field]
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"container field {field!r} has shape {shape!r}")
        if sec.get("order", "C") not in ("C", "F"):
            raise ValueError(f"container field {field!r} has order {sec['order']!r}")
    return sections


def load_container(path) -> dict:
    """Read a container; returns the header dict with arrays attached under
    their field names.  An ill-formed header (see ``_check_header``), an array
    holding NaN or inf or whose squared norm overflows, a header or section
    that runs past the end of the file, or vectors whose lengths do not match
    the matrix is a ValueError."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a riskreg container")
        length = int.from_bytes(fh.read(8), "little")
        left = os.fstat(fh.fileno()).st_size - 16 - length  # bytes after the header
        if left < 0:
            raise ValueError("container header runs past the end of the file")
        try:
            header = json.loads(fh.read(length).decode("utf-8"))
        except RecursionError:
            raise ValueError("container header is nested too deeply") from None
        for sec in _check_header(header):
            field, shape = sec["field"], sec["shape"]
            size = 8 * math.prod(shape)
            if size > left:
                raise ValueError(f"container field {field!r} does not fit the file")
            left -= size
            arr = np.frombuffer(fh.read(size), dtype="<f8")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"container field {field!r} has non-finite entries")
            with np.errstate(over="ignore"):
                if not np.isfinite(arr @ arr):
                    raise ValueError(f"container field {field!r} overflows its squared norm")
            header[field] = arr.reshape(shape, order=sec.get("order", "C")).copy()
    if "A" in header:
        rows, cols = header["A"].shape
        lengths = {"f_true": cols, "g_true": rows, "g": rows}
        if any(f in header and header[f].size != n for f, n in lengths.items()):
            raise ValueError("container vectors do not match the matrix shape")
    return header


def problem_from_container(data: dict) -> ProblemInstance:
    if "A" not in data:
        raise ValueError("container has no operator matrix")
    A = LinearOperator.from_dense(data["A"])
    return ProblemInstance(name=data.get("name", "custom"), variant=data.get("variant"),
                           n=A.rows, A=A, f_true=data.get("f_true"),
                           g_true=data.get("g_true"))


def noisy_from_container(data: dict) -> NoisyData:
    if "g" not in data:
        raise ValueError("container has no noisy data")
    return NoisyData(g=data["g"], sigma=data.get("sigma", 0.0), xi=data.get("xi", 0.0),
                     seed=data.get("seed", 0), replicate=data.get("replicate", 0))
