import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import roots_laguerre

import riskreg as rr
from riskreg.problems import (_laguerre_nodes_logweights, head_phantom,
                              load_container, noisy_from_container,
                              problem_from_container, save_container)
from riskreg.rng import keyed_rng


class TestGenerators:
    def test_consistency_and_nonzero(self, benchmarks64):
        for p, _ in benchmarks64:
            assert np.linalg.norm(p.g_true - p.A.apply(p.f_true)) <= \
                1e-10 * np.linalg.norm(p.g_true)
            assert np.any(p.f_true) and np.any(p.g_true)

    def test_shaw_symmetric(self):
        A = rr.make_problem("shaw", None, 64).A.to_dense()
        assert np.linalg.norm(A - A.T) <= 1e-12 * np.linalg.norm(A)

    def test_deriv2_quadratic_decay(self):
        dec = rr.svd(rr.make_problem("deriv2", None, 64).A)
        for i in (4, 6, 8, 12):
            ratio = dec.s[2 * i - 1] / dec.s[i - 1]
            assert 0.15 <= ratio <= 0.35

    def test_conditioning(self, benchmarks64):
        for p, dec in benchmarks64:
            cond = dec.s[0] / dec.s[-1]
            if p.name == "heat" and p.variant == 5:
                assert cond < 50            # almost well posed
            else:
                assert cond > 1e3

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            rr.make_problem("unknown", None, 32)
        with pytest.raises(ValueError):
            rr.make_problem("heat", 3, 32)
        with pytest.raises(ValueError):
            rr.make_problem("i_laplace", 4, 32)
        with pytest.raises(ValueError):
            rr.make_problem("shaw", 1, 32)

    def test_pure_function_of_inputs(self):
        a = rr.make_problem("gravity", None, 32)
        b = rr.make_problem("gravity", None, 32)
        assert np.array_equal(a.A.to_dense(), b.A.to_dense())
        assert np.array_equal(a.f_true, b.f_true)

    def test_laguerre_rule_matches_scipy(self):
        for n in (8, 16, 32):
            t, logw = _laguerre_nodes_logweights(n)
            ts, ws = roots_laguerre(n)
            np.testing.assert_allclose(t, ts, rtol=1e-12)
            keep = ws > 1e-280
            np.testing.assert_allclose(logw[keep], np.log(ws[keep]) + ts[keep],
                                       atol=1e-10)

    @pytest.mark.parametrize("n", [256, 512])
    def test_laguerre_rescale_keeps_the_weights(self, n):
        # from n = 256 the scaled recurrence passes 1e120 and is renormalized
        # (at 512 it would overflow): the weights e^{-t} (w e^t) still
        # integrate 1 over [0, inf)
        t, logw = _laguerre_nodes_logweights(n)
        w = np.exp(logw - t)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(np.isfinite(rr.make_problem("i_laplace", 1, n).A.to_dense()))


@pytest.mark.parametrize("n", [8, 64, 256])
def test_heat_matrix_is_scipy_toeplitz_bit_for_bit(n):
    M = rr.make_problem("heat", 1, n).A.to_dense()
    col = M[:, 0]
    assert M.tobytes() == scipy.linalg.toeplitz(col, np.r_[col[0], np.zeros(n - 1)]).tobytes()


class TestNoise:
    def test_snr_inversion(self):
        p = rr.make_problem("shaw", None, 64)
        d = rr.add_noise(p, 0.0, seed=1)
        rho2 = float(p.g_true @ p.g_true)
        assert rho2 / (64 * d.sigma ** 2) == pytest.approx(1.0)
        assert rr.snr_db(rho2, d.sigma ** 2, 64) == pytest.approx(0.0, abs=1e-12)

    def test_empirical_variance(self):
        p = rr.make_problem("gravity", None, 1024)
        d = rr.add_noise(p, 10.0, seed=9)
        eta4 = np.concatenate([rr.add_noise(p, 10.0, 9, rep).g - p.g_true
                               for rep in range(4)])
        assert np.var(eta4) == pytest.approx(d.sigma ** 2, rel=0.05)

    def test_bitwise_reproducible(self):
        p = rr.make_problem("phillips", None, 64)
        a = rr.add_noise(p, 20.0, seed=5, replicate=3)
        b = rr.add_noise(p, 20.0, seed=5, replicate=3)
        assert np.array_equal(a.g, b.g)
        c = rr.add_noise(p, 20.0, seed=5, replicate=4)
        assert not np.array_equal(a.g, c.g)

    @pytest.mark.parametrize("key", [{"seed": 1.5}, {"replicate": 2.0}, {"seed": True}])
    def test_rejects_a_stream_key_that_is_not_an_integer(self, key):
        # seed 1.5 drew seed 1's noise
        p = rr.make_problem("shaw", None, 16)
        with pytest.raises(ValueError, match="stream key must be an integer"):
            rr.add_noise(p, 20.0, **{"seed": 1, **key})

    def test_isotropy(self):
        # off-diagonal correlations average to zero across replicates
        p = rr.make_problem("deriv2", None, 1024)
        etas = np.stack([rr.add_noise(p, 10.0, 7, rep).g - p.g_true
                         for rep in range(50)])
        cols = keyed_rng(77).choice(1024, size=40, replace=False)
        corr = np.corrcoef(etas[:, cols], rowvar=False)
        off = corr[~np.eye(40, dtype=bool)]
        assert abs(off.mean()) <= 0.1


class TestTomography:
    def test_single_horizontal_ray(self):
        p = rr.parallel_tomo(cells_per_side=8, angles=1, rays_per_angle=1)
        proj = p.A.apply(np.ones(64))
        assert proj[0] == pytest.approx(8.0, abs=1e-10)

    def test_row_sums_match_chord_lengths(self):
        ell, angles, rays = 10, 12, 15
        p = rr.parallel_tomo(cells_per_side=ell, angles=angles, rays_per_angle=rays)
        row_sums = p.A.apply(np.ones(ell * ell))
        offsets = np.linspace(-np.sqrt(2.0) * ell / 2, np.sqrt(2.0) * ell / 2, rays)
        chords = [_chord(ell, np.deg2rad(a * 180.0 / angles), off)
                  for a in range(angles) for off in offsets]
        np.testing.assert_allclose(row_sums, chords, rtol=0.0, atol=1e-10)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            rr.parallel_tomo(cells_per_side=8, angles=0, rays_per_angle=5)

    def test_phantom_and_consistency(self):
        p = rr.parallel_tomo(cells_per_side=16, angles=10, rays_per_angle=12)
        assert np.any(p.f_true > 0)
        assert np.linalg.norm(p.g_true - p.A.apply(p.f_true)) <= \
            1e-10 * np.linalg.norm(p.g_true)

    def test_phantom_is_centered_head(self):
        img = head_phantom(64).reshape(64, 64)
        assert img[32, 32] > 0          # inside the big ellipse
        assert img[0, 0] == 0.0         # corners empty


# (case id, call, message): each geometry or noise level is rejected with a
# ValueError whose message contains the given text
_INVALID = [
    ("angles_float", lambda: rr.parallel_tomo(8, 2.5, 5), "angles must be an integer"),
    ("rays_float", lambda: rr.parallel_tomo(8, 3, 5.0), "rays_per_angle must be an integer"),
    ("angles_bool", lambda: rr.parallel_tomo(8, True, 5), "angles must be an integer"),
    ("rays_bool", lambda: rr.parallel_tomo(8, 3, True), "rays_per_angle must be an integer"),
    ("span_nan", lambda: rr.parallel_tomo(8, 3, 5, span=float("nan")), "span"),
    ("span_inf", lambda: rr.parallel_tomo(8, 3, 5, span=float("inf")), "span"),
    ("span_zero", lambda: rr.parallel_tomo(8, 3, 5, span=0.0), "span"),
    ("span_negative", lambda: rr.parallel_tomo(8, 3, 5, span=-4.0), "span"),
    ("rays_miss_box", lambda: rr.parallel_tomo(8, 4, 2, span=100.0), "degenerate instance"),
    ("tomo_variant", lambda: rr.make_problem("paralleltomo", 5, 8),
     "paralleltomo takes no variant"),
    *[(f"heat_variant_{v!r}", lambda v=v: rr.make_problem("heat", v, 32),
       "variant must be an integer") for v in (1.7, True, "5", 5.0)],
    *[(f"n_{n!r}", lambda n=n: rr.make_problem("shaw", None, n), "n must be an integer")
      for n in (64.0, "64")],
    ("noise_nan_xi", lambda: rr.add_noise(rr.make_problem("shaw", None, 16), float("nan"), 0),
     "xi must be finite"),
    ("noise_inf_xi", lambda: rr.add_noise(rr.make_problem("shaw", None, 16), float("inf"), 0),
     "xi must be finite"),
    ("snr_minus_inf_xi", lambda: rr.sigma_for_snr(np.ones(4), float("-inf")),
     "xi must be finite"),
    ("save_nothing", lambda: save_container("unwritten.rr"), "nothing to save"),
]


class TestLibraryValidation:
    @pytest.mark.parametrize("call,message", [(c, m) for _, c, m in _INVALID],
                             ids=[i for i, _, _ in _INVALID])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestContainers:
    def test_problem_round_trip(self, tmp_path):
        p = rr.make_problem("foxgood", None, 32)
        path = tmp_path / "problem.rr"
        save_container(path, problem=p)
        raw = load_container(path)
        q = problem_from_container(raw)
        assert raw["name"] == "foxgood" and raw["n"] == 32 and raw["m"] == 32
        assert np.array_equal(q.A.to_dense(), p.A.to_dense())
        assert np.array_equal(q.f_true, p.f_true)
        assert np.array_equal(q.g_true, p.g_true)

    def test_noisy_round_trip(self, tmp_path):
        p = rr.make_problem("shaw", None, 16)
        d = rr.add_noise(p, 20.0, seed=3, replicate=1)
        path = tmp_path / "data.rr"
        save_container(path, problem=p, noisy=d)
        raw = load_container(path)
        d2 = noisy_from_container(raw)
        assert np.array_equal(d2.g, d.g)
        assert d2.sigma == d.sigma and d2.xi == d.xi
        assert d2.seed == 3 and d2.replicate == 1

    @pytest.mark.parametrize("name,variant,n", [("shaw", None, 16), ("heat", 5, 16),
                                                ("i_laplace", 2, 8), ("paralleltomo", None, 8)])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_round_trip_is_bitwise(self, tmp_path, name, variant, n, noisy):
        p = rr.make_problem(name, variant, n)
        d = rr.add_noise(p, 17.5, seed=11, replicate=4) if noisy else None
        path = tmp_path / "c.rr"
        save_container(path, problem=p, noisy=d)
        raw = load_container(path)
        q = problem_from_container(raw)
        assert (q.name, q.variant, q.n) == (p.name, p.variant, p.n)
        assert (raw["n"], raw["m"]) == p.A.shape
        for got, want in ((q.A.to_dense(), p.A.to_dense()), (q.f_true, p.f_true),
                          (q.g_true, p.g_true)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if noisy:
            e = noisy_from_container(raw)
            assert e.g.tobytes() == d.g.tobytes()
            assert (e.sigma, e.xi, e.seed, e.replicate) == (d.sigma, d.xi, d.seed, d.replicate)
            assert all(type(getattr(e, k)) is type(getattr(d, k))
                       for k in ("sigma", "xi", "seed", "replicate"))
        else:
            assert "g" not in raw and "sigma" not in raw

    def test_matrix_is_column_major_float64(self, tmp_path):
        p = rr.make_problem("deriv2", None, 16)
        path = tmp_path / "p.rr"
        save_container(path, problem=p)
        import json
        with open(path, "rb") as fh:
            assert fh.read(8) == b"RISKREG1"
            (length,) = np.frombuffer(fh.read(8), dtype="<u8")
            header = json.loads(fh.read(int(length)))
            sec = header["sections"][0]
            assert sec["field"] == "A" and sec["order"] == "F"
            A = np.frombuffer(fh.read(8 * 16 * 16), dtype="<f8").reshape(
                (16, 16), order="F")
        np.testing.assert_array_equal(A, p.A.to_dense())

    def test_rejects_a_header_nested_past_the_recursion_limit(self, tmp_path):
        header = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "deep.rr"
        path.write_bytes(b"RISKREG1" + len(header).to_bytes(8, "little") + header)
        with pytest.raises(ValueError, match="^container header is nested too deeply$"):
            load_container(path)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "part.rr"
        p = rr.make_problem("shaw", None, 8)
        save_container(path, noisy=rr.add_noise(p, 20.0, seed=0))
        with pytest.raises(ValueError, match="^container has no operator matrix$"):
            problem_from_container(load_container(path))
        save_container(path, problem=p)
        with pytest.raises(ValueError, match="^container has no noisy data$"):
            noisy_from_container(load_container(path))

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.rr"
        path.write_bytes(b"NOTRISKREG")
        with pytest.raises(ValueError):
            load_container(path)


# ---------------------------------------------------------------------------
# The per-angle tracer against the per-ray loop it replaced
# ---------------------------------------------------------------------------

def _trace_ray(p0, u, ell):
    """Siddon-style tracing of one ray, as the tomography operator once did it
    ray by ray: cell indices and intersection lengths."""
    half = ell / 2.0
    ts = []
    for axis in range(2):
        if abs(u[axis]) > 1e-14:
            lines = np.arange(-half, half + 1.0)
            ts.append((lines - p0[axis]) / u[axis])
    ts = np.sort(np.concatenate(ts)) if ts else np.array([])
    if ts.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pts = p0[None, :] + ts[:, None] * u[None, :]
    inside = np.all(np.abs(pts) <= half + 1e-9, axis=1)
    ts = ts[inside]
    if ts.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dt = np.diff(ts)
    keep = dt > 1e-12
    mids = p0[None, :] + (ts[:-1] + 0.5 * dt)[:, None] * u[None, :]
    ix = np.clip(np.floor(mids[:, 0] + half).astype(np.int64), 0, ell - 1)
    iy = np.clip(np.floor(mids[:, 1] + half).astype(np.int64), 0, ell - 1)
    return (iy * ell + ix)[keep], dt[keep]


def _tomo_per_ray(ell, angles, rays, span):
    theta = np.deg2rad(np.arange(angles) * 180.0 / angles)
    span = np.sqrt(2.0) * ell if span is None else span
    offsets = np.array([0.0]) if rays == 1 else np.linspace(-span / 2.0, span / 2.0, rays)
    rows, cols, vals = [], [], []
    ray = 0
    for th in theta:
        u = np.array([np.cos(th), np.sin(th)])
        v = np.array([-np.sin(th), np.cos(th)])
        for off in offsets:
            idx, lengths = _trace_ray(off * v, u, ell)
            rows.append(np.full(idx.size, ray, dtype=np.int64))
            cols.append(idx)
            vals.append(lengths)
            ray += 1
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(ray, ell * ell)).tocsr()


def _chord(ell, th, offset):
    """Length of the line {offset v + t u} inside [-ell/2, ell/2]^2 (Liang-Barsky)."""
    u = np.array([np.cos(th), np.sin(th)])
    c = offset * np.array([-np.sin(th), np.cos(th)])
    t_lo, t_hi = -np.inf, np.inf
    for axis in range(2):
        if abs(u[axis]) > 1e-14:
            t1, t2 = (-ell / 2 - c[axis]) / u[axis], (ell / 2 - c[axis]) / u[axis]
            t_lo, t_hi = max(t_lo, min(t1, t2)), min(t_hi, max(t1, t2))
        elif abs(c[axis]) > ell / 2:
            return 0.0
    return max(t_hi - t_lo, 0.0)


# span as a multiple of the cell count: None is the diagonal; below 1 every ray
# crosses the box, above sqrt(2) the outer rays miss it and their rows are empty
_GEOMETRY = dict(ell=st.integers(2, 40),
                 angles=st.integers(1, 90) | st.integers(1, 45).map(lambda k: 2 * k),
                 rays=st.integers(1, 50),
                 span=st.none() | st.floats(0.05, 0.99) | st.floats(1.42, 4.0))


class TestTracer:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**_GEOMETRY)
    @example(ell=16, angles=60, rays=45, span=None)
    @example(ell=7, angles=180, rays=9, span=None)
    @example(ell=5, angles=4, rays=3, span=3.5)
    @example(ell=4, angles=2, rays=2, span=0.5)     # 90-degree rays along grid lines
    def test_matches_per_ray_loop(self, ell, angles, rays, span):
        span = None if span is None else span * ell
        want = _tomo_per_ray(ell, angles, rays, span)
        if not np.any(want @ head_phantom(ell)):     # every ray misses the phantom
            with pytest.raises(ValueError, match="degenerate instance"):
                rr.parallel_tomo(ell, angles, rays, span=span)
            return
        got = rr.parallel_tomo(ell, angles, rays, span=span).A._matrix
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**_GEOMETRY)
    @example(ell=16, angles=2, rays=45, span=None)
    def test_rows_sum_to_chord_lengths(self, ell, angles, rays, span):
        span = None if span is None else span * ell
        try:
            S = rr.parallel_tomo(ell, angles, rays, span=span).A._matrix
        except ValueError as exc:                    # every ray misses the phantom
            assert "degenerate instance" in str(exc)
            reject()
        row_sums = np.asarray(S.sum(axis=1)).ravel()
        width = np.sqrt(2.0) * ell if span is None else span
        offsets = np.array([0.0]) if rays == 1 else np.linspace(-width / 2, width / 2, rays)
        chords = np.array([_chord(ell, th, off)
                           for th in np.deg2rad(np.arange(angles) * 180.0 / angles)
                           for off in offsets])
        np.testing.assert_allclose(row_sums, chords, rtol=1e-12, atol=0.0)
