import io

import numpy as np
import pytest

import riskreg as rr
from riskreg.risk import _T_h_terms
from riskreg.rng import keyed_rng


def _T_h_second(source, h, alpha):
    """T_h'' at alpha, f1 + h f2 of ``_T_h_terms``."""
    _, _, f1, f2 = _T_h_terms(source, alpha)
    return float(f1 + h * f2)


class TestPredictiveRisk:
    def test_zero_noise_zero_alpha(self):
        dec = rr.svd(np.diag([2.0, 1.0]))
        assert rr.predictive_risk(dec, np.array([1.0, 1.0]), 0.0, 0.0) == 0.0

    def test_identity_closed_form_vs_monte_carlo(self):
        # independent oracle: sample E||X g_noisy - g_true||^2 directly
        n = 8
        dec = rr.svd(np.eye(n))
        rng = keyed_rng(11)
        g_true = rng.standard_normal(n)
        sigma = 0.3
        alpha = 0.7
        closed = (alpha / (1 + alpha)) ** 2 * g_true @ g_true \
            + sigma ** 2 * n / (1 + alpha) ** 2
        assert rr.predictive_risk(dec, g_true, sigma ** 2, alpha) == pytest.approx(closed)
        draws = 10_000
        eta = sigma * rng.standard_normal((draws, n))
        pred = (g_true + eta) / (1 + alpha)      # X_alpha for the identity
        mc = np.mean(np.sum((pred - g_true) ** 2, axis=1))
        assert closed == pytest.approx(mc, rel=0.01)

    def test_full_shrinkage_limit(self, shaw32):
        p, dec = shaw32
        alpha = 1e12 * float(dec.s[0]) ** 2
        rho2 = float(p.g_true @ p.g_true)
        assert rr.predictive_risk(dec, p.g_true, 1e-4, alpha) == pytest.approx(rho2, rel=1e-6)

    def test_derivative_matches_finite_difference(self, shaw32):
        p, dec = shaw32
        sigma2 = 1e-4
        for alpha in (1e-4, 1e-2, 1.0):
            d = rr.predictive_risk_derivative(dec, p.g_true, sigma2, alpha)
            h = alpha * 1e-6
            fd = (rr.predictive_risk(dec, p.g_true, sigma2, alpha + h)
                  - rr.predictive_risk(dec, p.g_true, sigma2, alpha - h)) / (2 * h)
            assert d == pytest.approx(fd, rel=1e-5)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [rr.predictive_risk, rr.predictive_risk_derivative])
    def test_rejects_nonfinite_data(self, shaw32, fn, bad):
        p, dec = shaw32
        g = p.g_true.copy()
        g[5] = bad
        with pytest.raises(ValueError, match=f"^g_true must be finite, got {bad!r}$"):
            fn(dec, g, 1e-4, np.array([1e-3, 1e-2]))


class TestLowerBound:
    def test_below_predictive_risk_on_grids(self, benchmarks64):
        for p, dec in benchmarks64:
            rho2 = float(p.g_true @ p.g_true)
            s1_sq = float(dec.s[0]) ** 2
            sigma = rr.sigma_for_snr(p.g_true, 10.0)
            for alpha in np.geomspace(1e-12 * s1_sq, 0.5 * s1_sq, 50):
                T = rr.lower_bound_T(rho2, sigma ** 2, dec, alpha)
                pr = rr.predictive_risk(dec, p.g_true, sigma ** 2, alpha)
                assert T <= pr * (1 + 1e-12)

    def test_accepts_influence_quantities(self, shaw32):
        _, dec = shaw32
        inf = rr.influence_path_exact(dec, [0.1])
        direct = rr.lower_bound_T(2.0, 0.5, dec, 0.1)
        assert rr.lower_bound_T(2.0, 0.5, inf)[0] == pytest.approx(direct)
        assert rr.lower_bound_T(2.0, 0.5, inf, alpha=0.1) == pytest.approx(direct)
        # an alpha off the path's grid is evaluated from its measure
        assert rr.lower_bound_T(2.0, 0.5, inf, alpha=0.2) == rr.lower_bound_T(2.0, 0.5, dec, 0.2)
        # a spectrum evaluated on a grid matches the influence path on that grid
        grid = np.geomspace(1e-6, 1.0, 9)
        np.testing.assert_array_equal(rr.lower_bound_T(2.0, 0.5, dec, grid),
                                      rr.lower_bound_T(2.0, 0.5,
                                                       rr.influence_path_exact(dec, grid)))

    def test_small_alpha_limit_is_rank_times_h(self):
        # spectrum with bounded spread so the limit is resolved at 1e-12 s1^2
        rng = keyed_rng(12)
        A = np.diag(rng.uniform(0.5, 2.0, size=16))
        dec = rr.svd(A)
        h = 1e-3
        s1_sq = float(dec.s[0]) ** 2
        val = rr.T_h(dec, h, 1e-12 * s1_sq)
        assert val == pytest.approx(dec.rank * h, rel=1e-6)

    def test_large_alpha_limit_is_one(self, shaw32):
        _, dec = shaw32
        s1_sq = float(dec.s[0]) ** 2
        assert rr.T_h(dec, 1e-3, 1e8 * s1_sq) == pytest.approx(1.0, rel=1e-6)


class TestDerivative:
    def test_negative_at_zero(self, shaw32):
        _, dec = shaw32
        h = 1e-4
        expected = -2.0 * h * np.sum(dec.s ** -2.0)
        assert rr.T_h_derivative(dec, h, 0.0) == pytest.approx(expected)

    def test_matches_central_difference(self):
        rng = keyed_rng(13)
        A = rng.standard_normal((20, 20))
        dec = rr.svd(A)
        s1_sq = float(dec.s[0]) ** 2
        for _ in range(20):
            h = 10.0 ** rng.uniform(-6, -1)
            alpha = 10.0 ** rng.uniform(np.log10(1e-6 * s1_sq), np.log10(0.4 * s1_sq))
            d = rr.T_h_derivative(dec, h, alpha)
            step = alpha * 1e-6
            fd = (rr.T_h(dec, h, alpha + step) - rr.T_h(dec, h, alpha - step)) / (2 * step)
            scale = abs(d) + 2.0 * h * np.sum(dec.s ** 4 / (alpha + dec.s ** 2) ** 3)
            assert abs(d - fd) <= 1e-6 * scale

    def test_identity_root_at_n_h(self):
        dec = rr.svd(np.eye(12))
        h = 0.01
        assert rr.T_h_derivative(dec, h, 12 * h) == pytest.approx(0.0, abs=1e-15)


class TestMinimizeT:
    def test_identity_analytic(self):
        dec = rr.svd(np.eye(16))
        res = rr.minimize_T(dec, 1.0 / 64.0)
        assert res.converged
        assert res.alpha_star == pytest.approx(0.25, abs=1e-8)
        assert res.bracket[0] <= res.alpha_star <= res.bracket[1] or \
            res.bracket[0] == res.bracket[1]

    def test_within_analytic_bounds(self, shaw32):
        _, dec = shaw32
        res = rr.minimize_T(dec, 1e-4)
        lo, hi = rr.alpha_bounds(dec, 1e-4)
        assert lo * (1 - 1e-10) <= res.alpha_star <= hi * (1 + 1e-10)

    def test_monotone_in_h(self, shaw32):
        _, dec = shaw32
        hs = np.geomspace(1e-6, 1e-2, 10)
        stars = [rr.minimize_T(dec, h).alpha_star for h in hs]
        assert np.all(np.diff(stars) > 0)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name,variant", [
        ("baart", None), ("deriv2", None), ("foxgood", None), ("gravity", None),
        ("heat", 1), ("phillips", None), ("shaw", None)])
    def test_nondecreasing_in_h_across_decades(self, name, variant, n):
        # from far below the noise floor to beyond the boundary case, up to the
        # minimizer's 1e-12 relative tolerance
        dec = rr.svd(rr.make_problem(name, variant, n).A)
        stars = np.array([rr.minimize_T(dec, h).alpha_star
                          for h in np.geomspace(1e-14, 10.0, 400)])
        assert np.all(stars[1:] >= stars[:-1] * (1.0 - 1e-12))

    def test_boundary_case_flagged(self):
        # a single singular value puts the stationary point at s1^2 h > s1^2/2
        dec = rr.svd(np.diag([2.0]))
        res = rr.minimize_T(dec, 0.6)
        assert res.at_boundary and res.converged
        assert res.alpha_star == pytest.approx(0.5 * 4.0)

    def test_lower_endpoint_returned_where_the_derivative_vanishes(self):
        # on a single singular value the stationary point is s1^2 h itself, the
        # lower end of the search: the derivative rounds to >= 0 there at s1 = 10
        res = rr.minimize_T(rr.svd(np.diag([10.0])), 0.01)
        assert res.alpha_star == pytest.approx(1.0, rel=1e-15) and res.iterations == 0
        assert res.bracket == (res.alpha_star, res.alpha_star) and res.converged
        assert not res.at_boundary

    def test_stationarity_scales_with_tiny_h(self, shaw32):
        _, dec = shaw32
        for h in (1e-12, 1e-18, 1e-24):
            res = rr.minimize_T(dec, h)
            s2 = dec.s ** 2
            a = res.alpha_star
            lhs = a * s2[0] / (a + s2[0]) ** 3
            rhs = h * np.sum(s2 ** 2 / (a + s2) ** 3)
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)


class TestMeasureSource:
    """Every lower-bound routine reads the measure, so a spectrum and its
    exact influence path give the same bits, at any alpha."""

    def test_minimize_T_same_alpha_star(self, benchmarks64):
        for p, dec in benchmarks64:
            s1_sq = float(dec.s[0]) ** 2
            inf = rr.influence_path_exact(dec, np.geomspace(1e-12, 0.5, 17) * s1_sq)
            for h in (1e-9, 1e-5, 1e-3, 0.6):
                a, b = rr.minimize_T(dec, h), rr.minimize_T(inf, h)
                assert a.alpha_star == b.alpha_star, (p.name, h)
                assert a.objective == b.objective and a.iterations == b.iterations

    def test_bounds_and_derivatives_agree(self, shaw32):
        _, dec = shaw32
        inf = rr.influence_path_exact(dec, [1e-3, 1e-2])
        for h in (1e-6, 1e-2):
            assert rr.alpha_bounds(inf, h) == rr.alpha_bounds(dec, h)
            assert rr.global_minimizer_certificate(inf, h) == \
                rr.global_minimizer_certificate(dec, h)
            assert rr.T_h_derivative(inf, h, 0.37) == rr.T_h_derivative(dec, h, 0.37)
            assert _T_h_second(inf, h, 0.37) == _T_h_second(dec, h, 0.37)

    def test_stochastic_measure_minimizes_off_grid(self, shaw64_stochastic_battery):
        bat = shaw64_stochastic_battery
        inf = bat["paths"][0]
        h = 1e-4
        res = rr.minimize_T(inf, h)
        assert res.converged and not np.any(inf.alphas == res.alpha_star)
        exact = rr.minimize_T(bat["dec"], h).alpha_star
        assert res.alpha_star == pytest.approx(exact, rel=0.5)
        a = res.alpha_star
        assert rr.T_h_derivative(inf, h, 0.99 * a) < 0.0 < rr.T_h_derivative(inf, h, 1.01 * a)


class TestConvexityAndShape:
    def test_second_derivative_positive_inside(self):
        rng = keyed_rng(14)
        for trial in range(20):
            n = int(rng.integers(5, 25))
            dec = rr.svd(rng.standard_normal((n, n)))
            h = 10.0 ** rng.uniform(-6, -1)
            s1_sq = float(dec.s[0]) ** 2
            alphas = np.geomspace(1e-10 * s1_sq, 0.499 * s1_sq, 200)
            assert all(_T_h_second(dec, h, a) > 0 for a in alphas)

    def test_f1_increasing_f2_decreasing(self, shaw32):
        _, dec = shaw32
        s1_sq = float(dec.s[0]) ** 2
        alphas = np.geomspace(1e-10 * s1_sq, 0.5 * s1_sq, 60)
        s2 = dec.s ** 2
        f1 = (alphas / (alphas + s2[0])) ** 2
        f2 = np.sum((s2[None, :] / (alphas[:, None] + s2[None, :])) ** 2, axis=1)
        assert np.all(np.diff(f1) > 0)
        assert np.all(np.diff(f2) < 0)


class TestBoundsAndDiagnostics:
    def test_identity_bounds_contain_minimizer(self):
        n = 10
        dec = rr.svd(np.eye(n))
        h = 1e-3
        lo, hi = rr.alpha_bounds(dec, h)
        assert lo == pytest.approx(h)
        t = (n * h) ** (1.0 / 3.0)
        assert hi == pytest.approx(t / (1 - t))
        assert lo <= n * h <= hi

    def test_no_upper_bound_when_h_large(self):
        dec = rr.svd(np.diag([2.0, 1.0]))
        zeta = 4.0 / 5.0
        lo, hi = rr.alpha_bounds(dec, zeta + 0.01)
        assert hi is None and lo > 0

    def test_certificate_thresholds(self):
        dec1 = rr.svd(np.diag([1.0]))
        assert rr.global_minimizer_certificate(dec1, 1.0 / 27.0)
        dec10 = rr.svd(np.diag(np.linspace(1, 2, 10)))
        assert not rr.global_minimizer_certificate(dec10, 1.0 / 27.0)

    def test_certificate_is_boolean_diagnostic(self, shaw32):
        _, dec = shaw32
        h = 1.0 / (32 * 10 ** 2.0)    # 20 dB
        assert rr.global_minimizer_certificate(dec, h) in (True, False)

    def test_upper_bound_threshold(self, shaw32):
        assert rr.upper_bound_threshold(rr.svd(np.eye(3))) == pytest.approx(1.0)
        assert rr.upper_bound_threshold(rr.svd(np.diag([8.0, 1.0]))) == pytest.approx(16.0)
        _, dec = shaw32
        a0 = rr.upper_bound_threshold(dec)
        assert np.isfinite(a0) and a0 > 0


@pytest.mark.parametrize("call", [
    lambda dec, h: rr.T_h_derivative(dec, h, 1e-3),
    rr.alpha_bounds,
    rr.global_minimizer_certificate,
], ids=["T_h_derivative", "alpha_bounds", "global_minimizer_certificate"])
@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1e-3])
def test_h_must_be_positive_and_finite(shaw32, call, h):
    with pytest.raises(ValueError):
        call(shaw32[1], h)


class TestRiskCurve:
    def test_csv_round_shape(self):
        curve = rr.RiskCurve(np.array([0.1, 1.0, 10.0]), np.array([3.0, 2.0, 2.5]),
                             "lower_bound")
        buf = io.StringIO()
        curve.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,value,kind"
        assert len(lines) == 4 and lines[1].endswith("lower_bound")

    def test_validation(self):
        with pytest.raises(ValueError):
            rr.RiskCurve(np.array([1.0, 1.0]), np.array([1.0, 2.0]), "gcv")
        with pytest.raises(ValueError):
            rr.RiskCurve(np.array([1.0, 2.0]), np.array([np.inf, 2.0]), "gcv")
