"""The package's argument checks: ``errors.real`` for every real-valued scalar
argument of the public API, and ``errors.reals`` for every array argument."""

import functools
import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskreg as rr
from riskreg.errors import real, reals


class TestReal:
    @pytest.mark.parametrize("within,form", [
        (None, "finite"), ("positive", "positive and finite"),
        ("nonnegative", "nonnegative and finite"), ("unit", "in (0, 1)")])
    def test_message_forms(self, within, form):
        with pytest.raises(ValueError) as info:
            real("x", float("nan"), within)
        assert str(info.value) == f"x must be {form}, got nan"

    @pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.float32(0.25), 1, np.int64(3)])
    def test_returns_the_value_itself(self, value):
        assert real("x", value, "positive") is value

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1.0", None, np.array(1.0),
                                       np.array([1.0, 2.0]), float("inf"), -float("inf"),
                                       10 ** 400])
    def test_rejects_what_is_not_a_finite_real_number(self, value):
        with pytest.raises(ValueError, match="^x must be finite, got "):
            real("x", value)

    @pytest.mark.parametrize("within,value", [
        ("positive", 0.0), ("positive", -1.0), ("nonnegative", -1e-300),
        ("unit", 0.0), ("unit", 1.0)])
    def test_rejects_a_value_out_of_its_range(self, within, value):
        with pytest.raises(ValueError, match=f"^x must be .*, got {value!r}$"):
            real("x", value, within)

    @pytest.mark.parametrize("within,value", [("nonnegative", 0.0), ("unit", 0.5),
                                              ("positive", 5e-324)])
    def test_accepts_the_range(self, within, value):
        assert real("x", value, within) == value


class TestReals:
    @pytest.mark.parametrize("within,form", [
        (None, "finite"), ("positive", "positive and finite"),
        ("nonnegative", "nonnegative and finite"), ("unit", "in (0, 1)")])
    def test_message_names_the_first_bad_entry(self, within, form):
        with pytest.raises(ValueError) as info:
            reals("x", [0.5, float("nan"), float("inf")], within)
        assert str(info.value) == f"x must be {form}, got nan"

    @pytest.mark.parametrize("values", [[0.25, 1], (0.5,), np.array([[1, 2]], dtype=np.int32),
                                        np.float32([0.5]), np.array(0.75), [], 0.5, 3])
    def test_returns_a_float_array_of_the_values(self, values):
        out = reals("x", values, "positive")
        assert isinstance(out, np.ndarray) and out.dtype == float
        np.testing.assert_array_equal(out, np.asarray(values, dtype=float))

    def test_a_float_array_is_returned_itself(self):
        values = np.array([1.0, 2.0])
        assert reals("x", values) is values

    @pytest.mark.parametrize("values,bad", [
        ([1.0, None], "None"), (np.array([1.0, "0.5"], dtype=object), "'0.5'"),
        (["1", "2"], "'1'"), (np.array([True, False]), "True"), ([1j, 1.0], "1j"),
        ([[1.0, 2.0], [3.0, -np.inf]], "-inf"), (np.array(np.nan), "nan"),
        (np.array([1.0, 10 ** 400], dtype=object), repr(10 ** 400))])
    def test_rejects_an_entry_that_is_not_a_finite_real_number(self, values, bad):
        with pytest.raises(ValueError) as info:
            reals("x", values)
        assert str(info.value) == f"x must be finite, got {bad}"

    @pytest.mark.parametrize("within,values,bad", [
        ("positive", [1.0, 0.0], "0.0"), ("nonnegative", np.array([3, -2]), "-2"),
        ("unit", [0.5, 1.0], "1.0"), ("unit", [0.0], "0.0")])
    def test_rejects_an_entry_out_of_its_range(self, within, values, bad):
        with pytest.raises(ValueError, match=f"^x must be .*, got {bad}$"):
            reals("x", values, within)

    @pytest.mark.parametrize("value", [True, "1.0", None, float("nan"), -1.0])
    def test_a_scalar_gets_the_message_of_real(self, value):
        with pytest.raises(ValueError) as scalar:
            real("x", value, "nonnegative")
        with pytest.raises(ValueError) as array:
            reals("x", value, "nonnegative")
        assert str(array.value) == str(scalar.value)


@functools.cache
def _inputs():
    """shaw n = 16 at 20 dB: problem, spectrum, a 20-point grid, data and path."""
    p = rr.make_problem("shaw", None, 16)
    dec = rr.svd(p.A)
    grid = rr.default_grid(float(dec.s[0]) ** 2, points=20).values
    g = rr.add_noise(p, 20.0, seed=0).g
    return SimpleNamespace(p=p, dec=dec, grid=grid, g=g, path=rr.spectral_path(dec, g, grid))


def _config(**fields):
    return rr.StudyConfig(**{"problems": [("shaw", None)], "xis": [20.0], "n": 16,
                             "rules": ["pro"], "replicates": 1, **fields})


# Every real-valued scalar argument of the public API: (exported name,
# parameter, the name its rejection gives it, its range for ``errors.real``,
# the call with the value x on ``_inputs()`` i).
_REAL_ARGUMENTS = [
    ("pro", "rho2", "rho2", "positive", lambda x, i: rr.pro(i.dec, x, 1e-4)),
    ("pro", "sigma2", "sigma2", "positive", lambda x, i: rr.pro(i.dec, 1.0, x)),
    ("pro_estimated", "sigma2", "sigma2", "positive",
     lambda x, i: rr.pro_estimated(i.dec, i.g, x)),
    ("ipro", "alpha_init", "alpha_init", "positive",
     lambda x, i: rr.ipro(i.dec, i.g, alpha_init=x)),
    ("dp", "sigma", "sigma", "nonnegative", lambda x, i: rr.dp(i.path, x)),
    ("upre", "sigma2", "sigma2", "nonnegative", lambda x, i: rr.upre(i.path, i.dec, x)),
    ("bp", "sigma", "sigma", "nonnegative", lambda x, i: rr.bp(i.path, x, i.dec)),
    ("bp", "gamma", "gamma", "unit", lambda x, i: rr.bp(i.path, 0.01, i.dec, gamma=x)),
    ("bp", "c", "c", "nonnegative", lambda x, i: rr.bp(i.path, 0.01, i.dec, c=x)),
    ("predictive_risk", "sigma2", "sigma2", "nonnegative",
     lambda x, i: rr.predictive_risk(i.dec, i.p.g_true, x, 1e-3)),
    ("predictive_risk_derivative", "sigma2", "sigma2", "nonnegative",
     lambda x, i: rr.predictive_risk_derivative(i.dec, i.p.g_true, x, 1e-3)),
    ("lower_bound_T", "rho2", "rho2", "positive",
     lambda x, i: rr.lower_bound_T(x, 1e-4, i.dec, 1e-3)),
    ("lower_bound_T", "sigma2", "sigma2", "nonnegative",
     lambda x, i: rr.lower_bound_T(1.0, x, i.dec, 1e-3)),
    ("T_h", "h", "h", "nonnegative", lambda x, i: rr.T_h(i.dec, x, 1e-3)),
    ("T_h_derivative", "h", "h", "positive", lambda x, i: rr.T_h_derivative(i.dec, x, 1e-3)),
    ("minimize_T", "h", "h", "positive", lambda x, i: rr.minimize_T(i.dec, x)),
    ("alpha_bounds", "h", "h", "positive", lambda x, i: rr.alpha_bounds(i.dec, x)),
    ("global_minimizer_certificate", "h", "h", "positive",
     lambda x, i: rr.global_minimizer_certificate(i.dec, x)),
    ("solve_spectral", "alpha", "alpha", "nonnegative",
     lambda x, i: rr.solve_spectral(i.dec, i.g, x)),
    ("golub_kahan", "tol", "tol", "positive",
     lambda x, i: rr.golub_kahan(i.p.A, i.g, i.grid, tol=x)),
    ("iterative_path", "tol", "tol", "positive",
     lambda x, i: rr.iterative_path(i.p.A, i.g, i.grid, tol=x)),
    ("power_iteration", "tol", "tol", "positive", lambda x, i: rr.power_iteration(i.p.A, tol=x)),
    ("largest_eigenvalue", "tol", "tol", "positive",
     lambda x, i: rr.largest_eigenvalue(i.p.A, tol=x)),
    ("influence_path_stochastic", "lam1", "lam1", "positive",
     lambda x, i: rr.influence_path_stochastic(i.p.A, i.grid, 2, 0, lam1=x)),
    ("InfluencePath", "lam1", "lam1", "nonnegative",
     lambda x, i: rr.InfluencePath(i.grid, i.dec.s ** 2, np.ones(i.dec.rank), x)),
    ("sigma_for_snr", "xi", "xi", None, lambda x, i: rr.sigma_for_snr(i.p.g_true, x)),
    ("add_noise", "xi", "xi", None, lambda x, i: rr.add_noise(i.p, x, 0)),
    ("snr_db", "rho2", "rho2", "positive", lambda x, i: rr.snr_db(x, 0.1, 16)),
    ("snr_db", "sigma2", "sigma2", "positive", lambda x, i: rr.snr_db(1.0, x, 16)),
    ("parallel_tomo", "span", "span", "positive", lambda x, i: rr.parallel_tomo(2, 1, 2, x)),
    ("AlphaGrid", "min", "min", "positive", lambda x, i: rr.AlphaGrid(x, 1.0, 5)),
    ("AlphaGrid", "max", "max", "positive", lambda x, i: rr.AlphaGrid(1e-3, x, 5)),
    ("default_grid", "s1_sq", "s1_sq", "positive", lambda x, i: rr.default_grid(x)),
    ("matrix_free_grid", "s1_sq", "s1_sq", "positive", lambda x, i: rr.matrix_free_grid(x)),
    ("StudyConfig", "xis", "xis", None, lambda x, i: _config(xis=[x])),
    ("StudyConfig", "grid_min", "grid.min", "positive", lambda x, i: _config(grid_min=x)),
    ("StudyConfig", "grid_max", "grid.max", "positive", lambda x, i: _config(grid_max=x)),
    ("StudyConfig", "bp_gamma", "bp.gamma", "unit", lambda x, i: _config(bp_gamma=x)),
    ("StudyConfig", "bp_c", "bp.c", "nonnegative", lambda x, i: _config(bp_c=x)),
]

# Every array argument of the public API, checked by ``errors.reals``:
# (exported name, parameter, the name its rejection gives it, whether it has
# a range, the call with the array x on ``_inputs()`` i).
_ARRAY_ARGUMENTS = [
    ("svd", "A", "A", False, lambda x, i: rr.svd(x)),
    ("power_iteration", "A", "A", False, lambda x, i: rr.power_iteration(x)),
    ("predictive_risk", "alpha", "alpha", True,
     lambda x, i: rr.predictive_risk(i.dec, i.p.g_true, 1e-4, x)),
    ("predictive_risk", "g_true", "g_true", False,
     lambda x, i: rr.predictive_risk(i.dec, x, 1e-4, 1e-3)),
    ("predictive_risk_derivative", "alpha", "alpha", True,
     lambda x, i: rr.predictive_risk_derivative(i.dec, i.p.g_true, 1e-4, x)),
    ("predictive_risk_derivative", "g_true", "g_true", False,
     lambda x, i: rr.predictive_risk_derivative(i.dec, x, 1e-4, 1e-3)),
    ("lower_bound_T", "rho2", "rho2", True,
     lambda x, i: rr.lower_bound_T(np.c_[x], 1e-4, i.dec, [1e-3, 1e-2])),
    ("lower_bound_T", "sigma2", "sigma2", True,
     lambda x, i: rr.lower_bound_T(1.0, np.c_[x], i.dec, [1e-3, 1e-2])),
    ("lower_bound_T", "alpha", "alphas", True, lambda x, i: rr.lower_bound_T(1.0, 1e-4, i.dec, x)),
    ("T_h", "alpha", "alphas", True, lambda x, i: rr.T_h(i.dec, 1e-4, x)),
    ("T_h_derivative", "alpha", "alpha", True, lambda x, i: rr.T_h_derivative(i.dec, 1e-4, x)),
    ("solve_spectral", "g", "g", False, lambda x, i: rr.solve_spectral(i.dec, x, 1e-3)),
    ("spectral_path", "alphas", "alphas", True, lambda x, i: rr.spectral_path(i.dec, i.g, x)),
    ("spectral_path", "g", "g", False, lambda x, i: rr.spectral_path(i.dec, x, i.grid)),
    ("influence_path_exact", "alphas", "alphas", True,
     lambda x, i: rr.influence_path_exact(i.dec, x)),
    ("golub_kahan", "alphas", "alphas", True, lambda x, i: rr.golub_kahan(i.p.A, i.g, x)),
    ("golub_kahan", "b", "b", False, lambda x, i: rr.golub_kahan(i.p.A, x, i.grid)),
    ("iterative_path", "alphas", "alphas", True, lambda x, i: rr.iterative_path(i.p.A, i.g, x)),
    ("iterative_path", "g", "g", False, lambda x, i: rr.iterative_path(i.p.A, x, i.grid)),
    ("influence_path_stochastic", "alphas", "alphas", True,
     lambda x, i: rr.influence_path_stochastic(i.p.A, x, 2, 0, lam1=1.0)),
    ("InfluencePath", "alphas", "alphas", True,
     lambda x, i: rr.InfluencePath(x, i.dec.s ** 2, np.ones(i.dec.rank), 1.0)),
    ("InfluencePath", "nodes", "nodes", True,
     lambda x, i: rr.InfluencePath(i.grid, x, np.ones(np.shape(x)), 1.0)),
    ("InfluencePath", "weights", "weights", True,
     lambda x, i: rr.InfluencePath(i.grid, np.ones(np.shape(x)), x, 1.0)),
    ("SpectralDecomposition", "U", "U", False,
     lambda x, i: rr.SpectralDecomposition(x, i.dec.s, i.dec.V)),
    ("SpectralDecomposition", "s", "s", True,
     lambda x, i: rr.SpectralDecomposition(i.dec.U, x, i.dec.V)),
    ("SpectralDecomposition", "V", "V", False,
     lambda x, i: rr.SpectralDecomposition(i.dec.U, i.dec.s, x)),
    ("pro_estimated", "g", "g", False, lambda x, i: rr.pro_estimated(i.dec, x, 1e-4)),
    ("ipro", "g", "g", False, lambda x, i: rr.ipro(i.dec, x)),
    ("sigma_for_snr", "g_true", "g_true", False, lambda x, i: rr.sigma_for_snr(x, 20.0)),
    ("rel_error", "f", "f", False, lambda x, i: rr.rel_error(x, i.p.f_true)),
    ("rel_error", "f_true", "f_true", False, lambda x, i: rr.rel_error(i.p.f_true, x)),
    ("oracle_error", "errors", "errors", True, lambda x, i: rr.oracle_error(x)),
    ("RiskCurve", "alphas", "alphas", True,
     lambda x, i: rr.RiskCurve(x, np.ones(np.size(x)), "lower_bound")),
    ("RiskCurve", "values", "values", False,
     lambda x, i: rr.RiskCurve(np.arange(1.0, np.size(x) + 1.0), x, "lower_bound")),
]

# Exported records whose float fields are results, which their makers check
_RECORDS = {"EfficiencyReport", "MinimizerResult", "NoisyData", "RegularizedSolution",
            "RuleSelection", "SolutionPath"}

_MISTYPED = st.sampled_from(["0.5", True, np.bool_(True), np.array([1.0, 2.0]), np.nan,
                             np.inf, -np.inf, None])
_OUT_OF_RANGE = {
    None: st.nothing(),
    "positive": st.floats(max_value=0.0, allow_infinity=False),
    "nonnegative": st.floats(max_value=-1e-300, allow_infinity=False),
    "unit": st.floats(max_value=0.0, allow_infinity=False)
    | st.floats(min_value=1.0, allow_infinity=False),
}


def _names(message: str, name: str) -> bool:
    """Whether a rejection names its argument first or, in a grid's chain of
    endpoints, as the second end of the pair it breaks."""
    return message.startswith(name) or f" and {name} = " in message


def _may_be(owner: str, param: str, value) -> bool:
    """Whether ``value`` is one the argument takes: None where that is its
    default, an array where it keeps an array check."""
    if value is None:
        default = inspect.signature(getattr(rr, owner)).parameters[param].default
        return default is None
    return isinstance(value, np.ndarray) and any(
        (owner, param) == row[:2] for row in _ARRAY_ARGUMENTS)


@pytest.mark.parametrize("owner,param,name,within,call", _REAL_ARGUMENTS,
                         ids=[f"{owner}.{param}" for owner, param, *_ in _REAL_ARGUMENTS])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_real_argument_rejects_a_mistyped_value(owner, param, name, within, call, data):
    """A str, None, a bool, an array, NaN, +-inf or a value out of its range is
    a ValueError that names the argument, not a TypeError or an answer."""
    value = data.draw((_MISTYPED | _OUT_OF_RANGE[within]).filter(
        lambda v: not _may_be(owner, param, v)))
    with pytest.raises(ValueError) as info:
        call(value, _inputs())
    assert _names(str(info.value), name), str(info.value)


# (the array, its bad entry) by name; the "negative" ones only where there is a range
_BAD_ARRAYS = {
    "nan": (np.array(np.nan), np.nan),
    "negative": (np.array(-1.0), -1.0),
    "nan_entry": (np.array([1e-3, np.nan]), np.nan),
    "inf_entry": (np.array([1e-3, np.inf]), np.inf),
    "-inf_entry": (np.array([1e-3, -np.inf]), -np.inf),
    "negative_entry": (np.array([1e-3, -1e-3]), -1e-3),
    "str_entry": (np.array([1e-3, "0.5"], dtype=object), "0.5"),
    "none_entry": (np.array([1e-3, None], dtype=object), None),
    "bool": (np.array([True, False]), True),
}


@pytest.mark.parametrize("name,call,value,bad", [
    pytest.param(name, call, *_BAD_ARRAYS[kind], id=f"{kind}-{owner}.{param}")
    for kind in _BAD_ARRAYS for owner, param, name, ranged, call in _ARRAY_ARGUMENTS
    if ranged or not kind.startswith("negative")])
def test_array_argument_rejects_a_bad_entry(name, call, value, bad):
    # a NaN alpha gave NaN bounds and risks, a NaN node or a negative weight a
    # selection, and a bool array was read as ones
    with pytest.raises(ValueError) as info:
        call(value, _inputs())
    message = str(info.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {bad!r}"), message


@pytest.mark.parametrize("call,message", [
    (lambda i: rr.pro(rr.InfluencePath(i.grid, np.r_[np.nan, i.dec.s[1:] ** 2],
                                       np.ones(i.dec.rank), 1.0), 1.0, 1e-4),
     "nodes must be nonnegative and finite, got nan"),
    (lambda i: rr.pro(rr.InfluencePath(i.grid, i.dec.s ** 2, -np.ones(i.dec.rank), 1.0),
                      1.0, 1e-4),
     "weights must be nonnegative and finite, got -1.0"),
    (lambda i: rr.InfluencePath(i.grid, i.dec.s ** 2, np.ones(i.dec.rank - 1), 1.0),
     "nodes and weights must have one shape, got (16,) and (15,)"),
    (lambda i: rr.pro(rr.SpectralDecomposition(i.dec.U, np.r_[i.dec.s[:-1], np.nan], i.dec.V),
                      1.0, 1e-4),
     "s must be positive and finite, got nan"),
    (lambda i: rr.pro_estimated(i.dec, i.g[:-1], 1e-4),
     "g must be a vector of 16 entries, got shape (15,)"),
    (lambda i: rr.ipro(rr.influence_path_exact(i.dec, i.grid), i.g[:-1], path=i.path),
     "g must be a vector of 16 entries, got shape (15,)"),
    (lambda i: rr.ipro(i.dec, i.g[:-1]), "g must be a vector of 16 entries, got shape (15,)"),
    (lambda i: rr.sigma_for_snr([np.nan, 1.0], 10.0), "g_true must be finite, got nan"),
    (lambda i: rr.lower_bound_T(np.c_[1.0], None, i.dec, 1e-3),
     "sigma2 must be nonnegative and finite, got None"),
    (lambda i: rr.svd(np.array([[True, False], [False, True]])), "A must be finite, got True"),
    (lambda i: rr.golub_kahan(np.eye(3), np.array([True, True, False]), [1.0]),
     "b must be finite, got True"),
    (lambda i: rr.power_iteration(np.array([[True, False], [False, True]])),
     "A must be finite, got True"),
    (lambda i: rr.rel_error([np.nan, 1.0], [1.0, 1.0]), "f must be finite, got nan"),
    (lambda i: rr.rel_error([1.0, 1.0], np.zeros(2)), "f_true must be nonzero"),
    (lambda i: rr.oracle_error(np.array([np.nan, 1.0])),
     "errors must be nonnegative and finite, got nan"),
], ids=["InfluencePath_nan_node", "InfluencePath_negative_weight", "InfluencePath_shapes",
        "SpectralDecomposition_nan_s", "pro_estimated_short_g", "ipro_grid_short_g",
        "ipro_spectrum_short_g", "sigma_for_snr_nan", "lower_bound_T_sigma2_None",
        "svd_bool", "golub_kahan_bool_b", "power_iteration_bool", "rel_error_nan",
        "rel_error_zero_f_true", "oracle_error_nan"])
def test_silent_answers_are_rejected(call, message):
    # each gave an answer (svd of a bool matrix s = [1, 1], rel_error of a zero
    # f_true inf), or a bare TypeError, before its argument was checked
    with pytest.raises(ValueError) as info:
        call(_inputs())
    assert str(info.value) == message


def _float_parameters():
    """(exported name, parameter) of every parameter annotated float or
    Optional[float] of what ``riskreg`` exports."""
    found = set()
    for owner in dir(rr):
        obj = getattr(rr, owner)
        if owner.startswith("_") or not callable(obj) or owner in _RECORDS:
            continue
        try:
            parameters = inspect.signature(obj).parameters.values()
        except ValueError:  # a builtin without a signature
            continue
        found |= {(owner, p.name) for p in parameters
                  if p.annotation in ("float", "Optional[float]", "float | None")}
    return found


def test_every_real_argument_is_checked():
    """A real-valued argument of the public API is in the table of the
    property above or in the array table; and each scalar one refuses a bool."""
    listed = {row[:2] for row in _REAL_ARGUMENTS + _ARRAY_ARGUMENTS}
    assert not _float_parameters() - listed
    for owner, param, name, _, call in _REAL_ARGUMENTS:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(True, _inputs())
