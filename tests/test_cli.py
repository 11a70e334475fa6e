import contextlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskreg as rr
from riskreg import bench, cli, rules
from riskreg.bench import default_grid
from riskreg.cli import main
from riskreg.problems import load_container, problem_from_container, save_container
from riskreg.rules import RULE_NAMES


@pytest.fixture()
def shaw_dataset(tmp_path):
    code = main(["generate", "--problem", "shaw", "--n", "32", "--xi", "20",
                 "--seed", "3", "--replicate", "0", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    data = [f for f in files if f.startswith("data_")][0]
    return tmp_path / data


class TestGenerate:
    def test_round_trip(self, tmp_path, capsys):
        assert main(["generate", "--problem", "foxgood", "--n", "16", "--xi", "0",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sigma =" in out and "xi = 0" in out
        dpath = [l for l in out.splitlines() if l.startswith(str(tmp_path))][-1]
        raw = load_container(dpath)
        p = problem_from_container(raw)
        q = rr.make_problem("foxgood", None, 16)
        np.testing.assert_array_equal(p.A.to_dense(), q.A.to_dense())
        np.testing.assert_array_equal(p.f_true, q.f_true)
        # xi = 0 means sigma = ||g|| / sqrt(n)
        assert raw["sigma"] == pytest.approx(np.linalg.norm(q.g_true) / 4.0)

    def test_unknown_problem_exits_2(self, tmp_path):
        assert main(["generate", "--problem", "nope", "--out", str(tmp_path)]) == 2

    def test_variant_of_variantless_problem_exits_2(self, tmp_path):
        assert main(["generate", "--problem", "paralleltomo", "--variant", "3", "--n", "8",
                     "--out", str(tmp_path)]) == 2
        assert not os.listdir(tmp_path)

    def test_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RISKREG_SEED", "17")
        main(["generate", "--problem", "shaw", "--n", "16", "--xi", "10",
              "--out", str(tmp_path / "a")])
        out_a = capsys.readouterr().out
        dpath_a = [l for l in out_a.splitlines() if "data_" in l][-1]
        main(["generate", "--problem", "shaw", "--n", "16", "--xi", "10",
              "--seed", "17", "--out", str(tmp_path / "b")])
        out_b = capsys.readouterr().out
        dpath_b = [l for l in out_b.splitlines() if "data_" in l][-1]
        np.testing.assert_array_equal(load_container(dpath_a)["g"],
                                      load_container(dpath_b)["g"])


class TestSelect:
    def test_pro_identity_analytic(self, tmp_path, capsys):
        p = rr.ProblemInstance(name="custom", variant=None, n=16,
                               A=rr.LinearOperator.from_dense(np.eye(16)),
                               f_true=np.ones(16), g_true=np.ones(16))
        d = rr.NoisyData(g=np.ones(16), sigma=1.0, xi=0.0, seed=0, replicate=0)
        path = tmp_path / "identity.rr"
        save_container(path, problem=p, noisy=d)
        code = main(["select", "--data", str(path), "--rule", "pro",
                     "--rho2", "64", "--sigma2", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "pro"
        assert payload["alpha"] == pytest.approx(0.25, abs=1e-8)

    def test_ipro_emits_trail_and_snr(self, shaw_dataset, capsys):
        assert main(["select", "--data", str(shaw_dataset), "--rule", "ipro"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["trail"], list) and len(payload["trail"]) >= 2
        assert payload["xi_hat"] is not None

    @staticmethod
    def _assert_needs_noise_flag(tmp_path, capsys, rule, message):
        # container without recorded noise level and no --sigma: usage error
        p = rr.make_problem("shaw", None, 16)
        d = rr.NoisyData(g=p.g_true + 0.01, sigma=0.0, xi=0.0, seed=0, replicate=0)
        path = tmp_path / "nosigma.rr"
        save_container(path, problem=p, noisy=d)
        assert main(["select", "--data", str(path), "--rule", rule]) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_dp_requires_sigma_flag_or_container(self, tmp_path, capsys):
        self._assert_needs_noise_flag(tmp_path, capsys, "dp", "dp needs --sigma")

    def test_upre_requires_sigma2_flag_or_container(self, tmp_path, capsys):
        self._assert_needs_noise_flag(tmp_path, capsys, "upre",
                                      "upre needs --sigma2 or --sigma")

    def test_problem_only_container_exits_2(self, problem_only, capsys):
        assert main(["select", "--data", str(problem_only), "--rule", "pro"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: container has no noisy data vector\n")

    def test_degenerate_data_exits_3(self, tmp_path):
        p = rr.ProblemInstance(name="custom", variant=None, n=8,
                               A=rr.LinearOperator.from_dense(np.eye(8)),
                               f_true=np.ones(8), g_true=np.ones(8))
        d = rr.NoisyData(g=np.zeros(8), sigma=1.0, xi=0.0, seed=0, replicate=0)
        path = tmp_path / "puren.rr"
        save_container(path, problem=p, noisy=d)
        assert main(["select", "--data", str(path), "--rule", "pro"]) == 3

    @pytest.mark.parametrize("rule,paths", [("pro", 0), ("ipro", 1), ("dp", 1)])
    def test_matrix_free_builds_a_path_only_for_its_readers(self, shaw_dataset, capsys, rule,
                                                             paths):
        # grid-mode pro selects from the probe measure alone; ipro and the
        # path rules read the solution path
        with mock.patch.object(bench.OperatorSetup, "path", autospec=True,
                               side_effect=bench.OperatorSetup.path) as path:
            assert main(["select", "--data", str(shaw_dataset), "--rule", rule,
                         "--matrix-free", "--probes", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["rule"] == rule
        assert path.call_count == paths

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_matrix_free_builds_the_measure_only_for_its_readers(self, shaw_dataset, capsys,
                                                                 rule):
        # dp, lc and qoc select on the solution path alone; the probe measure
        # cost them two thirds of a select on a paralleltomo 16x16 container
        with mock.patch.object(bench, "influence_path_stochastic", autospec=True,
                               side_effect=bench.influence_path_stochastic) as measure:
            assert main(["select", "--data", str(shaw_dataset), "--rule", rule,
                         "--matrix-free", "--probes", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["rule"] == rule
        assert measure.call_count == int(rule not in ("dp", "lc", "qoc"))

    @pytest.mark.parametrize("rule", ["ipro", "upre", "bp", "gcv"])
    def test_matrix_free_builds_the_measure_before_the_path(self, shaw_dataset, capsys, rule):
        # a rule that reads both fails on the measure before it builds the path
        built = []
        measure, path = bench.influence_path_stochastic, bench.OperatorSetup.path
        with mock.patch.object(bench, "influence_path_stochastic",
                               lambda *a, **k: built.append("measure") or measure(*a, **k)), \
                mock.patch.object(bench.OperatorSetup, "path",
                                  lambda *a: built.append("path") or path(*a)):
            assert main(["select", "--data", str(shaw_dataset), "--rule", rule,
                         "--matrix-free", "--probes", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["rule"] == rule
        assert built == ["measure", "path"]

    def test_select_table_lists_every_rule_in_order(self):
        assert tuple(cli._SELECT) == rules.RULE_NAMES

    def test_every_rule_runs_on_dataset(self, shaw_dataset, capsys):
        for rule in ("pro", "ipro", "dp", "upre", "bp", "gcv", "lc", "qoc"):
            code = main(["select", "--data", str(shaw_dataset), "--rule", rule,
                         "--grid-points", "80"])
            assert code == 0, rule
            payload = json.loads(capsys.readouterr().out)
            assert payload["rule"] == rule and payload["alpha"] > 0


@pytest.fixture(scope="module")
def problem_only(tmp_path_factory):
    # an operator and its exact data, with no noisy replicate
    path = tmp_path_factory.mktemp("problem") / "problem.rr"
    save_container(path, problem=rr.make_problem("shaw", None, 16))
    return path


@pytest.fixture(scope="module")
def zero_container(tmp_path_factory):
    p = rr.ProblemInstance(name="custom", variant=None, n=8,
                           A=rr.LinearOperator.from_dense(np.zeros((8, 8))),
                           f_true=np.ones(8), g_true=np.zeros(8))
    path = tmp_path_factory.mktemp("zero") / "zero.rr"
    save_container(path, problem=p, noisy=rr.NoisyData(g=np.ones(8), sigma=0.1, xi=0.0,
                                                       seed=0, replicate=0))
    return path


class TestZeroOperator:
    """An all-zero operator is degenerate data, whether it is factored or probed."""

    @staticmethod
    def _assert_exit_3(argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("matrix_free", [False, True], ids=["dense", "matrix_free"])
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_select_exits_3(self, zero_container, capsys, rule, matrix_free):
        self._assert_exit_3(["select", "--data", str(zero_container), "--rule", rule]
                            + (["--matrix-free"] if matrix_free else []), capsys)

    @pytest.mark.parametrize("kind", ["lower_bound", "upre", "lcurve"])
    def test_curve_exits_3(self, zero_container, capsys, kind):
        self._assert_exit_3(["curve", "--data", str(zero_container), "--kind", kind], capsys)


class TestStudy:
    def _config(self, tmp_path, **kw):
        cfg = {"version": 1,
               "problems": [{"name": "shaw", "variant": None}],
               "xis": [10.0], "n": 32, "rules": ["pro", "qoc"],
               "replicates": 4, "seed": 2, "grid": {"points": 50}}
        cfg.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_workers_do_not_change_output(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "w1"),
                     "--workers", "1"]) == 0
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "w8"),
                     "--workers", "8"]) == 0
        capsys.readouterr()
        for name in ("details_xi10.csv", "summary.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w8" / name).read_bytes()

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out_dir = tmp_path / "out"
        assert main(["study", "--config", str(bad), "--out", str(out_dir)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("sections,message", [
        ({"bp": {"c": -1.0}}, "bp.c must be nonnegative and finite, got -1.0"),
        ({"bp": {"gamma": 2.0}}, "bp.gamma must be in (0, 1), got 2.0"),
        ({"grid": {"min": 0.0}}, "grid.min = 0.0: need 0 < min < max < inf"),
        ({"grid": {"min": 2.0, "max": 1.0}},
         "grid.min = 2.0 and grid.max = 1.0: need 0 < min < max < inf"),
        ({"grid": {"points": 1}}, "grid.points = 1: need at least two grid points"),
        ({"problems": [{"name": "deriv2"}, {"name": "shaw"}], "n": 63},
         "shaw requires even n"),
        ({"rules": ["lc"], "grid": {"points": 3}},
         "grid.points = 3: lc needs at least five grid points"),
    ])
    def test_config_error_names_its_key(self, tmp_path, capsys, sections, message):
        cfg = self._config(tmp_path, **sections)
        out_dir = tmp_path / "out"
        assert main(["study", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_config_endpoint_past_the_default_names_its_key(self, tmp_path, capsys):
        # as select and curve name their flag; the default grid.max is 0.5 s1^2
        cfg = self._config(tmp_path, grid={"points": 50, "min": 1e9})
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        s1_sq = float(rr.svd(rr.make_problem("shaw", None, 32).A).s[0]) ** 2
        assert capsys.readouterr() == (
            "", f"error: grid.min = 1000000000.0 and the operator's default grid.max = "
                f"{default_grid(s1_sq).max!r}: need 0 < min < max < inf\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_rule_in_config_exits_2(self, tmp_path):
        cfg = self._config(tmp_path, rules=["pro", "bogus"])
        out_dir = tmp_path / "out2"
        assert main(["study", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert not out_dir.exists()


class TestCurve:
    def test_lower_bound_matches_module(self, shaw_dataset, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--data", str(shaw_dataset), "--kind", "lower_bound",
                     "--grid-points", "40", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,value,kind"
        raw = load_container(shaw_dataset)
        p = problem_from_container(raw)
        dec = rr.svd(p.A)
        rho2 = float(p.g_true @ p.g_true)
        sigma2 = raw["sigma"] ** 2
        for row in lines[1:3]:
            alpha, value, kind = row.split(",")
            assert kind == "lower_bound"
            expected = rr.lower_bound_T(rho2, sigma2, dec, float(alpha))
            assert float(value) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind", ["upre", "gcv"])
    def test_upre_gcv_match_formulas(self, shaw_dataset, kind, capsys):
        assert main(["curve", "--data", str(shaw_dataset), "--kind", kind,
                     "--grid-points", "25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,value,kind" and len(lines) == 26
        raw = load_container(shaw_dataset)
        dec = rr.svd(problem_from_container(raw).A)
        g, sigma2 = raw["g"], raw["sigma"] ** 2
        n = g.size
        s2 = dec.s ** 2
        for row in lines[1:]:
            alpha, value, row_kind = row.split(",")
            alpha = float(alpha)
            assert row_kind == kind
            r_sq = rr.solve_spectral(dec, g, alpha).residual_norm ** 2
            dof = n - float(np.sum(s2 / (s2 + alpha)))
            if kind == "upre":
                expected = r_sq - 2.0 * sigma2 * dof
                assert float(value) == pytest.approx(expected, rel=1e-8,
                                                     abs=1e-10 * n * sigma2)
            else:
                assert float(value) == pytest.approx(r_sq / dof ** 2, rel=1e-8)

    def test_predictive_needs_truth_exit_3(self, tmp_path):
        d = rr.NoisyData(g=np.ones(8), sigma=0.1, xi=10.0, seed=0, replicate=0)
        p = rr.ProblemInstance(name="custom", variant=None, n=8,
                               A=rr.LinearOperator.from_dense(np.eye(8)),
                               f_true=None, g_true=None)
        path = tmp_path / "nog.rr"
        save_container(path, problem=p, noisy=d)
        assert main(["curve", "--data", str(path), "--kind", "predictive"]) == 3

    @pytest.mark.parametrize("kind,message", [
        ("lower_bound", "curve kind needs the noise level in the container"),
        ("upre", "curve kind needs noisy data in the container"),
        ("gcv", "curve kind needs noisy data in the container"),
        ("lcurve", "curve kind needs noisy data in the container")])
    def test_needs_noisy_data_exit_3(self, problem_only, capsys, kind, message):
        assert main(["curve", "--data", str(problem_only), "--kind", kind]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_predictive_needs_no_f_true(self, tmp_path, capsys):
        p = rr.make_problem("shaw", None, 16)
        d = rr.add_noise(p, 20.0, seed=0)
        q = rr.ProblemInstance(name="custom", variant=None, n=16, A=p.A, f_true=None,
                               g_true=p.g_true)
        path = tmp_path / "nof.rr"
        save_container(path, problem=q, noisy=d)
        assert main(["curve", "--data", str(path), "--kind", "predictive",
                     "--grid-points", "20"]) == 0
        dec = rr.svd(p.A)
        alphas = default_grid(float(dec.s[0]) ** 2, 20).values
        expected = rr.predictive_risk(dec, p.g_true, d.sigma ** 2, alphas)
        out = io.StringIO()
        rr.RiskCurve(alphas, expected, "predictive").to_csv(out)
        assert capsys.readouterr().out == out.getvalue()

    def test_lcurve_numeric_csv(self, shaw_dataset, capsys):
        assert main(["curve", "--data", str(shaw_dataset), "--kind", "lcurve",
                     "--grid-points", "30"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,residual_norm,solution_norm"
        vals = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
        assert vals.shape == (30, 3) and np.all(np.isfinite(vals))


_GOOD_CONFIG = {"version": 1, "problems": [{"name": "shaw", "variant": None}],
                "xis": [10.0], "n": 16, "rules": ["pro"], "replicates": 2,
                "grid": {"points": 20}}

# (case id, what is malformed, expected exit code).  Study cases replace the
# config text; data cases put the value into the noisy data vector g and pass
# any extra flags; container cases damage the file that select reads.
_MALFORMED = [
    ("config_list", ("study", "[1, 2]"), 2),
    ("config_unknown_key", ("study", dict(_GOOD_CONFIG, replciates=3)), 2),
    ("config_unknown_grid_key", ("study", dict(_GOOD_CONFIG, grid={"pionts": 20})), 2),
    ("config_unknown_problem_key",
     ("study", dict(_GOOD_CONFIG, problems=[{"name": "shaw", "varient": None}])), 2),
    ("config_nan_xi", ("study", dict(_GOOD_CONFIG, xis=[float("nan")])), 2),
    ("config_inf_xi", ("study", dict(_GOOD_CONFIG, xis=[10.0, float("inf")])), 2),
    ("config_string_xi", ("study", dict(_GOOD_CONFIG, xis=["10"])), 2),
    ("config_missing_key",
     ("study", {k: v for k, v in _GOOD_CONFIG.items() if k != "xis"}), 2),
    ("config_zero_probes", ("study", dict(_GOOD_CONFIG, probes=0)), 2),
    ("config_float_variant",
     ("study", dict(_GOOD_CONFIG, problems=[{"name": "heat", "variant": 1.7}])), 2),
    ("config_unknown_problem",
     ("study", dict(_GOOD_CONFIG, problems=[{"name": "shaw"}, {"name": "nope"}])), 2),
    ("config_n_7", ("study", dict(_GOOD_CONFIG, n=7)), 2),
    ("config_heat_3", ("study", dict(_GOOD_CONFIG, problems=[{"name": "heat", "variant": 3}])),
     2),
    ("config_one_grid_point", ("study", dict(_GOOD_CONFIG, grid={"points": 1})), 2),
    ("config_grid_min_above_max", ("study", dict(_GOOD_CONFIG, grid={"min": 2.0, "max": 1.0})),
     2),
    ("config_bp_gamma_2", ("study", dict(_GOOD_CONFIG, bp={"gamma": 2.0})), 2),
    ("config_negative_bp_c", ("study", dict(_GOOD_CONFIG, bp={"c": -1.0})), 2),
    ("config_version_2", ("study", dict(_GOOD_CONFIG, version=2)), 2),
    ("config_zero_replicates", ("study", dict(_GOOD_CONFIG, replicates=0)), 2),
    ("config_no_problems", ("study", dict(_GOOD_CONFIG, problems=[])), 2),
    ("config_no_xis", ("study", dict(_GOOD_CONFIG, xis=[])), 2),
    ("config_no_rules", ("study", dict(_GOOD_CONFIG, rules=[])), 2),
    ("config_repeated_xi", ("study", dict(_GOOD_CONFIG, xis=[20, 20])), 2),
    # both would write details_xi10.csv
    ("config_xis_print_alike", ("study", dict(_GOOD_CONFIG, xis=[10, 10.0000000000001])), 2),
    ("config_repeated_rule", ("study", dict(_GOOD_CONFIG, rules=["pro", "gcv", "pro"])), 2),
    ("config_repeated_problem",
     ("study", dict(_GOOD_CONFIG, problems=[{"name": "shaw"}, {"name": "shaw"}])), 2),
    ("config_default_variant_repeated",
     ("study", dict(_GOOD_CONFIG, problems=[{"name": "heat"}, {"name": "heat", "variant": 1}])),
     2),
] + [(f"select_{rule}_nan_g", ("select", rule, float("nan")), 2) for rule in RULE_NAMES] \
  + [("select_pro_inf_g", ("select", "pro", float("inf")), 2),
     ("select_mf_gcv_nan_g", ("select", "gcv", float("nan"), "--matrix-free"), 2)] \
  + [(f"curve_{kind}_nan_g", ("curve", kind, float("nan")), 2)
     for kind in ("lower_bound", "predictive", "upre", "gcv", "lcurve")] \
  + [(f"select_{rule}_{flag.lstrip('-').replace('-', '_')}_{bad}",
      ("select", rule, 0.0, flag, bad), 2)
     for rule, flag, bad in (("dp", "--sigma", "nan"), ("upre", "--sigma", "nan"),
                             ("bp", "--sigma", "nan"), ("pro", "--sigma", "nan"),
                             ("upre", "--sigma2", "inf"), ("pro", "--sigma2", "nan"),
                             ("pro", "--rho2", "nan"), ("ipro", "--alpha-init", "inf"),
                             ("gcv", "--grid-min", "nan"), ("bp", "--bp-c", "-inf"),
                             # flags of a setting the rule does not read
                             ("pro", "--grid-points", "1"), ("ipro", "--grid-min", "-3"),
                             ("pro", "--bp-gamma", "7"), ("gcv", "--bp-c", "-1"))] \
  + [("curve_gcv_grid_max_nan", ("curve", "gcv", 0.0, "--grid-max", "nan"), 2)] \
  + [(f"container_{damage}", ("container", damage), 2)
     for damage in ("truncated", "huge_header", "huge_section")] \
  + [(f"container_{damage}", ("container", damage, "dp"), 2)
     for damage in ("header_list", "sections_int", "section_str", "shape_int",
                    "order_int", "sigma_str", "array_outside_sections",
                    "vectors_mismatch")]


def _edit_section(header, i, **fields):
    sections = list(header["sections"])
    sections[i] = dict(sections[i], **fields)
    return dict(header, sections=sections)


# header edits of a valid container, each leaving the header ill-formed
_HEADER_DAMAGE = {
    "huge_section": lambda h: _edit_section(h, -1, shape=[2 ** 40]),
    "header_list": lambda h: [h],
    "sections_int": lambda h: dict(h, sections=5),
    "section_str": lambda h: dict(h, sections=["A"] + h["sections"][1:]),
    "shape_int": lambda h: _edit_section(h, 0, shape=5),
    "order_int": lambda h: _edit_section(h, 0, order=5),
    "sigma_str": lambda h: dict(h, sigma="abc"),
    "array_outside_sections": lambda h: dict(h, g=[1.0]),
    "vectors_mismatch": lambda h: _edit_section(h, 0, shape=[8, 32]),  # A was 16 x 16
}


def _with_header(blob, header):
    length = int.from_bytes(blob[8:16], "little")
    text = json.dumps(header).encode()
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[16 + length:]


def _damaged_container(path, damage):
    p = rr.make_problem("shaw", None, 16)
    save_container(path, problem=p,
                   noisy=rr.NoisyData(g=p.g_true, sigma=0.01, xi=20.0, seed=0, replicate=0))
    blob = path.read_bytes()
    length = int.from_bytes(blob[8:16], "little")
    if damage == "truncated":
        blob = blob[:-8]
    elif damage == "huge_header":
        blob = blob[:8] + (2 ** 62).to_bytes(8, "little") + blob[16:]
    else:
        blob = _with_header(blob, _HEADER_DAMAGE[damage](json.loads(blob[16:16 + length])))
    path.write_bytes(blob)


class TestMalformedInput:
    @pytest.mark.parametrize("case,expected", [(c, e) for _, c, e in _MALFORMED],
                             ids=[i for i, _, _ in _MALFORMED])
    def test_exit_code(self, tmp_path, capsys, case, expected):
        out_dir = tmp_path / "out"
        if case[0] == "study":
            text = case[1] if isinstance(case[1], str) else json.dumps(case[1])
            cfg = tmp_path / "config.json"
            cfg.write_text(text)
            argv = ["study", "--config", str(cfg), "--out", str(out_dir)]
        elif case[0] == "container":
            _, damage, *rule = case
            path = tmp_path / "bad.rr"
            _damaged_container(path, damage)
            argv = ["select", "--data", str(path), "--rule", *(rule or ["pro"])]
        else:
            command, name, bad, *extra = case
            p = rr.make_problem("shaw", None, 16)
            g = p.g_true.copy()
            g[3] = bad
            path = tmp_path / "bad.rr"
            save_container(path, problem=p,
                           noisy=rr.NoisyData(g=g, sigma=0.01, xi=20.0, seed=0, replicate=0))
            flag = "--rule" if command == "select" else "--kind"
            argv = [command, "--data", str(path), flag, name, "--grid-points", "20"] + extra
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv,message", [
        (["select", "--rule", "dp", "--grid-points", "1"],
         "--grid-points = 1: need at least two grid points"),
        (["select", "--rule", "ipro", "--grid-min", "-3"],
         "--grid-min = -3.0: need 0 < min < max < inf"),
        (["select", "--rule", "pro", "--grid-min", "2", "--grid-max", "1"],
         "--grid-min = 2.0 and --grid-max = 1.0: need 0 < min < max < inf"),
        (["select", "--rule", "pro", "--bp-gamma", "7"], "--bp-gamma must be in (0, 1), got 7.0"),
        (["select", "--rule", "gcv", "--bp-c", "-1"],
         "--bp-c must be nonnegative and finite, got -1.0"),
        (["curve", "--kind", "gcv", "--grid-points", "1"],
         "--grid-points = 1: need at least two grid points"),
        # a lone endpoint that crosses the operator's default other one
        (["select", "--rule", "gcv", "--grid-min", "1e9"],
         "--grid-min = 1000000000.0 and the operator's default --grid-max = {grid.max!r}: "
         "need 0 < min < max < inf"),
        (["curve", "--kind", "gcv", "--grid-max", "1e-30"],
         "the operator's default --grid-min = {grid.min!r} and --grid-max = 1e-30: "
         "need 0 < min < max < inf"),
    ], ids=["select_dp_grid_points", "select_ipro_grid_min", "select_grid_min_above_max",
            "select_pro_bp_gamma", "select_gcv_bp_c", "curve_grid_points",
            "select_grid_min_above_default", "curve_grid_max_below_default"])
    def test_flag_error_names_its_flag(self, shaw_dataset, capsys, argv, message):
        # as a study config names its key; every rule checks every flag
        A = problem_from_container(load_container(shaw_dataset)).A
        message = message.format(grid=default_grid(float(rr.svd(A).s[0]) ** 2))
        assert main([argv[0], "--data", str(shaw_dataset), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.fixture(scope="module")
def valid_container(tmp_path_factory):
    p = rr.make_problem("shaw", None, 16)
    path = tmp_path_factory.mktemp("fuzz") / "data.rr"
    save_container(path, problem=p, noisy=rr.add_noise(p, 20.0, seed=0))
    return path, path.read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["A", "g", "C", "F"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _slots(node):
    """(container, key) for every value inside a parsed JSON header."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    out = []
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            out += _slots(node[key])
    return out


def _fuzzed(data, blob):
    kind = data.draw(st.sampled_from(("truncate", "flip", "header")))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        out = bytearray(blob)
        for pos, bit in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                     st.integers(0, 7)),
                                           min_size=1, max_size=8)):
            out[pos] ^= 1 << bit
        return bytes(out)
    length = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + length])
    for _ in range(data.draw(st.integers(1, 3))):
        obj, key = data.draw(st.sampled_from(_slots(header)))
        if isinstance(obj, dict) and data.draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = data.draw(_JSON_VALUES)
    return _with_header(blob, header)


def _reject_constant(name):
    raise AssertionError(f"select printed {name}")


class TestContainerFuzz:
    """Damaged containers end in a documented exit code, never a traceback,
    and a selection that succeeds prints strict JSON."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_select_exit_code(self, valid_container, data):
        path, blob = valid_container
        damaged = _fuzzed(data, blob)
        rule = data.draw(st.sampled_from(RULE_NAMES))
        fuzz_path = path.with_name("fuzzed.rr")
        fuzz_path.write_bytes(damaged)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["select", "--data", str(fuzz_path), "--rule", rule])
        assert code in (0, 2, 3, 4)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)


class TestCommandErrors:
    """An exception from inside a command exits with its code, one ``error:``
    line on stderr and nothing on stdout."""

    @pytest.mark.parametrize("exc,code", [
        (ValueError("bad value"), 2), (KeyError("key"), 2), (OSError("disk"), 2),
        (rr.DegenerateDataError("pure noise"), 3), (FloatingPointError("overflow"), 3),
        (rr.ConvergenceError("did not settle"), 4)], ids=lambda x: type(x).__name__)
    def test_exit_code(self, tmp_path, capsys, exc, code):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_GOOD_CONFIG))
        with mock.patch.object(bench, "run_study", side_effect=exc) as run:
            assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert run.call_count == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc}\n"


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["generate", "--problem", "shaw", "--nope", "1"]) == 2


class TestCountFlags:
    """A count below its least valid value is a usage error: exit 2, one
    ``error:`` line and no output."""

    @staticmethod
    def _assert_usage_error(argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_study_workers(self, tmp_path, capsys, workers):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"problems": [{"name": "shaw"}], "xis": [10.0], "n": 16,
                                   "rules": ["pro"], "replicates": 2}))
        out_dir = tmp_path / "out"
        self._assert_usage_error(["study", "--config", str(cfg), "--out", str(out_dir),
                                  "--workers", workers], capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("probes", ["0", "-1"])
    def test_select_probes(self, shaw_dataset, capsys, probes):
        self._assert_usage_error(["select", "--data", str(shaw_dataset), "--rule", "pro",
                                  "--probes", probes], capsys)

    # counts whose arrays take over 2^50 bytes, which numpy's allocation is
    # refused up front on any machine: a MemoryError, not a traceback
    def test_select_probes_beyond_memory(self, tmp_path, capsys):
        assert main(["generate", "--problem", "paralleltomo", "--n", "8", "--xi", "20",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        data = next(tmp_path.glob("data_*.rr"))
        self._assert_usage_error(["select", "--data", str(data), "--rule", "pro",
                                  "--matrix-free", "--probes", str(10 ** 12)], capsys)

    def test_select_grid_points_beyond_memory(self, shaw_dataset, capsys):
        self._assert_usage_error(["select", "--data", str(shaw_dataset), "--rule", "gcv",
                                  "--grid-points", str(10 ** 15)], capsys)

    def test_generate_replicate(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        self._assert_usage_error(["generate", "--problem", "shaw", "--n", "16",
                                  "--replicate", "-2", "--out", str(out_dir)], capsys)
        assert not out_dir.exists()

    def test_generate_replicates(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        self._assert_usage_error(["generate", "--problem", "shaw", "--n", "16",
                                  "--replicates", "0", "--out", str(out_dir)], capsys)
        assert not out_dir.exists()


_IMPORT_FOOTPRINT = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import riskreg
seen["import riskreg"] = scipy_modules()
import riskreg.cli
seen["import riskreg.cli"] = scipy_modules()
code = riskreg.cli.main(["select", "--data", sys.argv[1], "--rule", "ipro"])
seen["dense select"] = scipy_modules()
import scipy.sparse as sp
S = sp.random(6, 4, density=0.5, random_state=0, format="csc")
op = riskreg.as_operator(S)
tomo = riskreg.make_problem("paralleltomo", None, 8)
probes = []  # the probe measure through the bundled dbdsqr, then through its fallback
for route in ("bundled", "fallback"):
    if route == "fallback":
        riskreg.linop.bundled_openblas = lambda: None
        riskreg.linop._dbdsqr.cache_clear()
    m = riskreg.influence_path_stochastic(tomo.A, riskreg.matrix_free_grid(1.0).values, 4, 0)
    probes.append([route, int(m.nodes.size), "scipy.linalg" in sys.modules])
print(json.dumps({"seen": seen, "code": code, "sparse": op.representation,
                  "sparse_dense": bool(np.array_equal(op.to_dense(), S.toarray())),
                  "tomo": [tomo.A.representation, tomo.A.rows, tomo.A.cols],
                  "probes": probes}))
"""


class TestImportFootprint:
    """numpy is the only heavy import: scipy loads only for sparse operators,
    tomography and the Gauss-Laguerre nodes of i_laplace, and scipy.linalg
    not for the probe quadrature of a matrix-free run."""

    def test_dense_select_loads_no_scipy(self, tmp_path):
        p = rr.make_problem("shaw", None, 16)
        path = tmp_path / "data.rr"
        save_container(path, problem=p, noisy=rr.add_noise(p, 20.0, seed=0))
        src = os.path.dirname(os.path.dirname(rr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT, str(path)],
                             capture_output=True, text=True, env=env, check=True,
                             timeout=120).stdout.splitlines()
        assert json.loads("\n".join(out[:-1]))["rule"] == "ipro"   # the select JSON
        result = json.loads(out[-1])
        assert result["seen"] == {"import riskreg": [], "import riskreg.cli": [],
                                  "dense select": []}
        assert result["code"] == 0
        assert result["sparse"] == "matrix-free" and result["sparse_dense"]
        assert result["tomo"] == ["matrix-free", 2700, 64]
        # the probe quadrature loads no scipy.linalg, through either route
        assert [route for route, nodes, linalg in result["probes"] if nodes > 0 and not linalg] \
            == ["bundled", "fallback"]


@pytest.fixture(scope="module")
def scaled_shaw(tmp_path_factory):
    """A writer of shaw n=16 containers with A, g_true, g and sigma multiplied by a scale."""
    p = rr.make_problem("shaw", None, 16)
    d = rr.add_noise(p, 20.0, seed=0)
    out = tmp_path_factory.mktemp("scaled")

    def write(scale):
        q = rr.ProblemInstance(name="custom", variant=None, n=16,
                               A=rr.LinearOperator.from_dense(p.A.to_dense() * scale),
                               f_true=p.f_true, g_true=p.g_true * scale)
        path = out / f"shaw_x{scale:g}.rr"
        save_container(path, problem=q, noisy=rr.NoisyData(
            g=d.g * scale, sigma=d.sigma * scale, xi=d.xi, seed=0, replicate=0))
        return path
    return write


class TestScaledData:
    """alpha scales with s1^2: a rule either finds scale^2 times the unscaled
    alpha or reports degenerate data; it never prints an overflowed answer."""

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_scaled_alpha_or_exit_3(self, scaled_shaw, capsys, rule, scale):
        assert main(["select", "--data", str(scaled_shaw(1.0)), "--rule", rule]) == 0
        alpha = json.loads(capsys.readouterr().out)["alpha"]
        code = main(["select", "--data", str(scaled_shaw(scale)), "--rule", rule])
        captured = capsys.readouterr()
        if code == 0:
            scaled = json.loads(captured.out, parse_constant=_reject_constant)["alpha"]
            assert math.isfinite(scaled)
            assert scaled == pytest.approx(scale ** 2 * alpha, rel=1e-6)
        else:
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    @pytest.mark.parametrize("kind", ["lower_bound", "upre", "gcv"])
    def test_scaled_curve_exits_3(self, scaled_shaw, capsys, tmp_path, kind, scale):
        # the squares overflow at 1e100 and the filter divides by zero at 1e-100
        assert main(["curve", "--data", str(scaled_shaw(1.0)), "--kind", kind]) == 0
        assert capsys.readouterr().out.startswith("alpha,value,kind\n")
        out = tmp_path / "curve.csv"
        code = main(["curve", "--data", str(scaled_shaw(scale)), "--kind", kind,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestParserReuse:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        p = rr.make_problem("shaw", None, 16)
        path = tmp_path / "data.rr"
        save_container(path, problem=p, noisy=rr.add_noise(p, 20.0, seed=0))
        # every optional flag at its default; dp reads sigma from the container
        plain = ["select", "--data", str(path), "--rule", "dp"]
        src = os.path.dirname(os.path.dirname(rr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from riskreg.cli import main; print(main(sys.argv[1:]))", *plain],
            capture_output=True, text=True, env=env, check=True, timeout=120).stdout

        assert main(["select", "--data", str(path), "--rule", "nope"]) == 2
        assert main(["--help"]) == 0
        assert main(["generate", "--problem", "shaw", "--n", "16", "--seed", "4",
                     "--out", str(tmp_path / "gen")]) == 0
        assert main(plain + ["--seed", "5", "--grid-min", "1e-9", "--grid-max", "2.0",
                             "--grid-points", "40", "--bp-gamma", "0.3", "--bp-c", "2.0",
                             "--alpha-init", "1e-3", "--sigma", "0.05", "--sigma2", "0.01",
                             "--rho2", "10", "--matrix-free", "--probes", "8"]) == 0
        capsys.readouterr()
        code = main(plain)
        assert capsys.readouterr().out + f"{code}\n" == fresh
