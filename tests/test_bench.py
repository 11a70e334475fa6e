import ctypes
import glob
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskreg as rr
from riskreg import bench
from riskreg import rules as rules_mod
from riskreg.bench import (AlphaGrid, StudyConfig, build_grid, default_grid, efficiency,
                           matrix_free_grid, oracle_error, rel_error, run_study,
                           write_reports)
from riskreg.rules import RULE_NAMES


class TestAlphaGrid:
    def test_endpoints_and_ratios(self):
        grid = AlphaGrid(1e-8, 2.0, 100)
        v = grid.values
        assert v[0] == 1e-8 and v[-1] == 2.0
        ratios = v[1:] / v[:-1]
        assert np.all(np.abs(ratios / ratios[0] - 1) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            AlphaGrid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            AlphaGrid(0.1, 1.0, 1)

    @pytest.mark.parametrize("lo,hi", [(1e-3, np.inf), (1e-3, np.nan), (np.nan, 1.0),
                                       (np.inf, np.inf)])
    def test_rejects_nonfinite_bound(self, lo, hi):
        with pytest.raises(ValueError, match="< inf"):
            AlphaGrid(lo, hi, 10)

    def test_default_ranges(self):
        g = default_grid(4.0)
        assert g.min == pytest.approx(4e-12) and g.max == pytest.approx(2.0)

    def test_rejects_a_point_count_that_is_not_an_integer(self):
        # 2.5 raised a TypeError from np.geomspace
        with pytest.raises(ValueError, match="points must be an integer, got 2.5"):
            AlphaGrid(1e-3, 1.0, 2.5)

    def test_values_cached_read_only(self):
        grid = AlphaGrid(1e-3, 1.0, 7)
        assert grid.values is grid.values
        with pytest.raises(ValueError):
            grid.values[0] = 1.0

    def test_build_grid_defaults_and_overrides(self):
        assert build_grid(4.0, False) == default_grid(4.0)
        assert build_grid(4.0, True) == matrix_free_grid(4.0)
        g = build_grid(4.0, True, points=30, lo=1e-6)
        assert (g.min, g.max, g.points) == (1e-6, matrix_free_grid(4.0).max, 30)

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("points", [None, 30])
    @pytest.mark.parametrize("lo", [None, 1e-9])
    @pytest.mark.parametrize("hi", [None, 1.5])
    def test_build_grid_values_from_one_geomspace(self, monkeypatch, matrix_free, points,
                                                  lo, hi):
        s1_sq = 7.3
        if matrix_free:   # the documented defaults: (1e-8, 1e-2) * s1^2 / 2, 100 points
            ref = (1e-8 * s1_sq / 2.0, 1e-2 * s1_sq / 2.0, 100)
        else:             # [1e-12, 1/2] * s1^2, 200 points
            ref = (1e-12 * s1_sq, 0.5 * s1_sq, 200)
        expected = np.geomspace(ref[0] if lo is None else lo, ref[1] if hi is None else hi,
                                ref[2] if points is None else points)
        calls = []
        geomspace = np.geomspace
        monkeypatch.setattr(np, "geomspace", lambda *a: calls.append(a) or geomspace(*a))
        grid = build_grid(s1_sq, matrix_free, points=points, lo=lo, hi=hi)
        assert len(calls) == 1
        assert np.array_equal(grid.values, expected)


class TestScalarMetrics:
    def test_rel_error_trivials(self):
        f = np.array([1.0, 2.0])
        assert rel_error(f, f) == 0.0
        assert rel_error(np.zeros(2), f) == 1.0
        assert rel_error(2 * f, f) == 1.0

    def test_oracle_error(self):
        errs = np.array([5.0, 4.0, 3.0, 2.0])
        eps, idx = oracle_error(errs)
        assert eps == 2.0 and idx == 3
        eps, idx = oracle_error(np.array([1.0, 1.0, 2.0]))
        assert idx == 1    # largest alpha among ties

    def test_efficiency_trivials(self):
        assert efficiency(0.3, 0.3) == 1.0
        assert efficiency(0.3, 0.6) == 0.5
        assert efficiency(0.0, 0.0) == 1.0   # a rule that hits f_true exactly
        assert type(efficiency(0.3, 0.6)) is float

    def test_efficiency_is_elementwise(self):
        eps_o = np.array([0.3, 0.2, 0.0])
        errs = np.array([[0.3, 0.4, 0.0], [0.6, 0.2, 0.5]])
        eff = efficiency(eps_o, errs)
        assert eff.shape == (2, 3)
        assert eff.tolist() == [[efficiency(o, e) for o, e in zip(eps_o.tolist(), row)]
                                for row in errs.tolist()] == [[1.0, 0.5, 1.0], [0.5, 1.0, 0.0]]


def _tiny_config(**kw):
    base = dict(problems=[("shaw", None)], xis=[10.0], n=32, rules=["pro", "dp"],
                replicates=3, seed=4, grid_points=60)
    base.update(kw)
    return StudyConfig(**base)


class TestRunStudy:
    def test_single_replicate_matches_direct_evaluation(self):
        cfg = _tiny_config(rules=["dp"], replicates=1)
        (report,) = run_study(cfg)
        p = rr.make_problem("shaw", None, 32)
        dec = rr.svd(p.A)
        d = rr.add_noise(p, 10.0, cfg.seed, 0)
        grid = AlphaGrid(1e-12 * dec.s[0] ** 2, 0.5 * dec.s[0] ** 2, 60).values
        path = rr.spectral_path(dec, d.g, grid)
        from riskreg import rules as rules_mod
        sel = rules_mod.dp(path, d.sigma, refine=False)
        entry = report.entries[0]
        assert entry.alpha == sel.alpha
        errs = np.linalg.norm(path.solutions - p.f_true[None, :], axis=1) \
            / np.linalg.norm(p.f_true)
        eps_o, _ = oracle_error(errs)
        assert entry.efficiency == pytest.approx(
            eps_o / errs[sel.diagnostics["grid_index"]])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers}"):
            run_study(_tiny_config(), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, True])
    def test_rejects_a_worker_count_that_is_not_an_integer(self, workers):
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers}"):
            run_study(_tiny_config(), workers=workers)

    def test_rule_order_irrelevant(self):
        r1 = run_study(_tiny_config(rules=["pro", "gcv", "lc"]))
        r2 = run_study(_tiny_config(rules=["lc", "pro", "gcv"]))
        by_rule1 = {r.rule: r.efficiencies for r in r1}
        by_rule2 = {r.rule: r.efficiencies for r in r2}
        for rule in ("pro", "gcv", "lc"):
            np.testing.assert_array_equal(by_rule1[rule], by_rule2[rule])

    def test_efficiency_bounded(self):
        cfg = _tiny_config(rules=["pro", "ipro", "dp", "upre", "bp", "gcv", "lc", "qoc"],
                           replicates=5)
        for report in run_study(cfg):
            eff = report.efficiencies
            assert np.all(eff > 0) and np.all(eff <= 1.0)

    def test_degenerate_replicates_are_flagged_not_fatal(self):
        # at -40 dB the data is essentially pure noise
        cfg = _tiny_config(xis=[-40.0], rules=["pro"], replicates=4)
        (report,) = run_study(cfg)
        assert len(report.entries) == 4
        assert any(("fallback_max_alpha" in e.flags) or ("degenerate" in e.flags)
                   for e in report.entries)

    def test_csv_schema_and_determinism_across_workers(self, tmp_path):
        cfg = _tiny_config(rules=["pro", "qoc"], replicates=6)
        # a sparse operator: power iteration, probe measure, Golub-Kahan paths
        tomo = _tiny_config(problems=[("paralleltomo", None)], n=8, rules=list(RULE_NAMES),
                            replicates=6, probes=4)
        for config, tag in ((tomo, "tomo"), (cfg, "")):
            out1, out2 = tmp_path / f"{tag}w1", tmp_path / f"{tag}w8"
            write_reports(run_study(config, workers=1), out1)
            write_reports(run_study(config, workers=8), out2)
            for name in ("details_xi10.csv", "summary.csv"):
                b1 = (out1 / name).read_bytes()
                b2 = (out2 / name).read_bytes()
                assert b1 == b2, (tag, name)
        header = (out1 / "details_xi10.csv").read_text().splitlines()[0]
        assert header == "problem,variant,n,xi,rule,replicate,alpha,rel_error,efficiency,flags"
        sheader = (out1 / "summary.csv").read_text().splitlines()[0]
        assert sheader == "problem,variant,n,xi,rule,median_eff,q1,q3,median_oracle"

    def test_one_setup_per_problem_and_chunk(self):
        # nothing in a set-up depends on the SNR, so one serves every SNR
        cfg = _tiny_config(problems=[("shaw", None), ("heat", 1)], xis=[10.0, 20.0, 40.0])
        with mock.patch.object(bench, "make_problem", wraps=rr.make_problem) as made, \
                mock.patch.object(bench, "OperatorSetup", wraps=bench.OperatorSetup) as setups:
            reports = run_study(cfg, workers=1)
        assert made.call_count == 2 and setups.call_count == 2
        assert len(reports) == 2 * 3 * len(cfg.rules)

    def test_config_round_trip(self):
        cfg = _tiny_config(rules=["pro", "lc"], replicates=7)
        cfg2 = StudyConfig.from_json(cfg.to_json())
        assert cfg2.problems == cfg.problems
        assert cfg2.rules == list(cfg.rules) or tuple(cfg2.rules) == tuple(cfg.rules)
        assert cfg2.replicates == 7 and cfg2.grid_points == cfg.grid_points
        full = _tiny_config(grid_min=1e-9, grid_max=2.0, probes=5, bp_gamma=0.5)
        # required keys only: every other field takes its default
        required = dict(xis=[10.0], n=32, rules=["pro"], replicates=3)
        minimal = StudyConfig.from_json(json.dumps({"problems": [{"name": "shaw"}],
                                                    **required}))
        assert minimal == StudyConfig(problems=[("shaw", None)], **required)
        for config in (full, minimal):
            assert StudyConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("probes", [0, -5])
    def test_rejects_fewer_than_one_probe(self, probes):
        with pytest.raises(ValueError, match=f"probes must be an integer >= 1, got {probes}"):
            _tiny_config(probes=probes)

    @pytest.mark.parametrize("variant", [1.7, True, "5"])
    def test_rejects_a_variant_that_is_not_an_integer(self, variant):
        with pytest.raises(ValueError, match="variant must be an integer"):
            _tiny_config(problems=[("heat", variant)])
        doc = json.loads(_tiny_config().to_json())
        doc["problems"] = [{"name": "heat", "variant": variant}]
        with pytest.raises(ValueError, match="variant must be an integer"):
            StudyConfig.from_json(json.dumps(doc))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            _tiny_config(rules=["pro", "hanke"])

    @pytest.mark.parametrize("key,value", [
        ("problems", 5), ("problems", "shaw"), ("problems", {"shaw": None}), ("xis", 10.0),
        ("xis", "10"), ("xis", {10.0}), ("rules", "pro"), ("rules", {"pro": 1})])
    def test_a_list_key_must_be_a_list(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a list, got "):
            _tiny_config(**{key: value})

    def test_a_list_key_may_be_a_tuple_or_an_array(self):
        cfg = _tiny_config(problems=(("shaw", None),), xis=np.array([10.0]), rules=("pro",))
        assert cfg.problems == [("shaw", None)] and list(cfg.xis) == [10.0]

    # (fields, message): each passes the type checks but fails the run
    _FAILS_THE_RUN = [
        (dict(problems=[("shaw", None), ("nope", None)]), "unknown problem 'nope'"),
        *[(dict(n=n), "n out of supported range") for n in (0, 1, -3, 7)],
        (dict(problems=[("heat", 3)]), r"heat variant must be one of \(1, 5\)"),
        (dict(problems=[("shaw", 2)]), "shaw takes no variant"),
        (dict(grid_points=1), "at least two grid points"),
        *[(dict(grid_min=lo), "need 0 < min < max < inf") for lo in (0.0, -1.0)],
        *[(dict(grid_min=lo, grid_max=1.0), "need 0 < min < max < inf") for lo in (1.0, 2.0)],
        *[(dict(bp_gamma=gamma), r"gamma must be in \(0, 1\)") for gamma in (0.0, 2.0)],
        (dict(bp_c=-1.0), "c must be nonnegative and finite"),
        (dict(problems=[("deriv2", None), ("shaw", None)], n=63), "shaw requires even n"),
        (dict(problems=[("heat", 5)], n=63), "heat requires even n"),
    ]

    @pytest.mark.parametrize("fields,message", _FAILS_THE_RUN)
    def test_rejects_what_the_run_would(self, fields, message):
        with pytest.raises(ValueError, match=message):
            _tiny_config(**fields)
        # the same document, written without the constructor's checks
        text = StudyConfig.to_json(SimpleNamespace(**{**vars(_tiny_config()), **fields}))
        with pytest.raises(ValueError, match=message):
            StudyConfig.from_json(text)

    # (config sections, the key a rejection must name)
    _NAMED = [({"bp": {"c": -1.0}}, "bp.c"), ({"bp": {"c": float("inf")}}, "bp.c"),
              ({"bp": {"gamma": 2.0}}, "bp.gamma"), ({"bp": {"gamma": "x"}}, "bp.gamma"),
              ({"grid": {"min": 0.0}}, "grid.min"), ({"grid": {"max": -1.0}}, "grid.max"),
              ({"grid": {"min": 2.0, "max": 1.0}}, "grid.min = 2.0 and grid.max = 1.0"),
              ({"grid": {"points": 1}}, "grid.points"),
              ({"grid": {"points": 2.5}}, "grid.points"),
              ({"problems": []}, "problems"), ({"xis": []}, "xis"), ({"rules": []}, "rules"),
              ({"problems": [{"name": "shaw"}, {"name": "heat"}, {"name": "shaw"}]}, "problems"),
              # a variant of None is the family's default
              ({"problems": [{"name": "heat"}, {"name": "heat", "variant": 1}]}, "problems"),
              ({"xis": [20.0, 20]}, "xis"),
              ({"xis": [10.0, 10.0000000000001]}, "xis"),  # one details_xi10.csv
              ({"rules": ["dp", "pro", "dp"]}, "rules")]

    @pytest.mark.parametrize("sections,key", _NAMED)
    def test_config_rejections_name_their_key(self, sections, key):
        doc = {**json.loads(_tiny_config().to_json()), **sections}
        with pytest.raises(ValueError) as info:
            StudyConfig.from_json(json.dumps(doc))
        assert str(info.value).startswith(key)

    def test_keeps_the_variant_it_was_given(self):
        cfg = _tiny_config(problems=[("heat", None), ("i_laplace", 2), ("shaw", None)])
        assert cfg.problems == [("heat", None), ("i_laplace", 2), ("shaw", None)]

    def test_ipro_out_of_iterations_row(self):
        """The row of an ipro run that does not settle: the last iterate, a grid
        alpha, and the path's error there.  The block reads the iteration cap
        when it runs, so a cap of one step stands in for a run that never settles."""
        cfg = _tiny_config(rules=["ipro"], replicates=1)
        with mock.patch.object(rules_mod, "IPRO_MAX_ITER", 1):
            (report,) = run_study(cfg)
        (entry,) = report.entries
        p = rr.make_problem("shaw", None, 32)
        g = rr.add_noise(p, 10.0, cfg.seed, 0).g
        setup = bench.OperatorSetup(p.A, points=cfg.grid_points)
        path = setup.path(g)
        with pytest.raises(rr.ConvergenceError) as info:
            rules_mod.ipro(setup.influence, g, max_iter=1, path=path)
        idx = rules_mod.nearest_index(setup.grid.values, info.value.last_iterate)
        assert entry.flags == ("no_convergence",)
        assert entry.alpha == info.value.last_iterate == setup.grid.values[idx]
        assert entry.rel_error == pytest.approx(rel_error(path.solutions[idx], p.f_true),
                                                rel=1e-12)


# the dense families, all of which take n = 16 and n = 32
_DENSE = [("baart", None), ("deriv2", None), ("foxgood", None), ("gravity", None), ("heat", 1),
          ("heat", 5), ("i_laplace", 1), ("i_laplace", 2), ("i_laplace", 3),
          ("phillips", None), ("shaw", None)]
# grid ranges as multiples of s1^2: the study's default, one past s1^2 on which
# ipro creeps toward its fixed point at low SNR, one deep enough that the
# residual of a nearly well-posed problem drops to rounding level
_SPANS = {"default": (1e-12, 0.5), "wide": (1e-3, 1e3), "deep": (1e-16, 10.0)}


def _path_selection(grid, select):
    """The grid index and flags of the selection ``select()`` on one
    replicate's path, with the study's record of a rule that raises."""
    try:
        sel = select()
    except rr.DegenerateDataError:
        return len(grid) - 1, ("degenerate",)
    except rr.ConvergenceError as exc:
        return rules_mod.nearest_index(grid, exc.last_iterate), ("no_convergence",)
    idx = sel.diagnostics.get("grid_index")   # pro's fallback names only its alpha
    return (rules_mod.nearest_index(grid, sel.alpha) if idx is None else idx,
            tuple(sel.diagnostics["flags"]))


def _block_against_paths(problem, n, xi, first, size, seed, points, span) -> dict:
    """Evaluates replicates [first, first + size) of a cell as the study's block
    and each on its own path, through the public rules, with ``pro_estimated``'s
    ``max_alpha`` fallback and ``dp`` without refinement; asserts that every
    rule picks the same grid point with the same flags, and returns the
    replicates flagged, by (rule, flag)."""
    p = rr.make_problem(*problem, n)
    s1_sq = float(rr.svd(p.A).s[0]) ** 2
    lo, hi = _SPANS[span]
    cfg = StudyConfig(problems=[problem], xis=[xi], n=n, rules=list(RULE_NAMES), replicates=1,
                      seed=seed, grid_points=points, grid_min=lo * s1_sq, grid_max=hi * s1_sq)
    setup = bench.OperatorSetup(p.A, points=points, lo=cfg.grid_min, hi=cfg.grid_max)
    grid = setup.grid.values
    eps_o, alphas, errs, flags = bench._evaluate_block(setup, p, cfg, xi,
                                                       range(first, first + size))
    # column i of the block is replicate first + i, which its own path checks
    # below; row r is rule RULE_NAMES[r]
    assert eps_o.shape == (size,) and alphas.shape == errs.shape == (len(RULE_NAMES), size)
    assert [len(f) for f in flags] == [size] * len(RULE_NAMES)
    seen = {}
    for i, rep in enumerate(range(first, first + size)):
        data = rr.add_noise(p, xi, seed, rep)
        path = rr.spectral_path(setup.dec, data.g, grid)
        inf, sigma2 = setup.influence, data.sigma ** 2
        select = {
            "pro": partial(rules_mod.pro_estimated, inf, data.g, sigma2,
                           on_degenerate="max_alpha"),
            "ipro": partial(rules_mod.ipro, inf, data.g, path=path),
            "dp": partial(rules_mod.dp, path, data.sigma, refine=False),
            "upre": partial(rules_mod.upre, path, inf, sigma2),
            "bp": partial(rules_mod.bp, path, data.sigma, inf),
            "gcv": partial(rules_mod.gcv, path, inf),
            "lc": partial(rules_mod.lc, path),
            "qoc": partial(rules_mod.qoc, path),
        }
        errors = np.array([rel_error(f, p.f_true) for f in path.solutions])
        for r, rule in enumerate(RULE_NAMES):
            idx, rule_flags = _path_selection(grid, select[rule])
            assert (alphas[r, i], flags[r][i]) == (grid[idx], rule_flags), (rule, rep)
            assert errs[r, i] == pytest.approx(errors[idx], rel=1e-12)
            for f in rule_flags:
                seen.setdefault((rule, f), []).append(rep)
        assert eps_o[i] == pytest.approx(errors.min(), rel=1e-12)
    return seen


@settings(max_examples=20, deadline=None, derandomize=True)
@given(problem=st.sampled_from(_DENSE), n=st.sampled_from([16, 32]),
       xi=st.floats(-20.0, 40.0), first=st.integers(0, 50), size=st.integers(1, 7),
       seed=st.integers(0, 2 ** 31 - 1), points=st.sampled_from([5, 37, 200, 1000]),
       span=st.sampled_from(sorted(_SPANS)))
def test_block_selects_as_each_path(problem, n, xi, first, size, seed, points, span):
    """A cell's block of replicates selects, rule by rule, what each replicate's
    own path gives through the public rules."""
    _block_against_paths(problem, n, xi, first, size, seed, points, span)


# flag: a rule, a flag it raises and the replicates of the case it flags
@pytest.mark.parametrize("case,flag", [
    ((("shaw", None), 16, -20.0, 0, 7, 0, 200, "default"),
     ("pro", "fallback_max_alpha", [2, 4, 5, 6])),
    ((("heat", 5), 16, 10.0, 0, 3, 3, 40, "deep"), ("ipro", "degenerate", [0, 1, 2])),
    ((("i_laplace", 1), 16, -10.0, 0, 2, 0, 1000, "wide"), ("ipro", "no_convergence", [1])),
    ((("baart", None), 16, -10.0, 2, 3, 7, 200, "deep"), ("pro", "degenerate_snr", [4])),
    ((("phillips", None), 16, 0.0, 2, 3, 7, 200, "default"), ("pro", "grid_edge", [4])),
    ((("deriv2", None), 16, -10.0, 2, 3, 7, 200, "default"), ("dp", "saturated_max", [2, 4])),
    ((("foxgood", None), 16, -10.0, 2, 3, 7, 200, "wide"), ("dp", "at_grid_min", [3])),
    ((("i_laplace", 3), 16, 20.0, 2, 3, 7, 200, "wide"), ("bp", "at_grid_min", [2])),
    ((("phillips", None), 16, 40.0, 2, 3, 7, 37, "wide"),
     ("lc", "curvature_at_boundary", [2, 3, 4])),
])
def test_block_reaches_the_fallback_rows(case, flag):
    """Blocks that reach each flag the study records, of a rule that falls
    back, raises or flags its selection, select and flag as their paths do,
    and raise it on exactly the pinned replicates."""
    rule, name, replicates = flag
    assert _block_against_paths(*case).get((rule, name)) == replicates


def test_block_rows_do_not_depend_on_worker_count(tmp_path):
    # 7 replicates: chunks of 4 + 3 at two workers, 3 + 3 + 1 at three
    cfg = StudyConfig(problems=[("shaw", None), ("heat", 1)], xis=[0.0, -10.0, 20.0], n=32,
                      rules=list(RULE_NAMES), replicates=7, seed=5, grid_points=80)
    outputs = []
    for workers in (1, 2, 3):
        files = write_reports(run_study(cfg, workers=workers), tmp_path / f"w{workers}")
        outputs.append({os.path.basename(f): open(f, "rb").read() for f in files})
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 4


def _flag_tuples(flags) -> bool:
    return isinstance(flags, tuple) and all(
        isinstance(f, tuple) and all(isinstance(name, str) for name in f) for f in flags)


def test_pool_reports_match_the_serial_run_and_their_statistics():
    """A real three-worker pool on uneven chunks (4 + 4 + 2 replicates), where
    rules fall back: every report's summary, its five statistics from one call
    per cell, and its entries equal the serial run's and each report's own
    numpy statistics.  A chunk returns columns, no per-replicate objects."""
    cfg = StudyConfig(problems=[("shaw", None), ("heat", 1)], xis=[0.0, -10.0], n=32,
                      rules=list(RULE_NAMES), replicates=10, seed=3, grid_points=80)
    pooled, serial = run_study(cfg, workers=3), run_study(cfg, workers=1)
    assert len(pooled) == len(serial) == 2 * 2 * len(RULE_NAMES)
    for report, alone in zip(pooled, serial):
        eff = report.efficiencies
        own = (np.median(eff), np.percentile(eff, 25), np.percentile(eff, 75), np.min(eff),
               np.max(eff))
        assert [report.summary()[key] for key in bench._STATISTICS] == [float(x) for x in own]
        assert report.summary() == alone.summary()
        assert report.entries == alone.entries
        assert [e.replicate for e in report.entries] == list(range(cfg.replicates))
        assert np.array_equal(eff, [e.efficiency for e in report.entries])
    for lo, hi in ((0, 4), (8, 10)):
        part = bench._run_chunk(cfg, ("shaw", None, lo, hi))
        assert b"ReplicateEntry" not in pickle.dumps(part)
        for eps_o, alphas, errs, flags in part:
            assert all(type(x) is np.ndarray for x in (eps_o, alphas, errs))
            assert eps_o.shape == (hi - lo,) and alphas.shape == errs.shape == \
                (len(RULE_NAMES), hi - lo)
            assert isinstance(flags, tuple) and len(flags) == len(RULE_NAMES)
            assert all(_flag_tuples(rule_flags) and len(rule_flags) == hi - lo
                       for rule_flags in flags)


@pytest.mark.parametrize("config", [
    dict(problems=[("shaw", None), ("heat", 1)], xis=[0.0, 20.0], n=16, replicates=13,
         grid_points=60, bp_gamma=0.9),
    # a sparse operator: its Golub-Kahan paths are stacked
    dict(problems=[("paralleltomo", None)], xis=[10.0, 20.0], n=8, replicates=5, probes=4),
], ids=["dense", "paralleltomo"])
def test_stack_bound_never_changes_a_row(tmp_path, config):
    """Stacks of one replicate, of three and of a whole chunk give the same CSVs."""
    cfg = StudyConfig(rules=list(RULE_NAMES), seed=2, **config)
    p = rr.make_problem(*cfg.problems[0], cfg.n)
    points = cfg.grid_points if p.A.representation == "dense" \
        else bench.MATRIX_FREE_GRID_POINTS
    outputs = []
    for bound in (1, 3 * points * p.f_true.size, cfg.replicates * points * p.f_true.size):
        with mock.patch.object(bench, "_STACK_ELEMENTS", bound):
            files = write_reports(run_study(cfg), tmp_path / str(bound))
        outputs.append({os.path.basename(f): open(f, "rb").read() for f in files})
    assert outputs[0] == outputs[1] == outputs[2]


class TestStudyStatistics:
    """Desk-scale statistical behavior of the rules on shaw at 10 dB."""

    @pytest.fixture(scope="class")
    @staticmethod
    def shaw_study():
        cfg = StudyConfig(problems=[("shaw", None)], xis=[10.0], n=64,
                          rules=["pro", "ipro", "bp", "gcv", "qoc"],
                          replicates=100, seed=1)
        return {r.rule: r for r in run_study(cfg)}

    def test_ipro_tracks_pro(self, shaw_study):
        med_pro = np.median(shaw_study["pro"].efficiencies)
        med_ipro = np.median(shaw_study["ipro"].efficiencies)
        assert abs(med_pro - med_ipro) <= 0.03

    def test_bp_efficiency_band(self, shaw_study):
        med = np.median(shaw_study["bp"].efficiencies)
        assert 0.591 <= med <= 0.891

    def test_qoc_efficiency_band(self, shaw_study):
        med = np.median(shaw_study["qoc"].efficiencies)
        assert med >= 0.805

    def test_gcv_spreads_wider_than_pro(self, shaw_study):
        s_pro = shaw_study["pro"].summary()
        s_gcv = shaw_study["gcv"].summary()
        assert (s_gcv["q3"] - s_gcv["q1"]) > (s_pro["q3"] - s_pro["q1"])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(problem=st.sampled_from([("shaw", None), ("deriv2", None), ("heat", 1),
                                ("baart", None), ("phillips", None), ("i_laplace", 2)]),
       half=st.integers(4, 12), xi=st.floats(-5.0, 60.0), points=st.integers(5, 40),
       replicates=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
def test_study_efficiencies_and_selections(problem, half, xi, points, replicates, seed):
    """On any small dense study every efficiency lies in (0, 1] and every
    selected alpha is a point of the cell's grid."""
    n = 2 * half  # shaw and heat need even n
    cfg = StudyConfig(problems=[problem], xis=[xi], n=n, rules=list(RULE_NAMES),
                      replicates=replicates, seed=seed, grid_points=points)
    dec = rr.svd(rr.make_problem(*problem, n).A)
    grid = build_grid(float(dec.s[0]) ** 2, matrix_free=False, points=points).values
    reports = run_study(cfg)
    assert len(reports) == len(RULE_NAMES)
    for report in reports:
        eff = report.efficiencies
        assert np.all(eff > 0) and np.all(eff <= 1.0)
        assert all(e.alpha in grid for e in report.entries)


class TestBlasThreadCap:
    def test_missing_library_or_symbol_is_a_no_op(self):
        # the lookup is cached: cleared before each case, so that the case's
        # patches are read, and after it, so that the real library is found again
        lookup = bench.bundled_openblas
        for found in ([], ["/nonexistent/libscipy_openblas64_.so"], [None]):
            lookup.cache_clear()
            try:
                with mock.patch.object(glob, "glob", return_value=found) as globbed:
                    if found == [None]:  # a loaded library without the setter
                        with mock.patch.object(ctypes, "CDLL", return_value=object()):
                            bench._cap_blas_threads(1)
                    else:
                        bench._cap_blas_threads(1)
                        assert lookup() is None
                assert globbed.call_count == 1
            finally:
                lookup.cache_clear()

    def test_caps_threads_in_a_worker(self):
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas64_*.so"))
        if not libs or not hasattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy's bundled OpenBLAS is not available")
        with ProcessPoolExecutor(max_workers=1, initializer=bench._cap_blas_threads,
                                 initargs=(1,)) as pool:
            assert pool.submit(_blas_threads, libs[0]).result() == 1


    def test_run_study_workers_share_the_cores(self):
        with mock.patch("concurrent.futures.ProcessPoolExecutor", wraps=ProcessPoolExecutor) as pool:
            run_study(_tiny_config(replicates=2), workers=2)
        threads = max(1, len(os.sched_getaffinity(0)) // 2)
        assert pool.call_args.kwargs == {"max_workers": 2, "initializer": bench._cap_blas_threads,
                                         "initargs": (threads,)}


    def test_run_study_pool_no_larger_than_its_tasks(self):
        # 3 replicates of one problem are 3 tasks however many workers are asked for
        pools = []

        class InProcessPool:
            """Records the pool's size and runs its tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append((max_workers, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        cfg = _tiny_config(rules=list(RULE_NAMES))
        with mock.patch("concurrent.futures.ProcessPoolExecutor", InProcessPool):
            reports = run_study(cfg, workers=64)
        assert pools == [(3, (max(1, len(os.sched_getaffinity(0)) // 3),))]
        serial = run_study(cfg, workers=1)
        assert [r.entries for r in reports] == [r.entries for r in serial]


def _blas_threads(lib):
    return ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()


def test_full_table_shaped_run(tmp_path):
    # the 11 variants x 3 SNRs x 8 rules smoke: completes and emits one
    # detail CSV per SNR block plus a summary with one row per cell and rule
    variants = [("baart", None), ("deriv2", None), ("foxgood", None),
                ("gravity", None), ("heat", 1), ("heat", 5), ("i_laplace", 1),
                ("i_laplace", 2), ("i_laplace", 3), ("phillips", None), ("shaw", None)]
    cfg = StudyConfig(problems=variants, xis=[10.0, 20.0, 40.0], n=64,
                      rules=["pro", "ipro", "dp", "upre", "bp", "gcv", "lc", "qoc"],
                      replicates=100, seed=1)
    reports = run_study(cfg, workers=2)
    files = write_reports(reports, tmp_path)
    names = sorted(f.split("/")[-1] for f in files)
    assert names == ["details_xi10.csv", "details_xi20.csv", "details_xi40.csv",
                     "summary.csv"]
    summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 11 * 3 * 8
    for block in names[:3]:
        lines = (tmp_path / block).read_text().strip().splitlines()
        assert len(lines) == 1 + 11 * 8 * 100
