"""The benchmark's own checks, run in the suite: any change to the ``select``
JSON, to the study CSVs or to the matrix-free ``ipro`` selections on the
tomography workload fails here, not only in a benchmark run.

``perfbench/workloads.py`` and ``perfbench/spans.py`` are imported read-only
from their files; their references are ``perfbench/references.json``.
"""

import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    refs = json.loads((PERFBENCH / "references.json").read_text())
    return _load("workloads"), _load("spans"), refs


def test_select_dense_cycle_replays_and_matches_references(perfbench, tmp_path):
    workloads, spans, refs = perfbench
    w = workloads.SelectDense(1, str(tmp_path), 1, refs["select_dense"])
    w.setup()
    rec = spans.SpanRecorder()
    assert len(w.cycle) == 40
    for request in w.cycle:
        # traced_op raises ReplayMismatch when the replay's JSON differs from
        # the CLI's; "ok" compares the alpha with the recorded reference
        assert w.traced_op(request, rec)["ok"], request


def test_study_dense_matches_reference_digest(perfbench, tmp_path):
    workloads, _, refs = perfbench
    w = workloads.StudyDense(1, str(tmp_path), 1, refs["study_dense"])
    w.setup()
    config_seed = w.cycle[0]
    assert w.check(config_seed, w.op(config_seed))


def test_study_dense_traced_replay_matches(perfbench, tmp_path):
    # traced_op raises ReplayMismatch when the call-by-call replay of the study,
    # or a serial run, differs from the study's rows; "ok" compares its CSVs
    # with the recorded digest
    workloads, spans, refs = perfbench
    w = workloads.StudyDense(1, str(tmp_path), 1, refs["study_dense"])
    w.setup()
    assert w.traced_op(w.cycle[0], spans.SpanRecorder())["ok"]


def test_tomo_mf_matches_recorded_grid_indices(perfbench):
    # the matrix-free path: power iteration, stochastic influence path,
    # Golub-Kahan solution path and grid-mode ipro, replicates 0-7
    workloads, _, refs = perfbench
    w = workloads.TomoMF(1, "", 1, refs["tomo_mf"])
    w.setup()
    for replicate in range(w.POOL):
        assert w.check(replicate, w.op(replicate)), replicate
