"""Tests of the benchmark's own code: dump generator, oracle, span
arithmetic, wrapper installation and removal.

    python3 -m pytest perfbench/tests -q
"""

from pathlib import Path

import numpy as np
import pytest

import dumps
import layers
import oracle
import spans
import workloads
from run import call, tail_percentile

import logitbench
from logitbench import cli, harness, metrics, optimizer, scores
from logitbench.errors import DataError
from logitbench.scores import ScoredExample


# --------------------------------------------------------------------------
# Dump generator
# --------------------------------------------------------------------------

def test_dumps_are_deterministic_in_the_seed():
    a, b, c = dumps.generate(7, n_files=8), dumps.generate(7, n_files=8), dumps.generate(8, n_files=8)
    for (name_a, id_a, ood_a), (name_b, id_b, ood_b) in zip(a, b):
        assert name_a == name_b
        assert np.array_equal(id_a, id_b) and np.array_equal(ood_a, ood_b)
    assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))
    assert dumps.dump_text(a[0][1], a[0][2], 7) == dumps.dump_text(b[0][1], b[0][2], 7)


def test_dumps_include_heavy_exact_ties_and_continuous_files(tmp_path):
    written = dumps.write(tmp_path, 3, n_files=4)
    by_shape = {path.stem.split("_", 2)[2]: (ids, ood) for path, ids, ood in written}
    assert set(by_shape) == set(dumps.SHAPES)
    ids, ood = by_shape["saturated"]
    assert np.count_nonzero(ids == 1.0) > 0.3 * ids.size
    assert np.count_nonzero(ood == 1.0) > 0.05 * ood.size
    ids, ood = by_shape["quantized"]
    assert np.unique(np.concatenate([ids, ood])).size < 0.5 * (ids.size + ood.size)
    ids, ood = by_shape["continuous"]
    assert np.unique(np.concatenate([ids, ood])).size == ids.size + ood.size
    for path, ids, ood in written:
        assert (ids.size, ood.size) == (dumps.N_ID, dumps.N_OOD)
        assert path.read_text().count("\n") == dumps.N_ID + dumps.N_OOD


def test_dump_round_trip_is_exact(tmp_path):
    (name, ids, ood), = dumps.generate(5, n_files=1)
    (path, read_ids, read_ood), = dumps.write(tmp_path, 5, n_files=1)
    assert np.array_equal(np.sort(ids), np.sort(read_ids))
    assert np.array_equal(np.sort(ood), np.sort(read_ood))


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------

HAND_ID = [3.0, 2.0, 2.0, 1.0]
HAND_OOD = [2.0, 1.0, 0.0]


def test_oracle_on_a_hand_checked_case():
    # Pairs: 3 beats all three OOD; each 2 beats two and ties one; 1 beats
    # one and ties one, so AUROC = (3 + 2.5 + 2.5 + 1.5) / 12.
    assert oracle.auroc(HAND_ID, HAND_OOD) == pytest.approx(9.5 / 12, abs=1e-15)
    # TPR 0.75 needs 3 of 4 ID kept: threshold 2 admits one OOD of three.
    assert oracle.fpr_at_tpr(HAND_ID, HAND_OOD, 0.75) == pytest.approx(1 / 3, abs=1e-15)
    # Thresholds 3, 2, 1, 0: recall 1/4, 3/4, 1, 1 at precision 1, 3/4, 4/6, 4/7.
    assert oracle.aupr(HAND_ID, HAND_OOD) == pytest.approx(
        0.25 * 1 + 0.5 * 0.75 + 0.25 * 4 / 6, abs=1e-15)


def _scored(ids, ood):
    return ([ScoredExample(float(s), "ID") for s in ids]
            + [ScoredExample(float(s), "OOD") for s in ood])


def test_oracle_agrees_with_the_package_metrics():
    report = metrics.detection_report(_scored(HAND_ID, HAND_OOD), 0.75)
    want = oracle.detection(HAND_ID, HAND_OOD, 0.75)
    assert report.fpr_at_95_tpr == pytest.approx(want["fpr95"], abs=1e-15)
    assert report.auroc == pytest.approx(want["auroc"], abs=1e-15)
    assert report.aupr == pytest.approx(want["aupr"], abs=1e-15)
    for _, ids, ood in dumps.generate(11, n_files=4, n_id=300, n_ood=200):
        report = metrics.detection_report(_scored(ids, ood))
        want = oracle.detection(ids, ood)
        assert report.fpr_at_95_tpr == pytest.approx(want["fpr95"], abs=workloads.ORACLE_TOL)
        assert report.auroc == pytest.approx(want["auroc"], abs=workloads.ORACLE_TOL)
        assert report.aupr == pytest.approx(want["aupr"], abs=workloads.ORACLE_TOL)


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("cli.main", 0, 100, -1),
        spans.Span("harness.run_experiment", 10, 90, 0),
        spans.Span("optimizer.train", 20, 50, 1),
        spans.Span("model.forward", 25, 30, 2),
        spans.Span("scores.score_batch", 60, 80, 1),
    ]
    assert spans.self_times_ns(tree) == [20, 30, 25, 5, 20]
    assert spans.has_ancestor(tree, 3, "harness.run_experiment")
    assert not spans.has_ancestor(tree, 4, "optimizer.train")


def test_covered_time_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered_ns([(10, 30), (20, 40), (50, 60)], 0, 100) == 40
    assert spans.covered_ns([(-5, 10), (90, 120)], 0, 100) == 20


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 20) is None
    p, value = tail_percentile([float(i) for i in range(100)])
    assert p == 90
    assert sum(v > value for v in range(100)) >= 10


def test_unknown_seeds_map_into_the_pool_and_recorded_seeds_run_as_themselves():
    recorded = {"0": None, "1": None, "1000": None}
    assert workloads.config_seed(1000, recorded, [0, 1]) == 1000
    assert workloads.config_seed(1, recorded, [0, 1]) == 1
    assert workloads.config_seed(7, recorded, [0, 1]) == 1
    assert workloads.config_seed(7, recorded, [0, 1]) == workloads.config_seed(7, recorded, [0, 1])


# --------------------------------------------------------------------------
# Wrapper installation and removal
# --------------------------------------------------------------------------

def _snapshot():
    import sys
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "logitbench" or modname.startswith("logitbench."):
            snap[modname] = dict(vars(mod))
    snap["Matrix2D"] = dict(vars(logitbench.tensor.Matrix2D))
    snap["GradTape"] = dict(vars(logitbench.tensor.GradTape))
    snap["ScoredExample"] = dict(vars(ScoredExample))
    return snap


def _tiny_dump(tmp_path: Path) -> Path:
    path = tmp_path / "tiny.txt"
    path.write_text(dumps.dump_text(np.array([0.9, 0.8, 1.0]), np.array([0.1, 0.8]), 0))
    return path


def test_wrappers_bind_where_the_name_is_used():
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        # from-imports: the harness and the CLI call these names directly.
        assert harness.train is optimizer.train
        assert harness.train.__wrapped__ is not None
        assert optimizer.forward_traced.__wrapped__ is logitbench.model.__dict__[
            "forward_traced"].__wrapped__
        assert cli.read_scores is scores.read_scores
    finally:
        installed.restore()
    assert not hasattr(harness.train, "__wrapped__")
    assert not hasattr(optimizer.forward_traced, "__wrapped__")


def test_traced_run_records_spans_and_removes_every_wrapper(tmp_path):
    before = _snapshot()
    dump = _tiny_dump(tmp_path)
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        assert call(cli, ["eval", "--scores", str(dump), "--out", str(tmp_path / "e.csv")]) is None
        assert call(cli, ["report", "--scores", str(dump), "--bins", "4",
                          "--out", str(tmp_path / "h.csv")]) is None
    finally:
        installed.restore()
    assert _snapshot() == before
    names = [s.name for s in recorder.spans]
    assert names.count("cli.main") == 2
    assert {"scores.read_scores", "metrics.detection_report",
            "harness.emit_histogram_data"} <= set(names)
    assert all(recorder.spans[i].parent == 0 for i in range(1, names.index("cli.main", 1)))
    assert recorder.counts["scores.scored_examples"] == 10
    assert layers.unfired(recorder, workloads.DumpEval.expected_spans) == []
    # Nothing is recorded once the wrappers are gone.
    call(cli, ["eval", "--scores", str(dump), "--out", str(tmp_path / "e2.csv")])
    assert len(recorder.spans) == len(names)


def test_wrappers_are_removed_when_the_traced_call_raises(tmp_path):
    before = _snapshot()
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        with pytest.raises(DataError):
            harness.emit_histogram_data([], 5)
    finally:
        installed.restore()
    assert _snapshot() == before
    (span,) = recorder.spans
    assert span.name == "harness.emit_histogram_data" and span.end >= span.start


def test_a_missing_function_is_reported_absent_not_zero():
    recorder = spans.Recorder()
    gone = spans.SpanSpec("scores.read_scores", "scores", "no_such_function")
    installed = spans.install(recorder, spans=(gone,), counters=())
    installed.restore()
    assert "scores.read_scores" in recorder.absent
    derived, absent = layers.derive(recorder, 1, 0.0, "dump_eval")
    assert derived["scores.read_s"] == {"value": 0.0, "unit": "s"}
    assert "does not exist" in absent["scores.read_s"]
    assert "not exercised" in absent["optimizer.train_s"]
    assert set(derived) == set(layers.PER_LAYER)
    assert all(set(entry) == {"value", "unit"} for entry in derived.values())
