"""Orchestration tests: config parsing, seed derivation, dataset realization,
the benchmark grid, tau sweep, histogram and calibration emission."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from logitbench import harness, optimizer
from logitbench.cli import main
from logitbench.errors import AllSeedsDiverged, ConfigError, DataError
from logitbench.harness import (DataConfig, config_from_dict, config_hash,
                                config_to_dict, derive_seed, emit_histogram_data,
                                load_config, realize_data, run_calibration,
                                run_experiment, sweep_tau)
from logitbench.scores import dump_records, read_scores, write_scores

from conftest import CONFIGS, load_desk, write_file_data


def tiny_raw(**overrides):
    """A deliberately small but complete experiment description."""
    raw = {
        "data": {"kind": "blobs", "k": 3, "d": 4, "n_train_per_class": 40,
                 "n_test_per_class": 10, "cluster_spread": 0.5,
                 "cluster_radius": 3.0, "val_fraction": 0.2},
        "layer_dims": [4, 8, 3],
        "losses": [{"kind": "cross_entropy"}, {"kind": "logit_norm", "params": {"tau": 0.1}}],
        "optim": {"lr0": 0.05, "momentum": 0.9, "weight_decay": 1e-4,
                  "epochs": 4, "batch_size": 32, "lr_drops": [[2, 0.1]]},
        "scores": [{"kind": "msp"}, {"kind": "energy"}],
        "ood_panel": [
            {"kind": "uniform_box", "m": 50, "params": {"half_width": 1.0}},
            {"kind": "gaussian_noise", "m": 50, "params": {"std": 0.5}},
        ],
        "validation_ood": {"kind": "gaussian_noise", "m": 50, "params": {"std": 0.5}},
        "metrics": {"tpr_target": 0.95, "ece_bins": 15},
        "seeds": [0, 1],
        "output_dir": "out",
    }
    raw.update(overrides)
    return raw


def read_cells(path):
    """The header and the data rows of the CSV file at path."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def assert_cells_equal(path, records):
    """Every cell of the CSV at path equals the field its column names in
    the matching record exactly: a float reads back to the same float and a
    tuple of seeds is joined with ';'."""
    header, rows = read_cells(path)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            value = getattr(record, name)
            if isinstance(value, tuple):
                assert tuple(int(s) for s in cell.split(";")) == value
            else:
                assert type(value)(cell) == value


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip():
    cfg = config_from_dict(tiny_raw())
    again = config_from_dict(config_to_dict(cfg))
    assert config_hash(cfg) == config_hash(again)


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(tiny_raw(learning_rate=0.1))


def test_config_rejects_unknown_nested_key():
    raw = tiny_raw()
    raw["optim"]["nesterov"] = True
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(raw)


def test_config_requires_seeds_and_dims():
    with pytest.raises(ConfigError, match="missing keys"):
        config_from_dict({"layer_dims": [4, 3]})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(tiny_raw(seeds=[]))


def test_config_rejects_optim_seed():
    # The SGD seed is derived from the run seed; the config has no say in it.
    raw = tiny_raw()
    raw["optim"]["seed"] = 12345
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(raw)


def test_config_rejects_duplicate_ood_kinds():
    panel = [{"kind": "gaussian_noise", "m": 50, "params": {"std": 0.5}},
             {"kind": "gaussian_noise", "m": 50, "params": {"std": 2.0}}]
    with pytest.raises(ConfigError, match="distinct"):
        config_from_dict(tiny_raw(ood_panel=panel))


@pytest.mark.parametrize("axis, entries", [
    ("losses", [{"kind": "logit_norm", "params": {"tau": 0.04}},
                {"kind": "logit_norm", "params": {"tau": 0.5}}]),
    ("scores", [{"kind": "energy", "params": {"T": 1.0}},
                {"kind": "energy", "params": {"T": 0.25}}]),
])
def test_config_rejects_repeated_kinds(axis, entries):
    # Checkpoints, dumps and bench.csv rows are named by kind, so a repeated
    # kind would overwrite the first entry's files and merge their rows.
    with pytest.raises(ConfigError, match=f"{axis} kinds must be distinct"):
        config_from_dict(tiny_raw(**{axis: entries}))


@pytest.mark.parametrize("entry, match", [
    ({"kind": "speckle"}, "unknown OOD kind"),
    ({"kind": "uniform_box", "m": 0}, "m >= 1"),
])
def test_config_validates_ood_sets(entry, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(tiny_raw(ood_panel=[entry]))
    with pytest.raises(ConfigError, match=match):
        config_from_dict(tiny_raw(validation_ood=entry))


def test_config_dims_must_match_data():
    with pytest.raises(ConfigError, match="inconsistent"):
        config_from_dict(tiny_raw(layer_dims=[5, 8, 3]))
    with pytest.raises(ConfigError, match="inconsistent"):
        config_from_dict(tiny_raw(layer_dims=[4, 8, 2]))


def test_config_tpr_target_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match="tpr_target"):
            config_from_dict(tiny_raw(metrics={"tpr_target": bad, "ece_bins": 15}))


def test_config_full_tpr_target_uses_min_id_threshold(tmp_path):
    raw = tiny_raw(metrics={"tpr_target": 1.0, "ece_bins": 15}, seeds=[0],
                   output_dir=str(tmp_path))
    cfg = config_from_dict(raw)
    assert cfg.metrics.tpr_target == 1.0
    result = run_experiment(cfg)
    assert result.seed_rows
    for r in result.seed_rows:
        ids, ood = read_scores(tmp_path / f"scores_{r.loss_name}_{r.score_name}_"
                                          f"{r.ood_dataset_tag}_{r.seed}.txt")
        min_id = min(ids)
        assert r.fpr95 == sum(v >= min_id for v in ood) / len(ood)


def test_config_hash_sensitive_to_content():
    a = config_hash(config_from_dict(tiny_raw()))
    b = config_hash(config_from_dict(tiny_raw(seeds=[0, 2])))
    assert a != b


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_huge_integer(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seeds": [' + "1" * 5000 + "]}")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_raw()))
    cfg = load_config(path)
    assert cfg.seeds == (0, 1)


def test_data_config_validation():
    with pytest.raises(ConfigError):
        DataConfig(kind="images")
    with pytest.raises(ConfigError):
        DataConfig(val_fraction=1.0)
    with pytest.raises(ConfigError):
        DataConfig(label_noise=-0.1)
    # Per-class sizes at their bounds parse; one past each is refused in test_cli.
    DataConfig(n_train_per_class=1, n_test_per_class=1)
    DataConfig(n_train_per_class=2, n_test_per_class=1, val_fraction=0.1)
    DataConfig(k=10, n_train_per_class=99_800, n_test_per_class=200)
    DataConfig(kind="file", k=10, n_train_per_class=10**6, val_fraction=0.1)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_every_committed_config_loads(path):
    cfg = load_config(path)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_desk_config_is_valid():
    cfg = load_desk(seeds=(0,), epochs=10, output_dir="out")
    assert cfg.data.k == cfg.layer_dims[-1] == 10
    assert len(cfg.ood_panel) == 4
    assert len(cfg.losses) == 3
    assert len(cfg.scores) == 4


# ---------------------------------------------------------------------------
# seed derivation and data realization


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(0, "data") == derive_seed(0, "data")
    assert derive_seed(0, "data") != derive_seed(1, "data")
    assert derive_seed(0, "data") != derive_seed(0, "split")
    assert 0 <= derive_seed(7, "init") < 2 ** 32


def test_realize_data_shapes():
    cfg = config_from_dict(tiny_raw())
    bundle = realize_data(cfg, 0)
    # 40 train per class split 0.8/0.2 into train/val
    assert bundle.train.n == 96
    assert bundle.val.n == 24
    assert bundle.test.n == 30
    assert [tag for tag, _ in bundle.ood_sets] == ["uniform_box", "gaussian_noise"]
    assert all(ood.cols == 4 for _, ood in bundle.ood_sets)
    assert bundle.validation_ood.rows == 50


def test_realize_data_no_val_split():
    cfg = config_from_dict(tiny_raw())
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, val_fraction=0.0))
    bundle = realize_data(cfg, 0)
    assert bundle.val is None
    assert bundle.train.n == 120


def test_label_noise_touches_train_only():
    raw = tiny_raw()
    raw["data"]["label_noise"] = 0.25
    noisy = realize_data(config_from_dict(raw), 0)
    clean = realize_data(config_from_dict(tiny_raw()), 0)
    # identical features and clean val/test labels, corrupted train labels
    assert np.array_equal(noisy.train.features.data, clean.train.features.data)
    assert not np.array_equal(noisy.train.labels, clean.train.labels)
    assert np.array_equal(noisy.val.labels, clean.val.labels)
    assert np.array_equal(noisy.test.labels, clean.test.labels)
    assert (noisy.train.labels != clean.train.labels).sum() == int(0.25 * noisy.train.n)


def test_realize_data_from_files(tmp_path):
    data, train_ds, test_ds = write_file_data(tmp_path)
    bundle = realize_data(config_from_dict(tiny_raw(data=data)), 0)
    assert bundle.train.n + bundle.val.n == train_ds.n
    assert np.array_equal(bundle.test.features.data, test_ds.features.data)
    assert np.array_equal(bundle.test.labels, test_ds.labels)
    assert all(ood.cols == 4 for _, ood in bundle.ood_sets)


def test_realize_data_rejects_mismatched_file_widths(tmp_path):
    data, _, _ = write_file_data(tmp_path, test_dim=5)
    with pytest.raises(DataError, match="5 features per row"):
        realize_data(config_from_dict(tiny_raw(data=data)), 0)


def test_realize_data_deterministic():
    cfg = config_from_dict(tiny_raw())
    a = realize_data(cfg, 3)
    b = realize_data(cfg, 3)
    assert np.array_equal(a.train.features.data, b.train.features.data)
    assert np.array_equal(a.ood_sets[0][1].data, b.ood_sets[0][1].data)


# ---------------------------------------------------------------------------
# benchmark grid


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = config_from_dict(tiny_raw(output_dir=str(out)))
    return cfg, run_experiment(cfg), out


def test_run_experiment_row_cardinality(tiny_run):
    cfg, result, _ = tiny_run
    # 2 losses x 2 scores x 2 OOD sets aggregated over 2 seeds
    assert len(result.rows) == 8
    assert len(result.seed_rows) == 16
    assert all(r.seeds_used == (0, 1) for r in result.rows)


def test_run_experiment_artifacts(tiny_run):
    cfg, result, out = tiny_run
    names = {p.name for p in out.iterdir()}
    assert "bench.csv" in names
    assert "bench_per_seed.csv" in names
    assert "config.json" in names
    assert "config.hash" in names
    assert "telemetry_cross_entropy_0.csv" in names
    assert "checkpoint_logit_norm_1.txt" in names
    assert "scores_cross_entropy_msp_uniform_box_0.txt" in names
    assert (out / "config.hash").read_text().strip() == result.hash


def test_run_experiment_metric_ranges(tiny_run):
    _, result, _ = tiny_run
    for r in result.seed_rows:
        assert 0.0 <= r.fpr95 <= 1.0
        assert 0.0 <= r.auroc <= 1.0
        assert 0.0 <= r.aupr <= 1.0
        assert 0.0 <= r.id_accuracy <= 1.0


def test_run_experiment_bench_csv_header(tiny_run):
    _, result, out = tiny_run
    header = (out / "bench.csv").read_text().split("\n")[0]
    assert header == ("loss_name,score_name,ood_dataset_tag,fpr95_mean,fpr95_std,"
                      "auroc_mean,auroc_std,aupr_mean,aupr_std,"
                      "id_accuracy_mean,id_accuracy_std,seeds_used")
    assert read_cells(out / "bench_per_seed.csv")[0] == [
        "loss_name", "score_name", "ood_dataset_tag", "seed", "fpr95", "auroc", "aupr",
        "id_accuracy"]
    assert read_cells(out / "telemetry_cross_entropy_0.csv")[0] == [
        "epoch", "train_loss", "train_acc", "mean_logit_norm_id", "mean_logit_norm_ood"]
    # Every written cell reads back to the value the run returned.
    assert_cells_equal(out / "bench.csv", result.rows)
    assert_cells_equal(out / "bench_per_seed.csv", result.seed_rows)
    assert_cells_equal(out / "telemetry_cross_entropy_0.csv",
                       result.telemetry[("cross_entropy", 0)])


def test_run_experiment_rerun_is_byte_identical(tiny_run, tmp_path):
    cfg, _, out = tiny_run
    rerun_dir = tmp_path / "rerun"
    run_experiment(dataclasses.replace(cfg, output_dir=str(rerun_dir)))
    for name in ("bench.csv", "bench_per_seed.csv",
                 "telemetry_cross_entropy_0.csv",
                 "scores_logit_norm_energy_gaussian_noise_1.txt"):
        assert (rerun_dir / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_experiment_all_diverged(tmp_path):
    # Restrict to cross-entropy: the normalized loss is scale-invariant in
    # the logits and can survive absurd learning rates.
    raw = tiny_raw(output_dir=str(tmp_path / "div"),
                   losses=[{"kind": "cross_entropy"}])
    # lr * weight_decay > 1 multiplies the weights by a huge factor every
    # step, so they overflow within a couple dozen updates.
    raw["optim"].update(lr0=1e9, weight_decay=0.1, epochs=20, lr_drops=[])
    cfg = config_from_dict(raw)
    with pytest.raises(AllSeedsDiverged):
        run_experiment(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_experiment_partly_diverged(tmp_path):
    raw = tiny_raw(output_dir=str(tmp_path), seeds=[0])
    raw["optim"].update(lr0=1e9, weight_decay=0.0, epochs=20, lr_drops=[])
    result = run_experiment(config_from_dict(raw))
    assert result.warnings == ["loss=cross_entropy seed=0: diverged "
                               "(non-finite loss at epoch 12, step 2)"]
    assert list(result.telemetry) == [("logit_norm", 0)]
    assert {r.loss_name for r in result.rows} == {"logit_norm"}
    assert (tmp_path / "warnings.txt").exists()
    # A clean rerun into the same directory leaves no stale warnings.
    run_experiment(config_from_dict(tiny_raw(output_dir=str(tmp_path), seeds=[0])))
    assert not (tmp_path / "warnings.txt").exists()


def test_dump_scores_rejects_a_non_finite_score_before_writing(tmp_path, monkeypatch):
    real = harness.score_batch

    def with_inf(model, features, cfg):
        scores = real(model, features, cfg).copy()
        scores[1] = np.inf
        return scores

    monkeypatch.setattr(harness, "score_batch", with_inf)
    out = tmp_path / "out"
    raw = tiny_raw(seeds=[0], output_dir=str(out))
    cfg = config_from_dict(raw)
    out.mkdir()
    model = harness.init_model(cfg.layer_dims, 0)
    with pytest.raises(DataError, match=r"^score must be finite, got inf$"):
        next(harness.dump_scores(cfg, model, realize_data(cfg, 0), "m", 0))
    assert not list(out.glob("scores_*"))
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    assert main(["bench", "--config", str(path), "--quiet"]) == 2
    assert list(out.glob("checkpoint_*")) and not list(out.glob("scores_*"))


def test_epoch_end_forward_runs_only_where_its_record_is_written(tmp_path, monkeypatch):
    """Per training cell, the number of epoch-end forwards: the calls of
    `_forward` that `optimizer.train` makes into its reused output buffers
    (its steps call `_forward` without them).
    `calibrate` and `sweep-tau` read only the last epoch's record and make
    one. `bench` and `train` write every epoch's telemetry and make two per
    epoch, over the training set and over the validation OOD probe."""
    per_cell = []
    real_forward, real_train = optimizer._forward, harness.train

    def counting_forward(weights, biases, x, out=None):
        per_cell[-1] += out is not None
        return real_forward(weights, biases, x, out)

    def counting_train(*args, **kwargs):
        per_cell.append(0)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_forward", counting_forward)
    monkeypatch.setattr(harness, "train", counting_train)
    raw = tiny_raw(seeds=[0], output_dir=str(tmp_path / "out"))
    cfg = config_from_dict(raw)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    every_epoch = [2 * cfg.optim.epochs] * len(cfg.losses)
    for command, run, want in [
            ("calibrate", lambda: run_calibration(cfg), [1] * len(cfg.losses)),
            ("sweep-tau", lambda: sweep_tau(cfg, [0.05, 0.1, 0.5]), [1, 1, 1]),
            ("bench", lambda: run_experiment(cfg), every_epoch),
            ("train", lambda: main(["train", "--config", str(path), "--quiet"]), every_epoch)]:
        per_cell.clear()
        run()
        assert per_cell == want, command


# ---------------------------------------------------------------------------
# tau sweep


def test_sweep_tau_singleton(tmp_path):
    raw = tiny_raw(output_dir=str(tmp_path), seeds=[0])
    cfg = config_from_dict(raw)
    rows, selected = sweep_tau(cfg, [0.04])
    assert selected == 0.04
    assert len(rows) == 1
    text = (tmp_path / "sweep_tau.csv").read_text()
    assert text.startswith("tau,val_fpr95_mean,final_train_loss_mean,selected\n")
    assert text.strip().split("\n")[1].endswith(",1")
    _, cells = read_cells(tmp_path / "sweep_tau.csv")
    assert [[float(c) for c in row] for row in cells] == [
        [r.tau, r.val_fpr95_mean, r.final_train_loss_mean, 1.0] for r in rows]


def test_sweep_tau_selects_argmin(tmp_path):
    cfg = config_from_dict(tiny_raw(seeds=[0], output_dir=str(tmp_path)))
    rows, selected = sweep_tau(cfg, [0.05, 0.1])
    best = min(rows, key=lambda r: (r.val_fpr95_mean, r.tau))
    assert selected == best.tau


def test_sweep_tau_realizes_each_seed_once(monkeypatch, tmp_path):
    calls = []
    real = harness.realize_data
    monkeypatch.setattr(harness, "realize_data",
                        lambda cfg, seed: calls.append(seed) or real(cfg, seed))
    rows, _ = sweep_tau(config_from_dict(tiny_raw(output_dir=str(tmp_path))), [0.05, 0.1, 0.5])
    assert calls == [0, 1]
    assert [r.tau for r in rows] == [0.05, 0.1, 0.5]


def test_sweep_tau_trains_each_distinct_tau_once_per_seed(monkeypatch, tmp_path):
    trained = []
    real = harness.train
    monkeypatch.setattr(harness, "train", lambda model, data, loss_cfg, *args, **kwargs:
                        trained.append(loss_cfg.params["tau"])
                        or real(model, data, loss_cfg, *args, **kwargs))
    rows, _ = sweep_tau(config_from_dict(tiny_raw(output_dir=str(tmp_path))), [0.1, 0.1, 0.05])
    assert trained == [0.05, 0.1] * 2
    assert [r.tau for r in rows] == [0.05, 0.1]
    _, cells = read_cells(tmp_path / "sweep_tau.csv")
    assert [float(row[0]) for row in cells] == [0.05, 0.1]


def test_sweep_tau_validation(tmp_path):
    cfg = config_from_dict(tiny_raw(output_dir=str(tmp_path)))
    with pytest.raises(ConfigError):
        sweep_tau(cfg, [])
    with pytest.raises(ConfigError):
        sweep_tau(cfg, [0.1, -0.5])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=r"tau must be a number in \(0, inf\)"):
            sweep_tau(cfg, [0.1, bad])


# ---------------------------------------------------------------------------
# histograms


def test_histogram_counts_conserved():
    rng = np.random.default_rng(0)
    values = rng.normal(size=100)
    rows = emit_histogram_data(values[:60], values[60:], bins=10)
    assert sum(r[2] for r in rows) == 60
    assert sum(r[3] for r in rows) == 40
    assert len(rows) == 10


def test_histogram_degenerate_range():
    rows = emit_histogram_data([0.5], [0.5], bins=4)
    assert sum(r[2] + r[3] for r in rows) == 2


def test_histogram_validation():
    with pytest.raises(ConfigError):
        emit_histogram_data([1.0], [], bins=1)
    with pytest.raises(DataError):
        emit_histogram_data([], [], bins=5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["ID", "OOD"])
def test_histogram_rejects_a_non_finite_score(side, bad):
    # A NaN gave NaN edges and dropped scores; an inf gave a count of -1.
    id_scores, ood_scores = [bad, 1.0], [0.5]
    if side == "OOD":
        id_scores, ood_scores = ood_scores, id_scores
    with pytest.raises(DataError, match="^ID and OOD scores must be finite$"):
        emit_histogram_data(id_scores, ood_scores, bins=4)


def test_histogram_csv_shape(tmp_path):
    write_scores(tmp_path / "dump.txt", dump_records("ID", [0.1]), [0.9])
    out = tmp_path / "hist.csv"
    assert main(["report", "--scores", str(tmp_path / "dump.txt"), "--bins", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,id_count,ood_count"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# calibration


def test_run_calibration_requires_val_split(tmp_path):
    cfg = config_from_dict(tiny_raw(output_dir=str(tmp_path)))
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, val_fraction=0.0))
    with pytest.raises(ConfigError):
        run_calibration(cfg)


def test_run_calibration_realizes_the_first_seed_only(monkeypatch, tmp_path):
    calls = []
    real = harness.realize_data
    monkeypatch.setattr(harness, "realize_data",
                        lambda cfg, seed: calls.append(seed) or real(cfg, seed))
    rows = run_calibration(config_from_dict(tiny_raw(seeds=[3, 1], output_dir=str(tmp_path))))
    assert calls == [3]
    assert [r.loss_name for r in rows] == ["cross_entropy", "logit_norm"]


def test_run_calibration_outputs(tmp_path):
    cfg = config_from_dict(tiny_raw(seeds=[0], output_dir=str(tmp_path)))
    rows = run_calibration(cfg)
    assert [r.loss_name for r in rows] == ["cross_entropy", "logit_norm"]
    for r in rows:
        assert r.fitted_T > 0
        assert 0.0 <= r.pre.ece <= 1.0
        assert 0.0 <= r.post.ece <= 1.0
    text = (tmp_path / "calibration.csv").read_text()
    assert text.startswith("loss_name,fitted_T,ece_pre_ts,ece_post_ts\n")
    assert len(text.strip().split("\n")) == 3
    _, cells = read_cells(tmp_path / "calibration.csv")
    assert [[name, *map(float, values)] for name, *values in cells] == [
        [r.loss_name, r.fitted_T, r.pre.ece, r.post.ece] for r in rows]
