"""Command-line interface tests exercising every subcommand and exit code."""

import csv
import ctypes
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from logitbench.cli import build_parser, main
from logitbench.harness import MAX_VALUES, config_from_dict
from logitbench.model import init_model, save_checkpoint
from logitbench.tensor import _openblas_libraries

from conftest import CONFIGS, replaced, write_file_data


def write_config(tmp_path, **overrides):
    raw = {
        "data": {"kind": "blobs", "k": 3, "d": 4, "n_train_per_class": 40,
                 "n_test_per_class": 10, "cluster_spread": 0.5,
                 "cluster_radius": 3.0, "val_fraction": 0.2},
        "layer_dims": [4, 8, 3],
        "losses": [{"kind": "cross_entropy"}],
        "optim": {"lr0": 0.05, "momentum": 0.9, "weight_decay": 1e-4,
                  "epochs": 3, "batch_size": 32, "lr_drops": []},
        "scores": [{"kind": "msp"}],
        "ood_panel": [{"kind": "uniform_box", "m": 40, "params": {"half_width": 1.0}}],
        "validation_ood": {"kind": "gaussian_noise", "m": 40, "params": {"std": 0.5}},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_is_built_once_and_reused():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["report", "--scores", "a.txt", "--bins", "7"])
    second = parser.parse_args(["report", "--scores", "b.txt"])
    assert (first.scores, first.bins, second.scores, second.bins) == ("a.txt", 7, "b.txt", 50)


def test_train_then_score_then_eval(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"

    assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
    ckpt = out / "checkpoint_cross_entropy_0.txt"
    assert ckpt.exists()
    assert (out / "telemetry_cross_entropy_0.csv").exists()

    assert main(["score", "--config", str(cfg_path), "--quiet",
                 "--checkpoint", str(ckpt)]) == 0
    dump = out / "scores_checkpoint_cross_entropy_0_msp_uniform_box_0.txt"
    assert dump.exists()

    assert main(["eval", "--scores", str(dump)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("name,fpr_at_95_tpr,auroc,aupr,n_id,n_ood")


def test_score_two_checkpoints_into_one_directory(tmp_path):
    cfg_path = write_config(tmp_path, losses=[{"kind": "cross_entropy"},
                                              {"kind": "logit_norm"}])
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
    dumps = []
    for loss in ("cross_entropy", "logit_norm"):
        assert main(["score", "--config", str(cfg_path), "--quiet", "--checkpoint",
                     str(out / f"checkpoint_{loss}_0.txt")]) == 0
        dumps.append(out / f"scores_checkpoint_{loss}_0_msp_uniform_box_0.txt")
    assert all(d.exists() for d in dumps)
    assert dumps[0].read_text() != dumps[1].read_text()


def test_score_prints_the_name_of_each_dump_it_writes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, scores=[{"kind": "msp"}, {"kind": "energy"}])
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["score", "--config", str(cfg_path),
                 "--checkpoint", str(out / "checkpoint_cross_entropy_0.txt")]) == 0
    names = ["scores_checkpoint_cross_entropy_0_msp_uniform_box_0.txt",
             "scores_checkpoint_cross_entropy_0_energy_uniform_box_0.txt"]
    assert capsys.readouterr().out == "".join(f"wrote {name}\n" for name in names)
    assert sorted(path.name for path in out.glob("scores_*")) == sorted(names)


def test_bench_subcommand(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 0
    assert (tmp_path / "out" / "bench.csv").exists()


def test_bench_out_override(tmp_path):
    cfg_path = write_config(tmp_path)
    alt, other = tmp_path / "elsewhere", tmp_path / "other"
    for out in (alt, other):
        assert main(["bench", "--config", str(cfg_path), "--quiet",
                     "--out", str(out)]) == 0
        assert (out / "bench.csv").exists()
    # The output directory is no part of the config hash, so the two runs
    # write the same hash and the same checkpoints.
    assert (alt / "config.hash").read_text() == (other / "config.hash").read_text()
    checkpoints = sorted(p.name for p in alt.glob("checkpoint_*"))
    assert checkpoints == sorted(p.name for p in other.glob("checkpoint_*")) != []
    for name in checkpoints:
        assert (alt / name).read_bytes() == (other / name).read_bytes()


def test_seed_override_limits_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, seeds=[0, 1])
    assert main(["train", "--config", str(cfg_path), "--quiet",
                 "--seed", "1"]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint_cross_entropy_1.txt").exists()
    assert not (out / "checkpoint_cross_entropy_0.txt").exists()


def test_sweep_tau_subcommand(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["sweep-tau", "--config", str(cfg_path), "--quiet",
                 "--tau-grid", "0.04,0.1"]) == 0
    assert (tmp_path / "out" / "sweep_tau.csv").exists()


def test_calibrate_subcommand(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["calibrate", "--config", str(cfg_path), "--quiet"]) == 0
    assert (tmp_path / "out" / "calibration.csv").exists()


def test_report_subcommand(tmp_path):
    cfg_path = write_config(tmp_path)
    main(["bench", "--config", str(cfg_path), "--quiet"])
    dump = tmp_path / "out" / "scores_cross_entropy_msp_uniform_box_0.txt"
    hist = tmp_path / "hist.csv"
    assert main(["report", "--scores", str(dump), "--bins", "8",
                 "--out", str(hist)]) == 0
    lines = hist.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,id_count,ood_count"
    assert len(lines) == 9


def test_report_on_a_score_span_that_overflows(tmp_path):
    # max - min overflows to inf; eval reads the dump as valid, and so must report.
    dump = tmp_path / "dump.txt"
    dump.write_text("ID,1e308\nID,0.5\nOOD,-1e308\nOOD,0.1\n")
    assert main(["eval", "--scores", str(dump), "--out", str(tmp_path / "e.csv")]) == 0
    hist = tmp_path / "hist.csv"
    assert main(["report", "--scores", str(dump), "--bins", "4", "--out", str(hist)]) == 0
    rows = [line.split(",") for line in hist.read_text().splitlines()[1:]]
    assert [(float(a), float(b)) for a, b, _, _ in rows] == [
        (-1e308, -5e307), (-5e307, 0.0), (0.0, 5e307), (5e307, 1e308)]
    assert [(int(i), int(o)) for _, _, i, o in rows] == [(0, 1), (0, 0), (1, 1), (1, 0)]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_error(tmp_path):
    cfg_path = write_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["unknown_knob"] = 1
    cfg_path.write_text(json.dumps(raw))
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 1


def test_exit_code_data_error(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["eval", "--scores", str(empty)]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_all_diverged(tmp_path):
    cfg_path = write_config(
        tmp_path,
        optim={"lr0": 1e9, "momentum": 0.9, "weight_decay": 0.1,
               "epochs": 20, "batch_size": 32, "lr_drops": []})
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 3
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "config.hash", "config.json", "warnings.txt"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_exit_code_diverged_run(command, tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        optim={"lr0": 1e9, "momentum": 0.9, "weight_decay": 0.1,
               "epochs": 20, "batch_size": 32, "lr_drops": []})
    assert main([command, "--config", str(cfg_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    # train forwards the training set after every epoch, where the logits
    # overflow first; calibrate forwards it after the last epoch only, so
    # the overflow surfaces at a later step's loss.
    what = {"train": "epoch-end logits", "calibrate": "loss"}[command]
    assert err.startswith("all seeds diverged: loss=cross_entropy seed=0: diverged "
                          f"(non-finite {what} at epoch ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_all_diverged_sweep_tau(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        optim={"lr0": 1e9, "momentum": 0.9, "weight_decay": 0.1,
               "epochs": 20, "batch_size": 32, "lr_drops": []})
    assert main(["sweep-tau", "--config", str(cfg_path), "--quiet",
                 "--tau-grid", "0.1,1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("all seeds diverged: loss=logit_norm tau=0.1 seed=0: diverged ")
    assert err.count("\n") == 1


def test_exit_code_bad_ood_set(tmp_path):
    cfg_path = write_config(tmp_path, ood_panel=[{"kind": "uniform_box", "m": 0}])
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 1


def test_exit_code_repeated_loss_kind(tmp_path, capsys):
    cfg_path = write_config(tmp_path, losses=[{"kind": "logit_norm", "params": {"tau": 0.04}},
                                              {"kind": "logit_norm", "params": {"tau": 0.5}}])
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: config: losses kinds must be distinct")
    assert not (tmp_path / "out").exists()


def test_exit_code_repeated_seed(tmp_path, capsys):
    # A repeated seed would train its cells twice and write every
    # bench_per_seed.csv row twice.
    cfg_path = write_config(tmp_path, seeds=[0, 0])
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: config: seeds must be distinct, got [0, 0]\n"
    assert not (tmp_path / "out").exists()


NOT_UTF8 = b"\xff\xfe not text \x80\n"


# Each case builds its command line from tmp_path and the path of a file
# that is missing or holds bytes that are not UTF-8.

def _tau_grid(tmp_path, bad):
    return ["sweep-tau", "--config", str(write_config(tmp_path)), "--tau-grid", "abc"]


def _config_file(tmp_path, bad):
    return ["train", "--config", bad]


def _dump(tmp_path, bad):
    return ["eval", "--scores", bad]


def _checkpoint(tmp_path, bad):
    return ["score", "--config", str(write_config(tmp_path)), "--checkpoint", bad]


def _data_file(tmp_path, bad):
    data = {"kind": "file", "k": 3, "train_path": bad, "test_path": bad}
    return ["train", "--config", str(write_config(tmp_path, data=data))]


def _good_dump(tmp_path):
    dump = tmp_path / "dump.txt"
    dump.write_text("ID,0.9\nID,0.8\nOOD,0.1\n")
    return str(dump)


def _eval_out_in_a_missing_directory(tmp_path, bad):
    return ["eval", "--scores", _good_dump(tmp_path), "--out", str(tmp_path / "missing" / "e.csv")]


def _report_out_is_a_directory(tmp_path, bad):
    return ["report", "--scores", _good_dump(tmp_path), "--out", str(tmp_path)]


def _wider_data_than_checkpoint(tmp_path, bad):
    assert main(["train", "--config", str(write_config(tmp_path)), "--quiet"]) == 0
    ckpt = tmp_path / "out" / "checkpoint_cross_entropy_0.txt"
    wide = dict(json.loads((tmp_path / "config.json").read_text())["data"], d=5)
    return ["score", "--config", str(write_config(tmp_path, data=wide, layer_dims=[5, 8, 3])),
            "--checkpoint", str(ckpt)]


@pytest.mark.parametrize("argv, content, code, prefix", [
    (_tau_grid, None, 1, "config error: --tau-grid: could not convert"),
    (_config_file, None, 1, "config error: cannot read"),
    (_config_file, NOT_UTF8, 1, "config error: cannot read"),
    (_dump, None, 2, "data error: cannot read"),
    (_dump, NOT_UTF8, 2, "data error: cannot read"),
    (_checkpoint, None, 2, "data error: cannot read"),
    (_checkpoint, NOT_UTF8, 2, "data error: cannot read"),
    (_data_file, None, 2, "data error: cannot read"),
    (_data_file, NOT_UTF8, 2, "data error: cannot read"),
    (_wider_data_than_checkpoint, None, 2, "data error: input has 5 features, model expects 4"),
    (_eval_out_in_a_missing_directory, None, 1, "config error: cannot write "),
    (_report_out_is_a_directory, None, 1, "config error: cannot write "),
], ids=["tau grid", "missing config", "non-utf8 config", "missing dump", "non-utf8 dump",
        "missing checkpoint", "non-utf8 checkpoint", "missing data file",
        "non-utf8 data file", "checkpoint width", "eval out in a missing directory",
        "report out is a directory"])
def test_bad_input_is_one_line_without_traceback(argv, content, code, prefix, tmp_path,
                                                 capsys):
    bad = tmp_path / "bad.txt"
    if content is not None:
        bad.write_bytes(content)
    args = argv(tmp_path, str(bad))
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_score_on_a_non_finite_checkpoint_is_one_data_error(value, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 8, 3), seed=0), ckpt)
    ckpt.write_text(ckpt.read_text().replace("bias 1 0 ", f"bias 1 {value} ", 1))
    capsys.readouterr()
    assert main(["score", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err == f"data error: {ckpt}: bias 1 values must be finite\n"
    assert not list((tmp_path / "out").glob("scores_*"))


@pytest.mark.parametrize("old, new, message", [
    ("config_hash \n", "nonsense abc\n", "line 2: expected 'config_hash', got 'nonsense abc'"),
    ("bias 0 ", "weight 0 0\nbias 0 ", "repeated checkpoint field weight 0"),
], ids=["header keyword", "repeated field"])
def test_score_on_a_malformed_checkpoint_is_one_data_error(old, new, message, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 8, 3), seed=0), ckpt)
    ckpt.write_text(ckpt.read_text().replace(old, new, 1))
    capsys.readouterr()
    assert main(["score", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err == f"data error: {ckpt}: {message}\n"
    assert not list((tmp_path / "out").glob("scores_*"))


def test_train_out_is_a_file_fails_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained although the output directory cannot be made")

    monkeypatch.setattr("logitbench.harness.train", no_training)
    target = tmp_path / "taken"
    target.write_text("")
    assert main(["train", "--config", str(write_config(tmp_path)), "--quiet",
                 "--out", str(target)]) == 1
    assert capsys.readouterr().err == f"config error: cannot write {target}: File exists\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_write_that_fails_on_close(tmp_path, capsys):
    assert main(["eval", "--scores", _good_dump(tmp_path), "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err == (
        "config error: cannot write output: No space left on device\n")


DESK = CONFIGS / "desk.json"


@pytest.mark.parametrize("path, value, message", [
    (("optim", "lr0"), "fast", "config.optim.lr0: expected float, got 'fast'"),
    (("optim", "epochs"), 2.5, "config.optim.epochs: expected int, got 2.5"),
    (("optim", "batch_size"), "128", "config.optim.batch_size: expected int, got '128'"),
    (("optim", "lr_drops"), [[1]], "config.optim.lr_drops[0]: expected list of 2, got [1]"),
    (("optim", "lr_drops"), [[0, -2.0]],
     "config.optim: lr_drop factors must be nonnegative, got ((0, -2.0),)"),
    (("metrics", "ece_bins"), "15", "config.metrics.ece_bins: expected int, got '15'"),
    (("layer_dims",), [16, "a", 10], "config.layer_dims[1]: expected int, got 'a'"),
    (("losses",), {"kind": "cross_entropy"}, "config.losses: expected list, got {"),
    (("losses", 1, "params", "tau"), "big",
     "config.losses[1].params.tau: expected float, got 'big'"),
    (("validation_ood", "m"), 20.5, "config.validation_ood.m: expected int, got 20.5"),
    (("ood_panel", 1, "params", "std"), "x",
     "config.ood_panel[1].params.std: expected float, got 'x'"),
    (("ood_panel", 1, "params", "std"), None,
     "config.ood_panel[1].params.std: expected float, got None"),
    ((), 1, "config: expected object, got 1"),
    (("data",), [1], "config.data: expected object, got [1]"),
    (("seeds",), [0.5], "config.seeds[0]: expected int, got 0.5"),
    (("seeds",), [True], "config.seeds[0]: expected int, got True"),
    (("output_dir",), 5, "config.output_dir: expected str, got 5"),
    (("data", "k"), 10.5, "config.data.k: expected int, got 10.5"),
    (("layer_dims",), [], "config: layer_dims must be at least two positive sizes, got []"),
    (("layer_dims",), [16, 0, 10],
     "config: layer_dims must be at least two positive sizes, got [16, 0, 10]"),
    (("layer_dims",), [16, 10**12, 10],
     "config: layer_dims must be at most 10000 each, got [16, 1000000000000, 10]"),
    (("optim", "epochs"), 0, "config.optim: epochs must be >= 1, got 0"),
    (("ood_panel", 3, "params", "k"), 0,
     "config.ood_panel[3]: shifted_blobs param k must be an integer in [1, 10000], got 0"),
    (("ood_panel", 3, "params", "k"), 10.5,
     "config.ood_panel[3]: shifted_blobs param k must be an integer in [1, 10000], got 10.5"),
    (("ood_panel", 1, "params"), {"sdt": 0.66},
     "config.ood_panel[1]: unknown params for OOD kind 'gaussian_noise': ['sdt']"),
    (("ood_panel", 0, "params", "half_width"), -1.15,
     "config.ood_panel[0]: uniform_box param half_width must be a number in [0, 1e6], got -1.15"),
    (("ood_panel", 0, "params", "half_width"), 1e308,
     "config.ood_panel[0]: uniform_box param half_width must be a number in [0, 1e6], got 1e+308"),
    (("ood_panel", 3, "params", "k"), 1000000000000,
     "config.ood_panel[3]: shifted_blobs param k must be an integer in [1, 10000], "
     "got 1000000000000"),
    (("losses", 0, "params"), {"tau": 0.3},
     "config.losses[0]: unknown params for loss kind 'cross_entropy': ['tau']"),
    (("scores", 0, "params"), {"T": 2.0},
     "config.scores[0]: unknown params for score kind 'msp': ['T']"),
    (("scores", 2, "params", "T"), 1e308,
     "config.scores[2]: energy param T must be a number in (0, 1e6], got 1e+308"),
    (("scores", 1, "params", "eps"), 1e308,
     "config.scores[1]: odin param eps must be a number in [0, 1], got 1e+308"),
    (("ood_panel", 0, "m"), 10**12,
     "config.ood_panel[0]: OOD set 'uniform_box' needs m >= 1 and at most 1000000, "
     "got 1000000000000"),
    (("metrics", "ece_bins"), 10**12,
     "config.metrics: ece_bins must be >= 1 and at most 10000, got 1000000000000"),
    (("data", "n_train_per_class"), 0, "config.data: n_train_per_class and n_test_per_class "
     "must be >= 1, got 0 and 200"),
    (("data", "n_test_per_class"), 0, "config.data: n_train_per_class and n_test_per_class "
     "must be >= 1, got 500 and 0"),
    (("data", "n_train_per_class"), 99_801, "config.data: k * (n_train_per_class + "
     "n_test_per_class) must be at most 1000000, got 1000010"),
    (("data", "n_train_per_class"), 1,
     "config.data: val_fraction > 0 needs n_train_per_class >= 2, got 1"),
    (("data", "cluster_spread"), 1e308,
     "config.data: cluster_spread must be in [0, 1e6], got 1e+308"),
    (("data", "cluster_radius"), 1e308,
     "config.data: cluster_radius must be in [0, 1e6], got 1e+308"),
], ids=["lr0_str", "epochs_float", "batch_str", "drops_bad", "drops_negative", "bins_str",
        "dims_str", "losses_dict", "tau_str", "m_float", "params_str", "params_null", "bare",
        "data_list", "seed_float", "seed_bool", "outdir_num", "k_float", "dims_empty",
        "dims_zero", "dims_wide", "epochs0", "params_k0", "params_k_frac", "params_unknown",
        "params_hw_neg", "params_hw_big", "params_k_big", "loss_params_unread",
        "score_params_unread", "score_T_big", "score_eps_big", "ood_m_big", "ece_bins_big",
        "n_train0", "n_test0", "blobs_rows_big", "n_train_val1", "blob_spread_big",
        "blob_radius_big"])
@pytest.mark.parametrize("command", ["train", "bench", "sweep-tau", "calibrate"])
def test_bad_config_value_is_one_line_naming_its_key(command, path, value, message,
                                                    tmp_path, capsys):
    raw = json.loads(DESK.read_text())
    # One epoch, so that a value the parser let through costs little.
    raw["optim"].update(epochs=1, lr_drops=[])
    raw = replaced(raw, path, value)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--seed", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not out.exists()


def test_a_data_width_over_the_bound_is_a_config_error(tmp_path, capsys):
    # With the layers to match, 1e12 features asked gen_blobs for 72.8 TiB: a
    # numpy traceback, not a config error, until d had an upper bound.
    raw = json.loads(DESK.read_text())
    raw["data"]["d"] = raw["layer_dims"][0] = 10**12
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: config.data: need k >= 2 and 2 <= d <= 10000, "
                   "got k=10, d=1000000000000\n")
    assert not out.exists()


# 2,500 ID rows of 10,000 features: MAX_VALUES exactly.
WIDE = ((("data", "d"), 10_000), (("data", "n_train_per_class"), 200),
        (("data", "n_test_per_class"), 50), (("layer_dims",), [10_000, 64, 64, 10]))


def _desk_with(changes):
    """The desk config with each (key path, value) of `changes` set in turn."""
    raw = json.loads(DESK.read_text())
    for path, value in changes:
        raw = replaced(raw, path, value)
    return raw


@pytest.mark.parametrize("changes, message", [
    (WIDE + ((("data", "n_train_per_class"), 50_000), (("data", "n_test_per_class"), 50_000)),
     "data (1000000 rows of 10000) needs 10000000000 float64 values, at most 25000000"),
    (((("layer_dims",), [16] + [10_000] * 6 + [10]),),
     f"layer_dims {[16] + [10_000] * 6 + [10]} needs 500320010 float64 values, "
     "at most 25000000"),
    (WIDE + ((("ood_panel", 0, "m"), 1_000_000),),
     "ood_panel[0] (1000000 rows of 10000) needs 10000000000 float64 values, "
     "at most 25000000"),
    (WIDE + ((("validation_ood", "m"), 2_501),),
     "validation_ood (2501 rows of 10000) needs 25010000 float64 values, "
     "at most 25000000"),
], ids=["data_80GB", "model_4GB", "panel_set_80GB", "validation_ood"])
@pytest.mark.parametrize("command", ["train", "bench", "sweep-tau", "calibrate", "score"])
def test_a_config_past_max_values_fails_at_parse(command, changes, message, tmp_path, capsys,
                                                 monkeypatch):
    # Each size is within its own bound, and their product asked numpy for
    # gigabytes: a MemoryError traceback partway through a run, until the
    # parse bounded the values of each set and of the model.
    def nothing_past_parse(*args, **kwargs):
        raise AssertionError("a config over MAX_VALUES was run past its parse")

    for target in ("harness.gen_blobs", "harness.gen_ood", "harness.init_model",
                   "cli.load_checkpoint"):
        monkeypatch.setattr(f"logitbench.{target}", nothing_past_parse)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_desk_with(changes)))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "score":
        argv += ["--checkpoint", "model.txt"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: config: {message}\n"
    assert not out.exists()


def test_the_largest_sets_within_max_values_still_parse():
    # Parsed only, never run: 1,000,000 rows of the desk's 16 features, the
    # largest blob set and OOD sets MAX_ROWS allows, and 2,500 rows of 10,000.
    cfg = config_from_dict(_desk_with((
        (("data", "n_train_per_class"), 50_000), (("data", "n_test_per_class"), 50_000),
        (("ood_panel", 0, "m"), 1_000_000), (("validation_ood", "m"), 1_000_000))))
    assert (cfg.data.n_train_per_class, cfg.ood_panel[0].m, cfg.validation_ood.m) == (
        50_000, 1_000_000, 1_000_000)
    dc = config_from_dict(_desk_with(WIDE)).data
    assert dc.k * (dc.n_train_per_class + dc.n_test_per_class) * dc.d == MAX_VALUES


def test_quiet_is_quiet_when_a_division_by_zero_diverges(tmp_path):
    # With tau 1e-300 the logit-norm gradient divides by a square that
    # underflows to zero, so that cell diverges at its first step; every
    # warning is shown (-W default), and none may reach stderr.
    raw = json.loads(DESK.read_text())
    raw["optim"].update(epochs=1, lr_drops=[])
    raw["losses"][1]["params"]["tau"] = 1e-300
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    src = str(CONFIGS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-W", "default", "-m", "logitbench.cli", "bench", "--config",
         str(cfg_path), "--seed", "0", "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    assert (tmp_path / "out" / "warnings.txt").read_text() == (
        "loss=logit_norm tau=1e-300 seed=0: diverged "
        "(non-finite parameters at epoch 0, step 0)\n")


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter that shows every warning (-W default)."""
    src = str(CONFIGS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "default", "-m", "logitbench.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_an_overflowing_score_is_one_data_error_line(tmp_path):
    # T = 5e-324 lies in energy's range (0, 1e6]; logits / T overflow, and
    # numpy's overflow and invalid-value warnings came before the data error.
    cfg_path = write_config(tmp_path, scores=[{"kind": "energy", "params": {"T": 5e-324}}])
    run = _run_cli("bench", "--config", str(cfg_path), "--quiet")
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "data error: score must be finite, got nan\n"


def test_overflowing_logits_are_one_data_error_line(tmp_path):
    # Weights scaled by 1e200 overflow the second layer's matmul, and numpy's
    # warnings came before the data error.
    model = init_model((4, 8, 3), seed=0)
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(dataclasses.replace(model, weights=tuple(w * 1e200 for w in model.weights)),
                    ckpt)
    run = _run_cli("score", "--config", str(write_config(tmp_path)), "--checkpoint", str(ckpt),
                   "--quiet")
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "data error: logits must be finite\n"


@pytest.mark.parametrize("k, layer_dims, message", [
    (-1, [4, 8, 3], "config.data: need k >= 2, got k=-1"),
    (0, [4, 8, 3], "config.data: need k >= 2, got k=0"),
    (3, [4, 8, 2], "config: layer_dims (4, 8, 2) inconsistent with data (k=3)"),
], ids=["k_negative", "k_zero", "last_layer"])
def test_file_data_k_is_checked_at_parse(k, layer_dims, message, tmp_path, capsys):
    # k -1 failed only once the file was read, naming a label; k 0 inferred
    # k from the labels; a last layer other than k failed when training began.
    data = dict(write_file_data(tmp_path)[0], k=k)
    cfg_path = write_config(tmp_path, data=data, layer_dims=layer_dims)
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_main_runs_blas_on_one_thread(tmp_path):
    libraries = _openblas_libraries()
    lib = ctypes.CDLL(libraries[0]) if libraries else None
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy has no bundled OpenBLAS with a thread-count getter")
    lib.scipy_openblas_set_num_threads64_(2)
    assert main(["train", "--config", str(write_config(tmp_path)), "--quiet"]) == 0
    assert lib.scipy_openblas_get_num_threads64_() == 1


def test_bench_on_file_data(tmp_path):
    cfg_path = write_config(tmp_path, data=write_file_data(tmp_path)[0])
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 0
    out = tmp_path / "out"
    rows = (out / "bench.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("cross_entropy,msp,uniform_box,")
    # 30 test rows and 40 uniform-box rows in the dump
    dump = (out / "scores_cross_entropy_msp_uniform_box_0.txt").read_text()
    assert dump.count("ID,") == 30 and dump.count("OOD,") == 40


def test_bench_rejects_mismatched_file_widths_before_training(tmp_path, capsys):
    cfg_path = write_config(tmp_path, data=write_file_data(tmp_path, test_dim=5)[0])
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert not list((tmp_path / "out").glob("checkpoint_*"))


@pytest.mark.parametrize("command", ["bench", "train", "calibrate", "sweep-tau"])
def test_file_data_width_is_checked_against_the_first_layer(command, tmp_path, capsys):
    data = write_file_data(tmp_path)[0]
    cfg_path = write_config(tmp_path, data=data, layer_dims=[5, 8, 3])
    assert main([command, "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"config error: {data['train_path']}: 4 features per row, layer_dims[0] is 5\n")
    assert not list((tmp_path / "out").glob("checkpoint_*"))


@pytest.mark.parametrize("command", ["bench", "train", "sweep-tau", "calibrate", "score"])
@pytest.mark.parametrize("layer_dims, test_dim, code", [([5, 8, 3], 4, 1), ([4, 8, 3], 5, 2)],
                         ids=["config_error", "data_error"])
def test_a_run_whose_data_fails_writes_nothing(command, layer_dims, test_dim, code, tmp_path,
                                               capsys):
    # File data whose training set does not fit layer_dims[0], or whose test
    # set is wider than its training set, fails as the first seed's data is
    # realised: before the output directory is made.
    data = write_file_data(tmp_path, test_dim=test_dim)[0]
    cfg_path = write_config(tmp_path, data=data, layer_dims=layer_dims)
    argv = [command, "--config", str(cfg_path), "--quiet"]
    if command == "score":
        checkpoint = tmp_path / "model.txt"
        save_checkpoint(init_model(layer_dims, seed=0), checkpoint)
        argv += ["--checkpoint", str(checkpoint)]
    assert main(argv) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# one divergence rule for every training command


# lr0 = 1e9 without weight decay: cross-entropy diverges at epoch 12, while
# logit-norm, which only sees the logit direction, trains through.
PARTIAL = {"losses": [{"kind": "cross_entropy"}, {"kind": "logit_norm", "params": {"tau": 0.1}}],
           "optim": {"lr0": 1e9, "momentum": 0.9, "weight_decay": 0.0,
                     "epochs": 20, "batch_size": 32, "lr_drops": []}}


def _logit_norm_output(out, command):
    if command == "bench":
        return "logit_norm,msp,uniform_box," in (out / "bench.csv").read_text()
    if command == "train":
        return (out / "checkpoint_logit_norm_0.txt").exists()
    if command == "calibrate":
        return "\nlogit_norm," in (out / "calibration.csv").read_text()
    return (out / "sweep_tau.csv").read_text().count("\n") == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["bench", "train", "calibrate"])
def test_partly_diverged_run_keeps_what_trained(command, tmp_path, capsys):
    cfg_path = write_config(tmp_path, **PARTIAL)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path)]) == 0
    assert _logit_norm_output(out, command)
    warning = "loss=cross_entropy seed=0: diverged (non-finite loss at epoch 12, step 2)\n"
    assert (out / "warnings.txt").read_text() == warning
    assert capsys.readouterr().err == "WARNING: " + warning
    assert main([command, "--config", str(cfg_path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_partly_diverged_sweep_keeps_what_trained(tmp_path, capsys):
    # sweep-tau trains logit-norm only, which survives the config above ...
    cfg_path = write_config(tmp_path, **PARTIAL)
    out = tmp_path / "out"
    assert main(["sweep-tau", "--config", str(cfg_path), "--tau-grid", "0.1"]) == 0
    assert _logit_norm_output(out, "sweep-tau")
    assert not (out / "warnings.txt").exists()
    # ... but not weight decay that grows the weights by ~300x a step: they
    # overflow in the last epoch for a small tau, whose larger logit
    # gradient pushes them further, and stay finite for a large one.
    partial = dict(PARTIAL, optim=dict(PARTIAL["optim"], weight_decay=3e-7))
    cfg_path = write_config(tmp_path, **partial)
    assert main(["sweep-tau", "--config", str(cfg_path), "--tau-grid", "0.01,100"]) == 0
    lines = (out / "sweep_tau.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["100"]
    warning = ("loss=logit_norm tau=0.01 seed=0: diverged "
               "(non-finite epoch-end logits at epoch 19, step 2)\n")
    assert (out / "warnings.txt").read_text() == warning
    assert capsys.readouterr().err == "WARNING: " + warning


def test_train_and_bench_write_the_same_cells(tmp_path):
    cfg_path = write_config(tmp_path, losses=PARTIAL["losses"], seeds=[0, 1])
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--quiet"]) == 0
    trained = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(trained) == sorted(f"{kind}_{loss}_{seed}.{ext}"
                                     for kind, ext in (("checkpoint", "txt"),
                                                       ("telemetry", "csv"))
                                     for loss in ("cross_entropy", "logit_norm")
                                     for seed in (0, 1))
    for p in out.iterdir():
        p.unlink()
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 0
    assert {name: (out / name).read_bytes() for name in trained} == trained


def test_exit_code_tpr_target_out_of_range(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    scores.write_text("ID,0.9\nOOD,0.1\n")
    assert main(["eval", "--scores", str(scores), "--tpr-target", "1.5"]) == 1
    assert capsys.readouterr().err.startswith("config error: tpr_target")
    # The range is checked before the dump is read.
    assert main(["eval", "--scores", str(tmp_path / "missing.txt"),
                 "--tpr-target", "0"]) == 1


def test_exit_code_report_bins_out_of_range(tmp_path, capsys):
    scores = tmp_path / "s.txt"
    scores.write_text("ID,0.9\nOOD,0.1\n")
    hist = tmp_path / "hist.csv"
    assert main(["report", "--scores", str(scores), "--bins", "10000",
                 "--out", str(hist)]) == 0
    assert len(hist.read_text().splitlines()) == 10001
    capsys.readouterr()
    # The range is checked before the dump is read.
    for bins, dump in [("10001", scores), ("1000000000000", scores),
                       ("1000000000000", tmp_path / "missing.txt")]:
        assert main(["report", "--scores", str(dump), "--bins", bins]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: bins must be >= 2 and at most 10000, got {bins}\n"


def test_eval_writes_file(tmp_path):
    scores = tmp_path / "s.txt"
    scores.write_text("ID,0.9\nID,0.8\nOOD,0.1\n")
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--scores", str(scores), "--out", str(out)]) == 0
    assert out.read_text().startswith("name,")


def test_eval_quotes_a_name_that_holds_a_delimiter(tmp_path, monkeypatch):
    # A dump path with a comma and quotes is one cell, quoted as RFC 4180 says, so
    # a CSV reader reads the name and every metric back under its own column.
    monkeypatch.chdir(tmp_path)
    name = 'a,b "c".txt'
    (tmp_path / name).write_text("ID,0.9\nID,0.8\nOOD,0.1\n")
    assert main(["eval", "--scores", name, "--out", "metrics.csv"]) == 0
    text = (tmp_path / "metrics.csv").read_text()
    assert text.splitlines()[1].startswith('"a,b ""c"".txt",')
    with open(tmp_path / "metrics.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == [{"name": name, "fpr_at_95_tpr": "0", "auroc": "1",
                                             "aupr": "1", "n_id": "2", "n_ood": "1"}]


def test_sweep_tau_without_a_validation_split_is_a_config_error(tmp_path, capsys):
    # The tau is chosen on the validation split, never on the test rows bench
    # reports: without one, sweep-tau fails before it trains or writes anything.
    data = {"kind": "blobs", "k": 3, "d": 4, "n_train_per_class": 40, "n_test_per_class": 10,
            "cluster_spread": 0.5, "cluster_radius": 3.0, "val_fraction": 0.0}
    cfg_path = write_config(tmp_path, data=data)
    assert main(["sweep-tau", "--config", str(cfg_path), "--tau-grid", "0.1"]) == 1
    assert capsys.readouterr().err == (
        "config error: sweep_tau requires data.val_fraction > 0\n")
    assert not (tmp_path / "out").exists()
