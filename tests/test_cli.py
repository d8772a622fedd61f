"""Command-line interface tests exercising every subcommand and exit code."""

import json

import pytest

from logitbench.cli import build_parser, main

from conftest import write_file_data


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


def test_bench_subcommand(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 0
    assert (tmp_path / "out" / "bench.csv").exists()


def test_bench_out_override(tmp_path):
    cfg_path = write_config(tmp_path)
    alt = tmp_path / "elsewhere"
    assert main(["bench", "--config", str(cfg_path), "--quiet",
                 "--out", str(alt)]) == 0
    assert (alt / "bench.csv").exists()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_exit_code_diverged_run(command, tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        optim={"lr0": 1e9, "momentum": 0.9, "weight_decay": 0.1,
               "epochs": 20, "batch_size": 32, "lr_drops": []})
    assert main([command, "--config", str(cfg_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("all seeds diverged: loss=cross_entropy seed=0: diverged "
                          "(non-finite loss at epoch ")
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
    cfg_path = write_config(tmp_path, losses=[{"kind": "logit_norm", "tau": 0.04},
                                              {"kind": "logit_norm", "tau": 0.5}])
    assert main(["bench", "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: losses kinds must be distinct")
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
], ids=["tau grid", "missing config", "non-utf8 config", "missing dump", "non-utf8 dump",
        "missing checkpoint", "non-utf8 checkpoint", "missing data file",
        "non-utf8 data file", "checkpoint width"])
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


# ---------------------------------------------------------------------------
# one divergence rule for every training command


# lr0 = 1e9 without weight decay: cross-entropy diverges at epoch 12, while
# logit-norm, which only sees the logit direction, trains through.
PARTIAL = {"losses": [{"kind": "cross_entropy"}, {"kind": "logit_norm", "tau": 0.1}],
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
    warning = "loss=logit_norm tau=0.01 seed=0: diverged (non-finite loss at epoch 19, step 2)\n"
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


def test_eval_writes_file(tmp_path):
    scores = tmp_path / "s.txt"
    scores.write_text("ID,0.9\nID,0.8\nOOD,0.1\n")
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--scores", str(scores), "--out", str(out)]) == 0
    assert out.read_text().startswith("name,")
