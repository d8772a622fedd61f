"""Command-line entry point.

Subcommands: train, score, eval, bench, sweep-tau, calibrate, report.
Exit codes: 0 success, 1 config error (an output path that cannot be
written included), 2 data error, 3 every training cell diverged. A
training command (train, bench, sweep-tau, calibrate) skips a diverged cell
and lists it in warnings.txt, and on stderr unless --quiet.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .errors import AllSeedsDiverged, ConfigError, DataError
from .harness import (ExperimentConfig, check_bins, csv_table, dump_scores,
                      emit_histogram_data, field_names, load_config,
                      realize_data, run_calibration, run_experiment, save_cell,
                      sweep_tau, trained_cells)
from .metrics import DetectionReport, check_tpr_target, detection_report
from .model import load_checkpoint
from .scores import read_scores
from .tensor import use_one_blas_thread


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed list")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--quiet", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(prog="logitbench",
                                     description="OOD-detection training and scoring workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [
        ("train", "train one model per configured loss, write checkpoints and telemetry"),
        ("score", "score ID test and OOD panel with a trained checkpoint"),
        ("bench", "run the full loss x score x OOD benchmark grid"),
        ("sweep-tau", "train per tau and select the best against Gaussian-noise validation"),
        ("calibrate", "fit temperature scaling and report pre/post ECE"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "score":
            p.add_argument("--checkpoint", required=True)
        if name == "sweep-tau":
            p.add_argument("--tau-grid", default="0.001,0.005,0.01,0.05,0.5,1,2",
                           help="comma-separated tau values")

    p = sub.add_parser("eval", help="compute detection metrics from a score dump")
    p.add_argument("--scores", required=True, help="path to a score dump file")
    p.add_argument("--tpr-target", type=float, default=0.95)
    p.add_argument("--out", default=None, help="write metrics CSV here (default stdout)")

    p = sub.add_parser("report", help="emit histogram data from a score dump")
    p.add_argument("--scores", required=True)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", default=None, help="write histogram CSV here (default stdout)")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _echo_warnings(args, cfg) -> int:
    """Print the run's warnings.txt to stderr unless --quiet; exit code 0."""
    path = os.path.join(cfg.output_dir, "warnings.txt")
    if not args.quiet and os.path.exists(path):
        with open(path) as fh:
            sys.stderr.write("".join(f"WARNING: {line}" for line in fh))
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    for seed, _, loss_cfg, model, history in trained_cells(cfg, []):
        save_cell(cfg, seed, loss_cfg.kind, model, history)
        if not args.quiet:
            print(f"trained {loss_cfg.kind}_{seed}: final acc {history[-1].train_acc:.4f}")
    return _echo_warnings(args, cfg)


def _cmd_score(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.output_dir, exist_ok=True)
    model, _ = load_checkpoint(args.checkpoint)
    stem = os.path.splitext(os.path.basename(args.checkpoint))[0]
    for seed in cfg.seeds:
        bundle = realize_data(cfg, seed)
        for sname, tag, _ in dump_scores(cfg, model, bundle, stem, seed):
            if not args.quiet:
                print(f"wrote scores_{stem}_{sname}_{tag}_{seed}.txt")
    return 0


def _emit(path, text: str) -> int:
    """Write text to path, or to stdout without one; exit code 0."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_eval(args) -> int:
    check_tpr_target(args.tpr_target, ConfigError)
    report = detection_report(*read_scores(args.scores), args.tpr_target)
    return _emit(args.out, csv_table(["name", *field_names(DetectionReport)],
                                     [(args.scores, *dataclasses.astuple(report))]))


def _cmd_bench(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, quiet=args.quiet)
    if not args.quiet:
        print(f"wrote {len(result.rows)} benchmark rows to {cfg.output_dir}/bench.csv")
    return _echo_warnings(args, cfg)


def _cmd_sweep_tau(args) -> int:
    cfg = _load(args)
    try:
        grid = [float(t) for t in args.tau_grid.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--tau-grid: {exc}") from None
    rows, selected = sweep_tau(cfg, grid)
    if not args.quiet:
        for r in rows:
            print(f"tau={r.tau:g} val_fpr95={r.val_fpr95_mean:.4f}")
        print(f"selected tau={selected:g}")
    return _echo_warnings(args, cfg)


def _cmd_calibrate(args) -> int:
    cfg = _load(args)
    rows = run_calibration(cfg)
    if not args.quiet:
        for r in rows:
            print(f"{r.loss_name}: T={r.fitted_T:.4f} "
                  f"ECE {r.pre.ece:.4f} -> {r.post.ece:.4f}")
    return _echo_warnings(args, cfg)


def _cmd_report(args) -> int:
    check_bins(args.bins)
    return _emit(args.out, csv_table(["bin_left", "bin_right", "id_count", "ood_count"],
                                     emit_histogram_data(*read_scores(args.scores), args.bins)))


COMMANDS = {
    "train": _cmd_train,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "sweep-tau": _cmd_sweep_tau,
    "calibrate": _cmd_calibrate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    use_one_blas_thread()
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except AllSeedsDiverged as exc:
        print(f"all seeds diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every read maps its OSError to a ConfigError or DataError
        # A buffered write that fails on close names no file.
        print(f"config error: cannot write {exc.filename or 'output'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
