"""Command-line entry point.

Subcommands: train, score, eval, bench, sweep-tau, calibrate, report.
Exit codes: 0 success, 1 config error, 2 data error, 3 divergence (every
seed for bench and sweep-tau, any run for train and calibrate).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness
from .errors import AllSeedsDiverged, ConfigError, DataError, DivergedError
from .harness import (_scored, config_hash, derive_seed, emit_histogram_data,
                      histogram_csv, load_config, realize_data, run_calibration,
                      run_experiment, sweep_tau)
from .metrics import check_tpr_target, detection_report, detection_report_csv
from .model import forward, init_model, load_checkpoint, save_checkpoint
from .optimizer import telemetry_csv, train
from .scores import read_scores, score_batch, write_scores


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed list")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
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


def _load(args) -> harness.ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _cmd_train(args) -> int:
    cfg = _load(args)
    import os
    os.makedirs(cfg.output_dir, exist_ok=True)
    chash = config_hash(cfg)
    for seed in cfg.seeds:
        bundle = realize_data(cfg, seed)
        for loss_cfg in cfg.losses:
            model0 = init_model(cfg.layer_dims, derive_seed(seed, "init"))
            optim = dataclasses.replace(cfg.optim, seed=derive_seed(seed, "sgd"))
            model, history = train(model0, bundle.train, loss_cfg, optim,
                                   probe_ood=bundle.validation_ood)
            base = f"{loss_cfg.name}_{seed}"
            save_checkpoint(model, f"{cfg.output_dir}/checkpoint_{base}.txt", chash)
            with open(f"{cfg.output_dir}/telemetry_{base}.csv", "w") as fh:
                fh.write(telemetry_csv(history))
            if not args.quiet:
                print(f"trained {base}: final acc {history[-1].train_acc:.4f}")
    return 0


def _cmd_score(args) -> int:
    cfg = _load(args)
    import os
    os.makedirs(cfg.output_dir, exist_ok=True)
    model, _ = load_checkpoint(args.checkpoint)
    stem = os.path.splitext(os.path.basename(args.checkpoint))[0]
    for seed in cfg.seeds:
        bundle = realize_data(cfg, seed)
        for score_cfg in cfg.scores:
            id_scores = score_batch(model, bundle.test.features, score_cfg)
            for tag, ood_ds in bundle.ood_sets:
                ood_scores = score_batch(model, ood_ds.features, score_cfg)
                path = f"{cfg.output_dir}/scores_{stem}_{score_cfg.name}_{tag}_{seed}.txt"
                write_scores(path, _scored(id_scores, ood_scores))
                if not args.quiet:
                    print(f"wrote {path}")
    return 0


def _cmd_eval(args) -> int:
    check_tpr_target(args.tpr_target, ConfigError)
    scored = read_scores(args.scores)
    report = detection_report(scored, args.tpr_target)
    text = detection_report_csv({args.scores: report})
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, quiet=args.quiet)
    if not args.quiet:
        print(f"wrote {len(result.rows)} benchmark rows to {cfg.output_dir}/bench.csv")
        for w in result.warnings:
            print(f"WARNING: {w}", file=sys.stderr)
    return 0


def _cmd_sweep_tau(args) -> int:
    cfg = _load(args)
    grid = [float(t) for t in args.tau_grid.split(",")]
    rows, selected = sweep_tau(cfg, grid, out_dir=cfg.output_dir)
    if not args.quiet:
        for r in rows:
            print(f"tau={r.tau:g} val_fpr95={r.val_fpr95_mean:.4f}")
        print(f"selected tau={selected:g}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load(args)
    rows = run_calibration(cfg, out_dir=cfg.output_dir)
    if not args.quiet:
        for r in rows:
            print(f"{r.loss_name}: T={r.fitted_T:.4f} "
                  f"ECE {r.pre.ece:.4f} -> {r.post.ece:.4f}")
    return 0


def _cmd_report(args) -> int:
    scored = read_scores(args.scores)
    text = histogram_csv(emit_histogram_data(scored, args.bins))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    except DivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
