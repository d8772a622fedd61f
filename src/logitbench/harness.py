"""Experiment orchestration: declarative JSON configs, the loss x score x
OOD-set benchmark grid, the tau sweep with a Gaussian-noise validation set,
calibration runs, and deterministic CSV emission.

Every run is a pure function of (config, seed): derived RNG seeds are
hashed from (seed, purpose-tag), row ordering is canonical, and floats are
printed with 17 significant digits, so repeated runs are byte identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .data import (OOD_PARAMS, LabeledDataset, OodDataset, corrupt_labels,
                   gen_blobs, gen_ood, load_delimited, split)
from .errors import (AllSeedsDiverged, ConfigError, DataError, DivergedError,
                     kind_params, read_lines)
from .losses import LOGIT_NORM, LossConfig
from .metrics import (CalibrationReport, check_tpr_target, detection_report,
                      ece, fit_temperature)
from .model import MlpModel, forward, init_model, save_checkpoint
from .optimizer import EpochTelemetry, OptimConfig, train
from .scores import ScoreConfig, ScoredExample, score_batch, write_scores
from .tensor import row_l2_norm, rowwise_softmax


# --------------------------------------------------------------------------
# Config dataclasses and typed JSON parsing
# --------------------------------------------------------------------------

# Upper ends for sizes that would otherwise fail only deep into a run.
MAX_OOD_ROWS = 1_000_000
MAX_BINS = 10_000  # ECE bins and report histogram bins


@dataclass(frozen=True)
class DataConfig:
    kind: str = "blobs"
    k: int = 10
    d: int = 16
    n_train_per_class: int = 500
    n_test_per_class: int = 200
    cluster_spread: float = 1.0
    cluster_radius: float = 3.0
    label_noise: float = 0.0
    val_fraction: float = 0.0
    train_path: str = ""
    test_path: str = ""

    def __post_init__(self):
        if self.kind not in ("blobs", "file"):
            raise ConfigError(f"unknown data kind {self.kind!r}")
        if self.kind == "blobs" and (self.k < 2 or self.d < 2):
            raise ConfigError(f"need k >= 2 and d >= 2, got k={self.k}, d={self.d}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label_noise must be in [0, 1), got {self.label_noise}")


@dataclass(frozen=True)
class OodSetConfig:
    kind: str
    m: int = 2000
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", kind_params(OOD_PARAMS, "OOD", self.kind, self.params))
        if not 1 <= self.m <= MAX_OOD_ROWS:
            raise ConfigError(f"OOD set {self.kind!r} needs m >= 1 and at most "
                              f"{MAX_OOD_ROWS}, got {self.m}")


@dataclass(frozen=True)
class MetricsConfig:
    tpr_target: float = 0.95
    ece_bins: int = 15

    def __post_init__(self):
        check_tpr_target(self.tpr_target, ConfigError)
        if not 1 <= self.ece_bins <= MAX_BINS:
            raise ConfigError(f"ece_bins must be >= 1 and at most {MAX_BINS}, "
                              f"got {self.ece_bins}")


@dataclass(frozen=True)
class ExperimentConfig:
    layer_dims: tuple[int, ...]
    seeds: tuple[int, ...]
    data: DataConfig = DataConfig()
    losses: tuple[LossConfig, ...] = (LossConfig(),)
    optim: OptimConfig = OptimConfig()
    scores: tuple[ScoreConfig, ...] = (ScoreConfig(),)
    ood_panel: tuple[OodSetConfig, ...] = ()
    validation_ood: OodSetConfig = field(default_factory=lambda: OodSetConfig(
        "gaussian_noise", params={"std": 1.0}))
    metrics: MetricsConfig = MetricsConfig()
    output_dir: str = "out"

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(self.layer_dims) < 2 or min(self.layer_dims) < 1:
            raise ConfigError("layer_dims must be at least two positive sizes, "
                              f"got {list(self.layer_dims)}")
        if self.data.kind == "blobs":
            if self.layer_dims[0] != self.data.d or self.layer_dims[-1] != self.data.k:
                raise ConfigError(
                    f"layer_dims {self.layer_dims} inconsistent with data "
                    f"(d={self.data.d}, k={self.data.k})")
        # Output files and bench.csv rows are keyed by kind on every axis.
        for axis in ("losses", "scores", "ood_panel"):
            kinds = [c.kind for c in getattr(self, axis)]
            if len(set(kinds)) != len(kinds):
                raise ConfigError(f"{axis} kinds must be distinct, got {kinds}")


def _typed(tp, value, path: str):
    """Read the JSON value at key path `path` as type `tp`: a config
    dataclass (an object with every required key and no unknown one, read
    field by field from its annotations), a tuple (a list), a dict of
    numbers, int (not a bool), float (any finite number) or str. Anything
    else, and any check the dataclass makes, is a ConfigError naming path."""
    def reject(expected):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")

    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            reject("object")
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = set(value) - set(fields)
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        missing = [name for name, f in fields.items() if name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{path}: missing keys {sorted(missing)}")
        hints = get_type_hints(tp)
        kwargs = {key: _typed(hints[key], v, f"{path}.{key}") for key, v in value.items()}
        try:
            return tp(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, list) or not (variadic or len(value) == len(args)):
            reject("list" if variadic else f"list of {len(args)}")
        types = args[:1] * len(value) if variadic else args
        return tuple(_typed(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(types, value)))
    if origin is dict:
        if not isinstance(value, dict):
            reject("object")
        return {key: _typed(args[1], v, f"{path}.{key}") for key, v in value.items()}
    if tp is float:
        try:
            finite = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            reject("float")
    elif type(value) is not tp:  # int or str; rejects a bool for an int
        reject(tp.__name__)
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _typed(ExperimentConfig, raw, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def load_config(path) -> ExperimentConfig:
    text = "".join(read_lines(path, ConfigError))
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    """A digest of the config without output_dir, which changes no result."""
    raw = config_to_dict(cfg)
    del raw["output_dir"]
    canonical = json.dumps(raw, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Deterministic seed derivation and dataset realization
# --------------------------------------------------------------------------

def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class SeedData:
    train: LabeledDataset
    test: LabeledDataset
    val: Optional[LabeledDataset]
    ood_sets: list[tuple[str, OodDataset]]
    validation_ood: OodDataset


def realize_data(cfg: ExperimentConfig, seed: int) -> SeedData:
    dc = cfg.data
    if dc.kind == "blobs":
        n_total = dc.n_train_per_class + dc.n_test_per_class
        full = gen_blobs(dc.k, dc.d, n_total, dc.cluster_spread,
                         dc.cluster_radius, derive_seed(seed, "data"))
        f_train = dc.n_train_per_class / n_total
        train_ds, test_ds = split(full, (f_train, 1.0 - f_train),
                                  derive_seed(seed, "split"))
    else:
        train_ds = load_delimited(dc.train_path, has_label=True, k=dc.k or None)
        test_ds = load_delimited(dc.test_path, has_label=True, k=train_ds.k)
        if test_ds.dim != train_ds.dim:
            raise DataError(f"{dc.test_path}: {test_ds.dim} features per row, "
                            f"{dc.train_path} has {train_ds.dim}")
    val_ds = None
    if dc.val_fraction > 0.0:
        train_ds, val_ds = split(train_ds, (1.0 - dc.val_fraction, dc.val_fraction),
                                 derive_seed(seed, "valsplit"))
    if dc.label_noise > 0.0:
        train_ds = corrupt_labels(train_ds, dc.label_noise,
                                  derive_seed(seed, "labelnoise"))
    d = train_ds.dim
    ood_sets = [(oc.kind, gen_ood(oc.kind, d, oc.m, oc.params,
                                 derive_seed(seed, f"ood:{i}:{oc.kind}")))
                for i, oc in enumerate(cfg.ood_panel)]
    voc = cfg.validation_ood
    validation_ood = gen_ood(voc.kind, d, voc.m, voc.params,
                             derive_seed(seed, "validation_ood"))
    return SeedData(train_ds, test_ds, val_ds, ood_sets, validation_ood)


# --------------------------------------------------------------------------
# Benchmark grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedRow:
    loss_name: str
    score_name: str
    ood_dataset_tag: str
    seed: int
    fpr95: float
    auroc: float
    aupr: float
    id_accuracy: float


@dataclass(frozen=True)
class BenchmarkRow:
    loss_name: str
    score_name: str
    ood_dataset_tag: str
    fpr95_mean: float
    fpr95_std: float
    auroc_mean: float
    auroc_std: float
    aupr_mean: float
    aupr_std: float
    id_accuracy_mean: float
    id_accuracy_std: float
    seeds_used: tuple[int, ...]


@dataclass
class ExperimentResult:
    rows: list[BenchmarkRow]
    seed_rows: list[SeedRow]
    telemetry: dict[tuple[str, int], list[EpochTelemetry]]
    final_norms: dict[tuple[str, int], dict[str, float]]
    warnings: list[str]
    hash: str


def _examples(scores: np.ndarray, origin: str) -> list[ScoredExample]:
    return [ScoredExample(float(s), origin) for s in scores]


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ";".join(map(_cell, value))
    return "" if value is None else str(value)


def field_names(row_type) -> list[str]:
    return [f.name for f in dataclasses.fields(row_type)]


def csv_table(columns: Sequence[str], rows) -> str:
    """CSV text: a header of columns, then one line per row, a sequence of
    cells or a dataclass instance (its field values in order). Every cell
    follows one rule: a float has 17 significant digits, so it reads back
    exactly; None is empty; a tuple is joined with ';'; anything else is str."""
    lines = [",".join(columns)]
    for row in rows:
        cells = dataclasses.astuple(row) if dataclasses.is_dataclass(row) else row
        lines.append(",".join(map(_cell, cells)))
    return "\n".join(lines) + "\n"


def train_cell(cfg: ExperimentConfig, bundle: SeedData, seed: int,
               loss_cfg: LossConfig, warnings: list[str],
               probe_ood: Optional[OodDataset] = None, *, every_epoch: bool = True
               ) -> Optional[tuple[MlpModel, list[EpochTelemetry]]]:
    """Train one (loss, seed) cell from the seed's init and SGD streams.
    Returns (model, telemetry), or None after a warning if it diverged.
    Without `every_epoch` the telemetry is the last epoch's record only."""
    model0 = init_model(cfg.layer_dims, derive_seed(seed, "init"))
    try:
        return train(model0, bundle.train, loss_cfg, cfg.optim,
                     derive_seed(seed, "sgd"), probe_ood=probe_ood,
                     every_epoch=every_epoch)
    except DivergedError as exc:
        tau = f" tau={loss_cfg.params['tau']}" if loss_cfg.kind == LOGIT_NORM else ""
        warnings.append(f"loss={loss_cfg.kind}{tau} seed={seed}: diverged ({exc})")
        return None


def trained_cells(cfg: ExperimentConfig, out: str, warnings: list[str]):
    """Train every (seed, loss) cell, write its telemetry and checkpoint
    under out and yield (seed, data, loss name, model, telemetry). Diverged
    cells are skipped and, after the last cell, recorded (_record_warnings)."""
    chash = config_hash(cfg)
    trained = False
    for seed in cfg.seeds:
        bundle = realize_data(cfg, seed)
        for loss_cfg in cfg.losses:
            cell = train_cell(cfg, bundle, seed, loss_cfg, warnings,
                              probe_ood=bundle.validation_ood)
            if cell is None:
                continue
            model, history = cell
            base = f"{loss_cfg.kind}_{seed}"
            _write(os.path.join(out, f"telemetry_{base}.csv"),
                   csv_table(field_names(EpochTelemetry), history))
            save_checkpoint(model, os.path.join(out, f"checkpoint_{base}.txt"), chash)
            trained = True
            yield seed, bundle, loss_cfg.kind, model, history
    _record_warnings(out, warnings, trained)


def dump_scores(cfg: ExperimentConfig, model: MlpModel, bundle: SeedData,
                out: str, stem: str, seed: int):
    """Score the ID test set once per detector and each OOD set against it;
    write each dump under out and yield (detector name, OOD tag, scored)."""
    for score_cfg in cfg.scores:
        id_part = _examples(score_batch(model, bundle.test.features, score_cfg), "ID")
        for tag, ood_ds in bundle.ood_sets:
            scored = id_part + _examples(score_batch(model, ood_ds.features, score_cfg), "OOD")
            write_scores(os.path.join(
                out, f"scores_{stem}_{score_cfg.kind}_{tag}_{seed}.txt"), scored)
            yield score_cfg.kind, tag, scored


def _record_warnings(out: Optional[str], warnings: list[str], trained: bool) -> None:
    """Write the diverged cells to out/warnings.txt (removing a stale one
    when none diverged); raise AllSeedsDiverged if no cell trained."""
    if out is not None:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "warnings.txt")
        if warnings:
            _write(path, "\n".join(warnings) + "\n")
        elif os.path.exists(path):
            os.remove(path)
    if not trained:
        raise AllSeedsDiverged("; ".join(warnings))


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   quiet: bool = True) -> ExperimentResult:
    """Train / score / evaluate the full loss x score x OOD-set grid over all
    seeds, writing every artifact under out_dir. Diverged cells are recorded
    and excluded; if every cell diverges, AllSeedsDiverged is raised."""
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    chash = config_hash(cfg)
    _write(os.path.join(out, "config.json"),
           json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    _write(os.path.join(out, "config.hash"), chash + "\n")

    seed_rows: list[SeedRow] = []
    telemetry: dict[tuple[str, int], list[EpochTelemetry]] = {}
    final_norms: dict[tuple[str, int], dict[str, float]] = {}
    warnings: list[str] = []

    for seed, bundle, lname, model, history in trained_cells(cfg, out, warnings):
        telemetry[(lname, seed)] = history
        test_logits = forward(model, bundle.test.features)
        id_acc = float((np.argmax(test_logits.data, axis=1) == bundle.test.labels).mean())
        norms = {"ID": float(row_l2_norm(test_logits).mean())}
        for tag, ood_ds in bundle.ood_sets:
            norms[tag] = float(row_l2_norm(forward(model, ood_ds.features)).mean())
        final_norms[(lname, seed)] = norms

        for sname, tag, scored in dump_scores(cfg, model, bundle, out, lname, seed):
            report = detection_report(scored, cfg.metrics.tpr_target)
            seed_rows.append(SeedRow(lname, sname, tag, seed, report.fpr_at_95_tpr,
                                     report.auroc, report.aupr, id_acc))
        if not quiet:
            print(f"[seed {seed}] {lname} done")

    rows = aggregate_rows(cfg, seed_rows)
    _write(os.path.join(out, "bench.csv"), csv_table(field_names(BenchmarkRow), rows))
    _write(os.path.join(out, "bench_per_seed.csv"),
           csv_table(field_names(SeedRow), seed_rows))
    return ExperimentResult(rows, seed_rows, telemetry, final_norms, warnings, chash)


def aggregate_rows(cfg: ExperimentConfig, seed_rows: list[SeedRow]) -> list[BenchmarkRow]:
    rows = []
    for loss_cfg, score_cfg, ood_cfg in itertools.product(cfg.losses, cfg.scores,
                                                          cfg.ood_panel):
        group = [r for r in seed_rows
                 if r.loss_name == loss_cfg.kind
                 and r.score_name == score_cfg.kind
                 and r.ood_dataset_tag == ood_cfg.kind]
        if not group:
            continue
        stats = []
        for attr in ("fpr95", "auroc", "aupr", "id_accuracy"):
            vals = np.array([getattr(r, attr) for r in group])
            stats += [float(vals.mean()), float(vals.std())]
        rows.append(BenchmarkRow(loss_cfg.kind, score_cfg.kind, ood_cfg.kind, *stats,
                                 tuple(sorted(r.seed for r in group))))
    return rows


# --------------------------------------------------------------------------
# Tau sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSweepRow:
    tau: float
    val_fpr95_mean: float
    final_train_loss_mean: float


def sweep_tau(cfg: ExperimentConfig, tau_grid: Sequence[float],
              out_dir: Optional[str] = None) -> tuple[list[TauSweepRow], float]:
    """Train one logit-norm model per (tau, seed), evaluate MSP FPR95 against
    the Gaussian-noise validation OOD set, and select the tau minimizing the
    mean validation FPR95 (ties break to the smaller tau)."""
    if not tau_grid:
        raise ConfigError("tau grid must be nonempty")
    cells = {tau: LossConfig(LOGIT_NORM, {"tau": tau}) for tau in tau_grid}
    msp = ScoreConfig(kind="msp")
    taus = sorted(cells)
    fprs: dict[float, list[float]] = {tau: [] for tau in taus}
    losses: dict[float, list[float]] = {tau: [] for tau in taus}
    warnings: list[str] = []
    for seed in cfg.seeds:
        bundle = realize_data(cfg, seed)
        for tau in taus:
            cell = train_cell(cfg, bundle, seed, cells[tau], warnings, every_epoch=False)
            if cell is None:
                continue
            model, history = cell
            scored = (_examples(score_batch(model, bundle.test.features, msp), "ID")
                      + _examples(score_batch(model, bundle.validation_ood.features, msp), "OOD"))
            fprs[tau].append(detection_report(scored, cfg.metrics.tpr_target).fpr_at_95_tpr)
            losses[tau].append(history[-1].train_loss)
    rows = [TauSweepRow(tau, float(np.mean(fprs[tau])), float(np.mean(losses[tau])))
            for tau in taus if fprs[tau]]
    _record_warnings(out_dir, warnings, bool(rows))
    best = min(rows, key=lambda r: (r.val_fpr95_mean, r.tau))
    if out_dir is not None:
        _write(os.path.join(out_dir, "sweep_tau.csv"), csv_table(
            [*field_names(TauSweepRow), "selected"],
            ((*dataclasses.astuple(r), int(r.tau == best.tau)) for r in rows)))
    return rows, best.tau


# --------------------------------------------------------------------------
# Histogram and calibration reports
# --------------------------------------------------------------------------

def check_bins(bins: int) -> None:
    """Raise ConfigError unless a histogram's bin count lies in [2, MAX_BINS]."""
    if not 2 <= bins <= MAX_BINS:
        raise ConfigError(f"bins must be >= 2 and at most {MAX_BINS}, got {bins}")


def emit_histogram_data(scored: Sequence[ScoredExample], bins: int
                        ) -> list[tuple[float, float, int, int]]:
    """Equal-width histogram over [min score, max score]; counts conserve."""
    check_bins(bins)
    if not scored:
        raise DataError("empty score dump")
    values = np.array([ex.score for ex in scored])
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    id_vals = np.array([ex.score for ex in scored if ex.origin == "ID"])
    ood_vals = np.array([ex.score for ex in scored if ex.origin == "OOD"])
    id_counts, _ = np.histogram(id_vals, bins=edges)
    ood_counts, _ = np.histogram(ood_vals, bins=edges)
    return [(float(edges[i]), float(edges[i + 1]), int(id_counts[i]), int(ood_counts[i]))
            for i in range(bins)]


@dataclass(frozen=True)
class CalibrationRow:
    loss_name: str
    fitted_T: float
    pre: CalibrationReport
    post: CalibrationReport


def run_calibration(cfg: ExperimentConfig, out_dir: Optional[str] = None
                    ) -> list[CalibrationRow]:
    """Per loss: fit the temperature on held-out validation logits, then
    report test ECE before and after scaling. Uses the first seed."""
    if cfg.data.val_fraction <= 0.0:
        raise ConfigError("run_calibration requires data.val_fraction > 0")
    seed = cfg.seeds[0]
    bundle = realize_data(cfg, seed)
    assert bundle.val is not None
    rows = []
    warnings: list[str] = []
    for loss_cfg in cfg.losses:
        cell = train_cell(cfg, bundle, seed, loss_cfg, warnings, every_epoch=False)
        if cell is None:
            continue
        model, _ = cell
        val_logits = forward(model, bundle.val.features)
        fitted = fit_temperature(val_logits.data, bundle.val.labels)
        test_logits = forward(model, bundle.test.features).data
        correct = np.argmax(test_logits, axis=1) == bundle.test.labels
        conf_pre = rowwise_softmax(test_logits).max(axis=1)
        conf_post = rowwise_softmax(test_logits / fitted).max(axis=1)
        pre = ece(conf_pre, correct, cfg.metrics.ece_bins)
        post = dataclasses.replace(ece(conf_post, correct, cfg.metrics.ece_bins),
                                   fitted_T=fitted)
        rows.append(CalibrationRow(loss_cfg.kind, fitted, pre, post))
    _record_warnings(out_dir, warnings, bool(rows))
    if out_dir is not None:
        _write(os.path.join(out_dir, "calibration.csv"), csv_table(
            ["loss_name", "fitted_T", "ece_pre_ts", "ece_post_ts"],
            ((r.loss_name, r.fitted_T, r.pre.ece, r.post.ece) for r in rows)))
    return rows
