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

from .data import (OOD_PARAMS, LabeledDataset, corrupt_labels, gen_blobs,
                   gen_ood, load_delimited, split)
from .errors import (AllSeedsDiverged, ConfigError, DataError, DivergedError,
                     kind_params, read_lines)
from .losses import LOGIT_NORM, LossConfig
from .metrics import (CalibrationReport, check_tpr_target, detection_report,
                      ece, fit_temperature, fpr_at_tpr)
from .model import MlpModel, forward, init_model, save_checkpoint
from .optimizer import EpochTelemetry, OptimConfig, train
from .scores import ScoreConfig, dump_records, score_batch, write_scores
from .tensor import Matrix2D, row_l2_norm, rowwise_softmax


# --------------------------------------------------------------------------
# Config dataclasses and typed JSON parsing
# --------------------------------------------------------------------------

# Upper ends for sizes that would otherwise fail only deep into a run.
MAX_ROWS = 1_000_000  # rows of a generated data set, ID or OOD
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
        if self.n_train_per_class < 1 or self.n_test_per_class < 1:
            raise ConfigError("n_train_per_class and n_test_per_class must be >= 1, got "
                              f"{self.n_train_per_class} and {self.n_test_per_class}")
        rows = self.k * (self.n_train_per_class + self.n_test_per_class)
        if self.kind == "blobs" and rows > MAX_ROWS:
            raise ConfigError(f"k * (n_train_per_class + n_test_per_class) must be at most "
                              f"{MAX_ROWS}, got {rows}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.kind == "blobs" and self.val_fraction > 0.0 and self.n_train_per_class < 2:
            # Splitting off a validation set needs two rows of each class.
            raise ConfigError("val_fraction > 0 needs n_train_per_class >= 2, "
                              f"got {self.n_train_per_class}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label_noise must be in [0, 1), got {self.label_noise}")
        # The range OOD_PARAMS gives the scales of the OOD sets.
        for name in ("cluster_spread", "cluster_radius"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1e6:
                raise ConfigError(f"{name} must be in [0, 1e6], got {value}")


@dataclass(frozen=True)
class OodSetConfig:
    kind: str
    m: int = 2000
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", kind_params(OOD_PARAMS, "OOD", self.kind, self.params))
        if not 1 <= self.m <= MAX_ROWS:
            raise ConfigError(f"OOD set {self.kind!r} needs m >= 1 and at most "
                              f"{MAX_ROWS}, got {self.m}")


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
    ood_sets: list[tuple[str, Matrix2D]]
    validation_ood: Matrix2D


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
        train_ds = load_delimited(dc.train_path, k=dc.k or None)
        test_ds = load_delimited(dc.test_path, k=train_ds.k)
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


def trained_cells(cfg: ExperimentConfig, warnings: list[str],
                  losses: Sequence[LossConfig] = (), seeds: Sequence[int] = (), *,
                  every_epoch: bool = True):
    """Make cfg.output_dir and train each (seed, loss) cell, cfg's seeds and losses
    unless given, on the seed's data, realised once, from its init and SGD streams.
    Yield (seed, data, loss config, model, telemetry): a record per epoch probing the
    validation OOD set, or without `every_epoch` the last epoch's alone, unprobed. A
    diverged cell adds a line to `warnings`; after the last cell, _record_warnings runs."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    trained = False
    for seed in seeds or cfg.seeds:
        bundle = realize_data(cfg, seed)
        model0 = init_model(cfg.layer_dims, derive_seed(seed, "init"))
        for loss_cfg in losses or cfg.losses:
            try:
                model, history = train(
                    model0, bundle.train, loss_cfg, cfg.optim, derive_seed(seed, "sgd"),
                    probe_ood=bundle.validation_ood if every_epoch else None,
                    every_epoch=every_epoch)
            except DivergedError as exc:
                tau = f" tau={loss_cfg.params['tau']}" if loss_cfg.kind == LOGIT_NORM else ""
                warnings.append(f"loss={loss_cfg.kind}{tau} seed={seed}: diverged ({exc})")
                continue
            trained = True
            yield seed, bundle, loss_cfg, model, history
    _record_warnings(cfg.output_dir, warnings, trained)


def save_cell(cfg: ExperimentConfig, seed: int, loss_name: str, model: MlpModel,
              history: list[EpochTelemetry]) -> None:
    """Write a trained cell's telemetry and checkpoint under cfg.output_dir."""
    base = f"{loss_name}_{seed}"
    _write(os.path.join(cfg.output_dir, f"telemetry_{base}.csv"),
           csv_table(field_names(EpochTelemetry), history))
    save_checkpoint(model, os.path.join(cfg.output_dir, f"checkpoint_{base}.txt"),
                    config_hash(cfg))


def dump_scores(cfg: ExperimentConfig, model: MlpModel, bundle: SeedData,
                stem: str, seed: int):
    """Score the ID test set once per detector and each OOD set against it;
    write each dump under cfg.output_dir and yield (detector name, OOD tag,
    (ID scores, OOD scores)). A non-finite score raises DataError before
    the dump that would hold it is written."""
    for score_cfg in cfg.scores:
        id_scores = score_batch(model, bundle.test.features, score_cfg)
        id_records = dump_records("ID", id_scores)
        for tag, ood in bundle.ood_sets:
            ood_scores = score_batch(model, ood, score_cfg)
            name = f"scores_{stem}_{score_cfg.kind}_{tag}_{seed}.txt"
            write_scores(os.path.join(cfg.output_dir, name), id_records, ood_scores)
            yield score_cfg.kind, tag, (id_scores, ood_scores)


def _record_warnings(out: str, warnings: list[str], trained: bool) -> None:
    """Write the diverged cells to out/warnings.txt (removing a stale one
    when none diverged); raise AllSeedsDiverged if no cell trained."""
    path = os.path.join(out, "warnings.txt")
    if warnings:
        _write(path, "\n".join(warnings) + "\n")
    elif os.path.exists(path):
        os.remove(path)
    if not trained:
        raise AllSeedsDiverged("; ".join(warnings))


def run_experiment(cfg: ExperimentConfig, quiet: bool = True) -> ExperimentResult:
    """Train / score / evaluate the full loss x score x OOD-set grid over all
    seeds, writing every artifact under cfg.output_dir. Diverged cells are
    recorded and excluded; if every cell diverges, AllSeedsDiverged is raised."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    chash = config_hash(cfg)
    _write(os.path.join(out, "config.json"),
           json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    _write(os.path.join(out, "config.hash"), chash + "\n")

    seed_rows: list[SeedRow] = []
    telemetry: dict[tuple[str, int], list[EpochTelemetry]] = {}
    final_norms: dict[tuple[str, int], dict[str, float]] = {}
    warnings: list[str] = []

    for seed, bundle, loss_cfg, model, history in trained_cells(cfg, warnings):
        lname = loss_cfg.kind
        save_cell(cfg, seed, lname, model, history)
        telemetry[(lname, seed)] = history
        test_logits = forward(model, bundle.test.features)[1]
        id_acc = float((np.argmax(test_logits, axis=1) == bundle.test.labels).mean())
        norms = {"ID": float(row_l2_norm(test_logits).mean())}
        for tag, ood in bundle.ood_sets:
            norms[tag] = float(row_l2_norm(forward(model, ood)[1]).mean())
        final_norms[(lname, seed)] = norms

        for sname, tag, (id_scores, ood_scores) in dump_scores(cfg, model, bundle,
                                                                lname, seed):
            report = detection_report(id_scores, ood_scores, cfg.metrics.tpr_target)
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


def sweep_tau(cfg: ExperimentConfig, tau_grid: Sequence[float]
              ) -> tuple[list[TauSweepRow], float]:
    """Train one logit-norm model per (distinct tau, seed), evaluate MSP FPR95
    against the Gaussian-noise validation OOD set, and select the tau minimizing
    the mean validation FPR95 (ties break to the smaller tau). Writes
    sweep_tau.csv under cfg.output_dir."""
    if not tau_grid:
        raise ConfigError("tau grid must be nonempty")
    taus = sorted(set(tau_grid))
    cells = [LossConfig(LOGIT_NORM, {"tau": tau}) for tau in taus]
    msp = ScoreConfig(kind="msp")
    fprs: dict[float, list[float]] = {tau: [] for tau in taus}
    losses: dict[float, list[float]] = {tau: [] for tau in taus}
    for _, bundle, loss_cfg, model, history in trained_cells(cfg, [], cells,
                                                             every_epoch=False):
        tau = loss_cfg.params["tau"]
        fprs[tau].append(fpr_at_tpr(score_batch(model, bundle.test.features, msp),
                                    score_batch(model, bundle.validation_ood, msp),
                                    cfg.metrics.tpr_target))
        losses[tau].append(history[-1].train_loss)
    rows = [TauSweepRow(tau, float(np.mean(fprs[tau])), float(np.mean(losses[tau])))
            for tau in taus if fprs[tau]]
    best = min(rows, key=lambda r: (r.val_fpr95_mean, r.tau))
    _write(os.path.join(cfg.output_dir, "sweep_tau.csv"), csv_table(
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


def emit_histogram_data(id_scores, ood_scores, bins: int
                        ) -> list[tuple[float, float, int, int]]:
    """Equal-width histogram of finite scores over [min score, max score]; counts conserve."""
    check_bins(bins)
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    values = np.concatenate([id_scores, ood_scores])
    if not values.size:
        raise DataError("empty score dump")
    if not np.isfinite(values).all():
        raise DataError("ID and OOD scores must be finite")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    if math.isfinite(hi - lo):
        edges = np.linspace(lo, hi, bins + 1)
    else:  # the span overflows; halving is exact above the subnormals
        edges = np.linspace(lo / 2, hi / 2, bins + 1) * 2
    id_counts, _ = np.histogram(id_scores, bins=edges)
    ood_counts, _ = np.histogram(ood_scores, bins=edges)
    return [(float(edges[i]), float(edges[i + 1]), int(id_counts[i]), int(ood_counts[i]))
            for i in range(bins)]


@dataclass(frozen=True)
class CalibrationRow:
    loss_name: str
    fitted_T: float
    pre: CalibrationReport
    post: CalibrationReport


def run_calibration(cfg: ExperimentConfig) -> list[CalibrationRow]:
    """Per loss: fit the temperature on held-out validation logits, then
    report test ECE before and after scaling, written to calibration.csv
    under cfg.output_dir. Uses the first seed."""
    if cfg.data.val_fraction <= 0.0:
        raise ConfigError("run_calibration requires data.val_fraction > 0")
    rows = []
    for _, bundle, loss_cfg, model, _ in trained_cells(cfg, [], seeds=cfg.seeds[:1],
                                                       every_epoch=False):
        fitted = fit_temperature(forward(model, bundle.val.features)[1], bundle.val.labels)
        test_logits = forward(model, bundle.test.features)[1]
        correct = np.argmax(test_logits, axis=1) == bundle.test.labels
        conf_pre = rowwise_softmax(test_logits).max(axis=1)
        conf_post = rowwise_softmax(test_logits / fitted).max(axis=1)
        rows.append(CalibrationRow(loss_cfg.kind, fitted,
                                   ece(conf_pre, correct, cfg.metrics.ece_bins),
                                   ece(conf_post, correct, cfg.metrics.ece_bins)))
    _write(os.path.join(cfg.output_dir, "calibration.csv"), csv_table(
        ["loss_name", "fitted_T", "ece_pre_ts", "ece_post_ts"],
        ((r.loss_name, r.fitted_T, r.pre.ece, r.post.ece) for r in rows)))
    return rows
