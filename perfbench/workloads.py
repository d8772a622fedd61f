"""The benchmark's workloads.

Each workload writes its inputs into a private work directory, names the
`logitbench.cli.main` calls of one pass, and checks what one pass wrote.
An operation is one output row (`grid_short`, `calibrate_full`) or one CLI
call (`dump_eval`); it fails on a nonzero exit code, an exception, a
missing row or a value that does not match its reference.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

import dumps
import oracle

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# The program's metrics against the benchmark's oracle on the same dump:
# both are exact up to summation order.
ORACLE_TOL = 1e-9
# Output values against the values recorded from the seed code.  Raising
# every first-layer initial weight by one ulp moved every checked value by
# less than 1e-15 (relative for score sums), after 720 steps and after 7,200,
# so last-bit differences in the arithmetic pass with room to spare.  A
# score tie that breaks moves AUROC by 1/(2000*2000) per pair.  A changed
# loss or detector moves these values by far more than either tolerance.
REFERENCE_ABS_TOL = 1e-6
CHECKSUM_REL_TOL = 1e-8

CONFIG = Path("configs") / "desk.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def config_seed(seed: int, recorded: dict, pool: list[int]) -> int:
    """The config seed a benchmark seed selects: a recorded seed runs as
    itself (this is how a held-out seed is run); any other seed picks one of
    the pool seeds, so every run has reference values."""
    if str(seed) in recorded:
        return seed
    return pool[seed % len(pool)]


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mismatch(label: str, got: float, want: float, *, abs_tol: float = 0.0,
              rel_tol: float = 0.0) -> Optional[str]:
    if math.isclose(got, want, abs_tol=abs_tol, rel_tol=rel_tol):
        return None
    return f"{label}: {got!r} != {want!r}"


class Workload:
    """One named workload bound to a seed and a work directory."""

    name = ""
    config_seed: Optional[int] = None
    # Spans that must fire on a traced pass while their function exists.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def prepare(self) -> None:
        """Write the inputs; the program sees only these files."""

    def ops(self) -> list[list[str]]:
        """argv of each `cli.main` call in one pass."""
        raise NotImplementedError

    def check(self, errors: list[Optional[str]]) -> tuple[int, list[str]]:
        """(operations attempted, one message per failed operation) for the
        pass whose per-call errors are given and whose outputs are in
        `self.out`."""
        raise NotImplementedError


class _ConfigWorkload(Workload):
    """A workload that runs one subcommand on a variant of the desk config."""

    command = ""
    epochs: Optional[int] = None

    def __init__(self, root: Path, work: Path, seed: int, reference: Optional[dict] = None):
        super().__init__(root, work, seed)
        if reference is None:
            reference = load_reference()
        self.recorded = reference[self.name]
        self.config_seed = config_seed(seed, self.recorded, reference["pool"])
        self.config_path = work / "config.json"

    def prepare(self) -> None:
        raw = json.loads((self.root / CONFIG).read_text())
        raw["seeds"] = [self.config_seed]
        raw["output_dir"] = str(self.out)
        if self.epochs is not None:
            optim = raw["optim"]
            full = optim["epochs"]
            optim["epochs"] = self.epochs
            optim["lr_drops"] = [[e * self.epochs // full, f] for e, f in optim["lr_drops"]]
        self.raw = raw
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(raw, indent=2))

    def ops(self) -> list[list[str]]:
        return [[self.command, "--config", str(self.config_path), "--quiet"]]

    def expected(self) -> dict:
        return self.recorded[str(self.config_seed)]

    def extract(self) -> dict:
        """The checked values of one pass's outputs, shaped as recorded."""
        raise NotImplementedError


class GridShort(_ConfigWorkload):
    name = "grid_short"
    command = "bench"
    epochs = 20
    expected_spans = ("cli.main", "harness.run_experiment", "data.realize_data",
                      "optimizer.train", "model.forward", "model.forward_traced",
                      "losses.apply_loss", "tensor.backward", "model.save_checkpoint",
                      "scores.score_batch", "scores.write_scores",
                      "metrics.detection_report", "tensor.matrix2d_new",
                      "scores.scored_examples")

    def keys(self) -> list[str]:
        return [f"{loss['kind']}/{score['kind']}/{ood['kind']}"
                for loss in self.raw["losses"] for score in self.raw["scores"]
                for ood in self.raw["ood_panel"]]

    def dump_path(self, key: str) -> Path:
        loss, score, tag = key.split("/")
        return self.out / f"scores_{loss}_{score}_{tag}_{self.config_seed}.txt"

    def extract(self) -> dict:
        rows = {}
        for r in _read_csv(self.out / "bench_per_seed.csv"):
            key = f"{r['loss_name']}/{r['score_name']}/{r['ood_dataset_tag']}"
            rows[key] = [float(r["fpr95"]), float(r["auroc"]), float(r["aupr"]),
                         float(r["id_accuracy"])]
        checksums = {}
        for key in self.keys():
            path = self.dump_path(key)
            if path.exists():
                ids, ood = dumps.read(path)
                both = np.concatenate([ids, ood])
                checksums[key] = [ids.size, ood.size, math.fsum(both),
                                  math.fsum(both * both)]
        return {"rows": rows, "dumps": checksums}

    def check(self, errors):
        keys = self.keys()
        if errors[0] is not None:
            return len(keys), [f"{key}: bench failed ({errors[0]})" for key in keys]
        try:
            got = self.extract()
        except (OSError, ValueError, KeyError) as exc:
            return len(keys), [f"{key}: unreadable output ({exc})" for key in keys]
        want = self.expected()
        tpr = self.raw["metrics"]["tpr_target"]
        n_id = self.raw["data"]["n_test_per_class"] * self.raw["data"]["k"]
        failures = []
        for key in keys:
            problem = self._check_row(key, got, want, tpr, n_id)
            if problem:
                failures.append(f"{key}: {problem}")
        return len(keys), failures

    def _check_row(self, key, got, want, tpr, n_id) -> Optional[str]:
        row = got["rows"].get(key)
        if row is None:
            return "row missing from bench_per_seed.csv"
        if key not in got["dumps"]:
            return "score dump missing"
        names = ("fpr95", "auroc", "aupr", "id_accuracy")
        for name, value, ref in zip(names, row, want["rows"][key]):
            problem = _mismatch(f"{name} vs reference", value, ref,
                                abs_tol=REFERENCE_ABS_TOL)
            if problem:
                return problem
        n_rows_id, n_rows_ood, total, squares = got["dumps"][key]
        ref_id, ref_ood, ref_total, ref_squares = want["dumps"][key]
        if (n_rows_id, n_rows_ood) != (ref_id, ref_ood) or n_rows_id != n_id:
            return f"dump has {n_rows_id}/{n_rows_ood} ID/OOD rows, expected {ref_id}/{ref_ood}"
        for label, value, ref in (("score sum", total, ref_total),
                                  ("score sum of squares", squares, ref_squares)):
            problem = _mismatch(f"{label} vs reference", value, ref,
                                rel_tol=CHECKSUM_REL_TOL)
            if problem:
                return problem
        ids, ood = dumps.read(self.dump_path(key))
        recomputed = oracle.detection(ids, ood, tpr)
        for name, value in zip(names, row):
            if name in recomputed:
                problem = _mismatch(f"{name} vs oracle on the dump", value,
                                    recomputed[name], abs_tol=ORACLE_TOL)
                if problem:
                    return problem
        return None


class CalibrateFull(_ConfigWorkload):
    name = "calibrate_full"
    command = "calibrate"
    expected_spans = ("cli.main", "harness.run_calibration", "data.realize_data",
                      "optimizer.train", "model.forward", "model.forward_traced",
                      "losses.apply_loss", "tensor.backward", "metrics.fit_temperature",
                      "metrics.nll_at_temperature", "metrics.ece",
                      "tensor.matrix2d_new")

    def keys(self) -> list[str]:
        return [loss["kind"] for loss in self.raw["losses"]]

    def extract(self) -> dict:
        return {"rows": {r["loss_name"]: [float(r["fitted_T"]), float(r["ece_pre_ts"]),
                                          float(r["ece_post_ts"])]
                         for r in _read_csv(self.out / "calibration.csv")}}

    def check(self, errors):
        keys = self.keys()
        if errors[0] is not None:
            return len(keys), [f"{key}: calibrate failed ({errors[0]})" for key in keys]
        try:
            got = self.extract()["rows"]
        except (OSError, ValueError, KeyError) as exc:
            return len(keys), [f"{key}: unreadable output ({exc})" for key in keys]
        want = self.expected()["rows"]
        failures = []
        for key in keys:
            if key not in got:
                failures.append(f"{key}: row missing from calibration.csv")
                continue
            for name, value, ref in zip(("fitted_T", "ece_pre", "ece_post"),
                                        got[key], want[key]):
                problem = _mismatch(f"{name} vs reference", value, ref,
                                    abs_tol=REFERENCE_ABS_TOL)
                if problem:
                    failures.append(f"{key}: {problem}")
                    break
        return len(keys), failures


class DumpEval(Workload):
    name = "dump_eval"
    expected_spans = ("cli.main", "scores.read_scores", "metrics.detection_report",
                      "harness.emit_histogram_data", "scores.scored_examples")
    bins = 50

    def prepare(self) -> None:
        self.dumps = dumps.write(self.work / "dumps", self.seed)
        self.oracle = [oracle.detection(ids, ood) for _, ids, ood in self.dumps]

    def _outputs(self, path: Path) -> tuple[Path, Path]:
        return self.out / f"{path.stem}.eval.csv", self.out / f"{path.stem}.hist.csv"

    def ops(self) -> list[list[str]]:
        argvs = []
        for path, _, _ in self.dumps:
            eval_out, hist_out = self._outputs(path)
            argvs.append(["eval", "--scores", str(path), "--out", str(eval_out)])
            argvs.append(["report", "--scores", str(path), "--bins", str(self.bins),
                          "--out", str(hist_out)])
        return argvs

    def check(self, errors):
        failures = []
        for i, (path, ids, ood) in enumerate(self.dumps):
            eval_out, hist_out = self._outputs(path)
            for error, checker, out in ((errors[2 * i], self._check_eval, eval_out),
                                        (errors[2 * i + 1], self._check_hist, hist_out)):
                if error is not None:
                    failures.append(f"{out.name}: {error}")
                    continue
                try:
                    problem = checker(out, i, ids.size, ood.size)
                except (OSError, ValueError, KeyError) as exc:
                    problem = f"unreadable output ({exc})"
                if problem:
                    failures.append(f"{out.name}: {problem}")
        return len(errors), failures

    def _check_eval(self, out: Path, i: int, n_id: int, n_ood: int) -> Optional[str]:
        (row,) = _read_csv(out)
        if (int(row["n_id"]), int(row["n_ood"])) != (n_id, n_ood):
            return f"counts {row['n_id']}/{row['n_ood']}, expected {n_id}/{n_ood}"
        want = self.oracle[i]
        for column, name in (("fpr_at_95_tpr", "fpr95"), ("auroc", "auroc"), ("aupr", "aupr")):
            problem = _mismatch(f"{name} vs oracle", float(row[column]), want[name],
                                abs_tol=ORACLE_TOL)
            if problem:
                return problem
        return None

    def _check_hist(self, out: Path, i: int, n_id: int, n_ood: int) -> Optional[str]:
        rows = _read_csv(out)
        if len(rows) != self.bins:
            return f"{len(rows)} bins, expected {self.bins}"
        id_total = sum(int(r["id_count"]) for r in rows)
        ood_total = sum(int(r["ood_count"]) for r in rows)
        if (id_total, ood_total) != (n_id, n_ood):
            return f"histogram holds {id_total}/{ood_total}, expected {n_id}/{n_ood}"
        return None


WORKLOADS = {w.name: w for w in (GridShort, CalibrateFull, DumpEval)}
