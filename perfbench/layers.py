"""Per-layer metrics derived from the spans and counts of traced passes.

Times are seconds per pass unless the name says otherwise; counts are per
pass.  The forward/loss/backward split covers calls made by
`optimizer.train` only; the update is the rest of `train`'s time (its self
time, which also holds the loop and the per-step model rebuild).
"""

from __future__ import annotations

from collections import defaultdict

from spans import Recorder, has_ancestor, self_times_ns

SCORE_KINDS = ("msp", "odin", "energy", "gradnorm")

# name -> (unit, span or counter names it is computed from), in report order.
PER_LAYER = {
    **{f"scores.{kind}_us_per_row": ("us", ("scores.score_batch",)) for kind in SCORE_KINDS},
    "scores.rows": ("count", ("scores.score_batch",)),
    "scores.scored_examples": ("count", ("scores.scored_examples",)),
    "scores.write_s": ("s", ("scores.write_scores",)),
    "scores.read_s": ("s", ("scores.read_scores",)),
    "metrics.detection_report_s": ("s", ("metrics.detection_report",)),
    "metrics.fit_temperature_s": ("s", ("metrics.fit_temperature",)),
    "metrics.nll_evals": ("count", ("metrics.nll_at_temperature",)),
    "metrics.ece_s": ("s", ("metrics.ece",)),
    "optimizer.train_s": ("s", ("optimizer.train",)),
    "optimizer.steps": ("count", ("optimizer.train", "losses.apply_loss")),
    "optimizer.step_us": ("us", ("optimizer.train", "losses.apply_loss")),
    "optimizer.update_us": ("us", ("optimizer.train", "model.forward_traced",
                                   "losses.apply_loss", "tensor.backward")),
    "model.forward_traced_s": ("s", ("model.forward_traced",)),
    "losses.apply_loss_s": ("s", ("losses.apply_loss",)),
    "tensor.backward_s": ("s", ("tensor.backward",)),
    "tensor.backward_calls": ("count", ("tensor.backward",)),
    "tensor.matrix2d_new": ("count", ("tensor.matrix2d_new",)),
    "model.forward_us_per_row": ("us", ("model.forward",)),
    "model.save_checkpoint_s": ("s", ("model.save_checkpoint",)),
    "data.realize_s": ("s", ("data.realize_data",)),
    "harness.histogram_s": ("s", ("harness.emit_histogram_data",)),
    "harness.self_s": ("s", ("harness.*",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.overhead_frac": ("ratio", ()),
}

TRAIN = "optimizer.train"


def _absence(sources: tuple[str, ...], recorder: Recorder, fired: set[str],
             workload: str) -> str:
    """Why `metric` has no measured value, or "" if it has one.  A source
    ending in ".*" stands for any span of that layer."""
    reasons = []
    for source in sources:
        if source.endswith(".*"):
            layer = source[:-1]
            if not any(name.startswith(layer) for name in fired):
                reasons.append(f"no {layer[:-1]} span ran on {workload}")
        elif source in recorder.absent:
            reasons.append(recorder.absent[source])
        elif source not in fired:
            reasons.append(f"{source} not exercised by {workload}")
    return "; ".join(reasons)


def derive(recorder: Recorder, passes: int, overhead_frac: float,
           workload: str) -> tuple[dict[str, dict], dict[str, str]]:
    """Every per-layer metric as {"value", "unit"}, and the reason for each
    metric whose sources are gone or never ran on this workload.  Such a
    metric reads 0; the reason keeps it from passing for a measured zero."""
    spans = recorder.spans
    own = self_times_ns(spans)
    total_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    under_train_ns: dict[str, int] = defaultdict(int)
    under_train_calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    kind_ns: dict[str, int] = defaultdict(int)
    kind_rows: dict[str, int] = defaultdict(int)
    forward_rows = 0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        total_ns[span.name] += duration
        calls[span.name] += 1
        self_ns[span.name] += own[i]
        if has_ancestor(spans, i, TRAIN):
            under_train_ns[span.name] += duration
            under_train_calls[span.name] += 1
        if span.name == "scores.score_batch":
            kind_ns[span.info["kind"]] += duration
            kind_rows[span.info["kind"]] += span.info["rows"]
        elif span.name == "model.forward":
            forward_rows += span.info["rows"]
    fired = {name for name, n in calls.items() if n}
    fired.update(name for name, n in recorder.counts.items() if n)

    def per_pass(x: float) -> float:
        return x / passes

    steps = under_train_calls["losses.apply_loss"]
    train_ns = total_ns[TRAIN]
    split_ns = {name: under_train_ns[name] for name in
                ("model.forward_traced", "losses.apply_loss", "tensor.backward",
                 "model.forward")}
    values = {
        "scores.rows": per_pass(sum(kind_rows.values())),
        "scores.scored_examples": per_pass(recorder.counts.get("scores.scored_examples", 0)),
        "scores.write_s": per_pass(total_ns["scores.write_scores"] / 1e9),
        "scores.read_s": per_pass(total_ns["scores.read_scores"] / 1e9),
        "metrics.detection_report_s": per_pass(total_ns["metrics.detection_report"] / 1e9),
        "metrics.fit_temperature_s": per_pass(total_ns["metrics.fit_temperature"] / 1e9),
        "metrics.nll_evals": per_pass(calls["metrics.nll_at_temperature"]),
        "metrics.ece_s": per_pass(total_ns["metrics.ece"] / 1e9),
        "optimizer.train_s": train_ns / 1e9 / max(calls[TRAIN], 1),
        "optimizer.steps": per_pass(steps),
        "optimizer.step_us": (train_ns - split_ns["model.forward"]) / 1e3 / max(steps, 1),
        "optimizer.update_us": (train_ns - sum(split_ns.values())) / 1e3 / max(steps, 1),
        "model.forward_traced_s": per_pass(split_ns["model.forward_traced"] / 1e9),
        "losses.apply_loss_s": per_pass(split_ns["losses.apply_loss"] / 1e9),
        "tensor.backward_s": per_pass(split_ns["tensor.backward"] / 1e9),
        "tensor.backward_calls": per_pass(under_train_calls["tensor.backward"]),
        "tensor.matrix2d_new": per_pass(recorder.counts.get("tensor.matrix2d_new", 0)),
        "model.forward_us_per_row": total_ns["model.forward"] / 1e3 / max(forward_rows, 1),
        "model.save_checkpoint_s": per_pass(total_ns["model.save_checkpoint"] / 1e9),
        "data.realize_s": per_pass(total_ns["data.realize_data"] / 1e9),
        "harness.histogram_s": per_pass(total_ns["harness.emit_histogram_data"] / 1e9),
        "harness.self_s": per_pass(sum(ns for name, ns in self_ns.items()
                                       if name.startswith("harness.")) / 1e9),
        "cli.self_s": per_pass(self_ns["cli.main"] / 1e9),
        "trace.overhead_frac": overhead_frac,
    }
    for kind in SCORE_KINDS:
        values[f"scores.{kind}_us_per_row"] = kind_ns[kind] / 1e3 / max(kind_rows[kind], 1)

    out = {}
    absent = {}
    for metric, (unit, sources) in PER_LAYER.items():
        reason = _absence(sources, recorder, fired, workload)
        if not reason and metric.endswith("_us_per_row") and metric.startswith("scores."):
            kind = metric[len("scores."):-len("_us_per_row")]
            if not kind_rows[kind]:
                reason = f"no {kind} scoring on {workload}"
        out[metric] = {"value": 0.0 if reason else values[metric], "unit": unit}
        if reason:
            absent[metric] = reason
    return out, absent


def unfired(recorder: Recorder, expected: tuple[str, ...]) -> list[str]:
    """Expected spans and counters that exist but never ran."""
    fired = {span.name for span in recorder.spans}
    fired.update(name for name, n in recorder.counts.items() if n)
    return [name for name in expected if name not in fired and name not in recorder.absent]


def shares(recorder: Recorder, passes: int, wall_s: float) -> dict[str, float]:
    """Top-level time share of the layers each workload was chosen for."""
    def total(prefixes: tuple[str, ...]) -> float:
        return sum(s.end - s.start for s in recorder.spans
                   if s.name.startswith(prefixes)) / 1e9 / passes / wall_s
    return {
        "scores": total(("scores.score_batch", "scores.write_scores")),
        "optimizer.train": total((TRAIN,)),
        "read+metrics": total(("scores.read_scores", "metrics.detection_report",
                               "metrics.fit_temperature", "metrics.ece")),
        "harness.histogram": total(("harness.emit_histogram_data",)),
    }
