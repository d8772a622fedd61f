"""Span recording from outside the package.

A `Recorder` wraps public functions of `logitbench` at every module
attribute that is bound to them (``from .x import y`` makes a second binding
that the defining module's attribute does not cover), records one span per
call -- name, start, end, parent -- and keeps the spans in memory.  `install`
returns a handle whose `restore` puts every original object back.

Spans marked opaque stop recording below them: the row-by-row calls a
detector makes inside `score_batch` are attributed to the detector and add
no spans of their own.  Counters (`Matrix2D` and `ScoredExample`
constructions) count everywhere.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "logitbench"


@dataclass(frozen=True)
class SpanSpec:
    """A function to wrap: span `name`, defined as `attr` in `module`.

    `attr` may be ``Class.method``; then the class attribute is wrapped.
    `annotate` maps the call's arguments to a small dict kept on the span.
    """

    name: str
    module: str
    attr: str
    opaque: bool = False
    annotate: Optional[Callable[..., dict]] = None


@dataclass(frozen=True)
class CounterSpec:
    """Count calls of `module.attr` (a ``Class.__post_init__`` counts
    constructions of the class)."""

    name: str
    module: str
    attr: str


def _score_batch_info(model, features, cfg, *args, **kwargs) -> dict:
    return {"kind": cfg.kind, "rows": features.rows}


def _forward_info(model, x, *args, **kwargs) -> dict:
    return {"rows": x.rows}


SPANS = (
    SpanSpec("cli.main", "cli", "main"),
    SpanSpec("harness.run_experiment", "harness", "run_experiment"),
    SpanSpec("harness.run_calibration", "harness", "run_calibration"),
    SpanSpec("harness.emit_histogram_data", "harness", "emit_histogram_data"),
    SpanSpec("data.realize_data", "harness", "realize_data"),
    SpanSpec("optimizer.train", "optimizer", "train"),
    SpanSpec("model.forward", "model", "forward", annotate=_forward_info),
    SpanSpec("model.forward_traced", "model", "forward_traced"),
    SpanSpec("model.save_checkpoint", "model", "save_checkpoint"),
    SpanSpec("losses.apply_loss", "losses", "apply_loss"),
    SpanSpec("tensor.backward", "tensor", "GradTape.backward"),
    SpanSpec("scores.score_batch", "scores", "score_batch", opaque=True,
             annotate=_score_batch_info),
    SpanSpec("scores.write_scores", "scores", "write_scores"),
    SpanSpec("scores.read_scores", "scores", "read_scores"),
    SpanSpec("metrics.detection_report", "metrics", "detection_report"),
    SpanSpec("metrics.fit_temperature", "metrics", "fit_temperature"),
    SpanSpec("metrics.nll_at_temperature", "metrics", "nll_at_temperature"),
    SpanSpec("metrics.ece", "metrics", "ece"),
)

COUNTERS = (
    CounterSpec("tensor.matrix2d_new", "tensor", "Matrix2D.__post_init__"),
    CounterSpec("scores.scored_examples", "scores", "ScoredExample.__post_init__"),
)


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index of the enclosing span, -1 at the top
    info: Optional[dict] = None


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    absent: dict[str, str] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _opaque: int = 0

    def span_wrapper(self, spec: SpanSpec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(spec.name, 0, 0, self._stack[-1] if self._stack else -1,
                        spec.annotate(*args, **kwargs) if spec.annotate else None)
            self.spans.append(span)
            self._stack.append(index)
            if spec.opaque:
                self._opaque += 1
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                if spec.opaque:
                    self._opaque -= 1
                self._stack.pop()
        return wrapper

    def counter_wrapper(self, spec: CounterSpec, fn):
        counts = self.counts
        counts.setdefault(spec.name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[spec.name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _resolve(module: str, attr: str):
    """(owner, name, original) for `PACKAGE.module.attr`, or None if gone."""
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    if mod is None:
        return None
    owner, name = mod, attr
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        owner = getattr(mod, cls_name, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


def _bindings(original) -> list[tuple[object, str]]:
    """Every attribute of a loaded package module that is `original`."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, name))
    return found


class Installed:
    """The wrappers put in place by `install`; `restore` undoes them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(recorder: Recorder, spans=SPANS, counters=COUNTERS) -> Installed:
    """Wrap every spec at all of its bindings. A spec whose function no
    longer exists is recorded in `recorder.absent` instead."""
    installed = Installed()
    try:
        for spec in (*spans, *counters):
            found = _resolve(spec.module, spec.attr)
            if found is None:
                recorder.absent[spec.name] = (
                    f"{PACKAGE}.{spec.module}.{spec.attr} does not exist")
                continue
            owner, name, original = found
            if isinstance(spec, SpanSpec):
                wrapper = recorder.span_wrapper(spec, original)
            else:
                wrapper = recorder.counter_wrapper(spec, original)
            if isinstance(owner, type):
                installed.replace(owner, name, wrapper)
                continue
            for mod, bound_name in _bindings(original):
                installed.replace(mod, bound_name, wrapper)
    except BaseException:
        installed.restore()
        raise
    return installed


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part its direct children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered_ns(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
