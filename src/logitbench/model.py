"""Fully-connected relu classifier: init, forward passes that return the
gradient tape of their backward pass, and a decimal text checkpoint format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError, read_lines
from .tensor import GradTape, Matrix2D

ACTIVATION = "relu"


@dataclass(frozen=True)
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: tuple[Matrix2D, ...]   # weights[l] has shape (dims[l], dims[l+1])
    biases: tuple[Matrix2D, ...]    # row vectors (1, dims[l+1])

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]


def init_model(layer_dims, seed: int) -> MlpModel:
    """He-style fan-in scaled uniform weights, zero biases, deterministic in seed."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {dims}")
    if any(d <= 0 for d in dims):
        raise ConfigError(f"layer dims must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(Matrix2D(rng.uniform(-limit, limit, size=(fan_in, fan_out))))
        biases.append(Matrix2D(np.zeros((1, fan_out))))
    return MlpModel(dims, tuple(weights), tuple(biases))


def forward(model: MlpModel, x: Matrix2D) -> Matrix2D:
    """Plain forward pass."""
    return forward_layers(model, x)[1]


def forward_layers(model: MlpModel, x: Matrix2D) -> tuple[GradTape, Matrix2D]:
    """Forward pass that also returns its tape, whose `inputs` hold x and
    then each relu output, so the last entry is the penultimate activation."""
    if x.cols != model.input_dim:
        raise ShapeError(f"input has {x.cols} features, model expects {model.input_dim}")
    tape, logits = _forward([w.data for w in model.weights],
                            [b.data for b in model.biases], x.data)
    return tape, Matrix2D(logits)


def forward_traced(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                   x: np.ndarray) -> tuple[GradTape, np.ndarray]:
    """The training forward pass: `forward_layers` on raw arrays, with no
    shape or finiteness checks. It is a name of its own, apart from
    `forward_layers`, so that a profiler hooked on it times training steps
    only, not the epoch-end telemetry forward."""
    return _forward(weights, biases, x)


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             x: np.ndarray, out: Optional[Sequence[np.ndarray]] = None
             ) -> tuple[GradTape, np.ndarray]:
    """The forward pass; layer i's output goes into out[i] if given, else
    into a new array."""
    inputs = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = np.matmul(h, w, out=None if out is None else out[i])
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return GradTape(weights, inputs), h


# --------------------------------------------------------------------------
# Checkpoint format: plain text, one field per line, decimals with 17
# significant digits so a save/load/save round trip is byte identical.
# --------------------------------------------------------------------------

def _fmt(values: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in values.reshape(-1))


def save_checkpoint(model: MlpModel, path, config_hash: str = "") -> None:
    lines = [
        "logitbench-checkpoint v1",
        f"config_hash {config_hash}",
        f"activation {ACTIVATION}",
        "layer_dims " + " ".join(str(d) for d in model.layer_dims),
    ]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"weight {i} " + _fmt(w.data))
        lines.append(f"bias {i} " + _fmt(b.data))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[MlpModel, str]:
    """Returns (model, config_hash); malformed content raises DataError."""
    lines = "".join(read_lines(path)).splitlines()
    if not lines or lines[0] != "logitbench-checkpoint v1":
        raise DataError(f"{path}: not a logitbench checkpoint")
    if len(lines) < 4:
        raise DataError(f"{path}: truncated checkpoint header")
    config_hash = lines[1].partition(" ")[2]
    activation = lines[2].partition(" ")[2]
    if activation != ACTIVATION:
        raise DataError(f"{path}: unsupported activation {activation!r}, expected {ACTIVATION!r}")
    try:
        dims = tuple(int(t) for t in lines[3].split()[1:])
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise DataError(f"layer dims must be at least two positive sizes, got {dims}")
        weights: list[Optional[Matrix2D]] = [None] * (len(dims) - 1)
        biases: list[Optional[Matrix2D]] = [None] * (len(dims) - 1)
        for line in lines[4:]:
            kind, idx, rest = line.split(" ", 2)
            i = int(idx)
            if not 0 <= i < len(weights):
                raise DataError(f"layer index {i} outside [0, {len(weights)})")
            vals = np.array([float(t) for t in rest.split()])
            if kind == "weight":
                weights[i] = Matrix2D(vals.reshape(dims[i], dims[i + 1]))
            elif kind == "bias":
                biases[i] = Matrix2D(vals.reshape(1, dims[i + 1]))
            else:
                raise DataError(f"unknown checkpoint field {kind!r}")
    except ValueError as exc:  # DataError included
        raise DataError(f"{path}: {exc}") from None
    if any(w is None for w in weights) or any(b is None for b in biases):
        raise DataError(f"{path}: incomplete checkpoint")
    return MlpModel(dims, tuple(weights), tuple(biases)), config_hash
