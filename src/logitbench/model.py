"""Fully-connected classifier: init, forward (traced or plain), logit
magnitude/direction decomposition, and a decimal text checkpoint format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import GradTape, Matrix2D, TapeNode

ACTIVATION = "relu"


@dataclass(frozen=True)
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: tuple[Matrix2D, ...]   # weights[l] has shape (dims[l], dims[l+1])
    biases: tuple[Matrix2D, ...]    # row vectors (1, dims[l+1])
    activation: str = ACTIVATION

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]


@dataclass(frozen=True)
class LogitDecomposition:
    magnitude: float
    direction: np.ndarray
    degenerate: bool = False


@dataclass
class ForwardTrace:
    """Handles into a traced forward pass, for reading gradients back out."""

    tape: GradTape
    input: TapeNode
    weights: list[TapeNode]
    biases: list[TapeNode]
    penultimate: TapeNode
    logits: TapeNode


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
        biases.append(Matrix2D.zeros(1, fan_out))
    return MlpModel(dims, tuple(weights), tuple(biases))


def forward(model: MlpModel, x: Matrix2D) -> Matrix2D:
    """Plain forward pass, no tape."""
    return forward_layers(model, x)[1]


def forward_layers(model: MlpModel, x: Matrix2D) -> tuple[list[np.ndarray], Matrix2D]:
    """Plain forward pass that also returns the input to every layer: x,
    then each relu output, so the last entry is the penultimate activation."""
    if x.cols != model.input_dim:
        raise ShapeError(f"input has {x.cols} features, model expects {model.input_dim}")
    inputs = []
    h = x.data
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(h)
        h = h @ w.data + b.data
        if i < last:
            h = np.maximum(h, 0.0)
    return inputs, Matrix2D(h)


def forward_traced(model: MlpModel, x: Matrix2D, *, input_grad: bool = False) -> ForwardTrace:
    """Forward pass recorded on a fresh tape.

    Input gradients are opt-in: the input leaf only participates in the
    backward sweep when input_grad is set (training does not need them).
    """
    if x.cols != model.input_dim:
        raise ShapeError(f"input has {x.cols} features, model expects {model.input_dim}")
    tape = GradTape()
    x_node = tape.leaf(x, requires_grad=input_grad)
    w_nodes = [tape.leaf(w) for w in model.weights]
    b_nodes = [tape.leaf(b) for b in model.biases]
    h = x_node
    last = len(w_nodes) - 1
    for i, (w, b) in enumerate(zip(w_nodes, b_nodes)):
        penultimate = h
        h = tape.add_row(tape.matmul(h, w), b)
        if i < last:
            h = tape.relu(h)
    return ForwardTrace(tape, x_node, w_nodes, b_nodes, penultimate, h)


def decompose(logits_row: np.ndarray) -> LogitDecomposition:
    """Split a logit vector into magnitude and unit direction.

    The zero vector is flagged degenerate with a zero direction.
    """
    v = np.asarray(logits_row, dtype=np.float64).reshape(-1)
    mag = float(np.linalg.norm(v))
    if mag == 0.0:
        return LogitDecomposition(0.0, np.zeros_like(v), degenerate=True)
    return LogitDecomposition(mag, v / mag)


def predict(model: MlpModel, x: Matrix2D) -> np.ndarray:
    """Predicted class per row; ties break to the lowest index (np.argmax)."""
    return np.argmax(forward(model, x).data, axis=1)


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
        f"activation {model.activation}",
        "layer_dims " + " ".join(str(d) for d in model.layer_dims),
    ]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"weight {i} " + _fmt(w.data))
        lines.append(f"bias {i} " + _fmt(b.data))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[MlpModel, str]:
    """Returns (model, config_hash)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "logitbench-checkpoint v1":
        raise DataError(f"{path}: not a logitbench checkpoint")
    config_hash = lines[1].split(" ", 1)[1] if " " in lines[1] else ""
    activation = lines[2].split(" ", 1)[1]
    dims = tuple(int(t) for t in lines[3].split()[1:])
    weights: list[Optional[Matrix2D]] = [None] * (len(dims) - 1)
    biases: list[Optional[Matrix2D]] = [None] * (len(dims) - 1)
    for line in lines[4:]:
        kind, idx, rest = line.split(" ", 2)
        i = int(idx)
        vals = np.array([float(t) for t in rest.split()])
        if kind == "weight":
            weights[i] = Matrix2D(vals.reshape(dims[i], dims[i + 1]))
        elif kind == "bias":
            biases[i] = Matrix2D(vals.reshape(1, dims[i + 1]))
        else:
            raise DataError(f"{path}: unknown checkpoint field {kind!r}")
    if any(w is None for w in weights) or any(b is None for b in biases):
        raise DataError(f"{path}: incomplete checkpoint")
    model = MlpModel(dims, tuple(weights), tuple(biases), activation)
    return model, config_hash
