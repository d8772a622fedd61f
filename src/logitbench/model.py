"""Fully-connected relu classifier: init, the forward pass and the block loop
that evaluates a data set with it, its backward pass to the parameters and
to the input, and a decimal text checkpoint format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError, read_lines
from .tensor import Matrix2D

ACTIVATION = "relu"


@dataclass(frozen=True)
class MlpModel:
    """Read-only float64 parameters: `weights[l]` has shape (dims[l], dims[l+1])
    and `biases[l]` is a row vector (1, dims[l+1])."""

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        for p in (*self.weights, *self.biases):
            p.flags.writeable = False

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]


def init_model(layer_dims, seed: int) -> MlpModel:
    """He-style fan-in scaled uniform weights, zero biases, deterministic in seed."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"layer dims must be at least two positive sizes, got {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros((1, fan_out)))
    return MlpModel(dims, tuple(weights), tuple(biases))


# Evaluation runs a data set through `_forward` this many rows at a time, so
# its working set is bounded by a block's layer outputs, not by the set's size.
# OpenBLAS picks its dgemm kernel by product size (M*N*K <= 1e6 on SkylakeX) and
# runs the rows past a multiple of 4 through an edge kernel, so a block's logits
# can differ in their last bits from one whole-set product's; a 512-row block
# takes the small-product kernel, as the 128-row training steps do.
BLOCK_ROWS = 512


def forward_blocks(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                   x: np.ndarray) -> Iterator[tuple[int, list[np.ndarray], np.ndarray]]:
    """`_forward` over consecutive blocks of BLOCK_ROWS rows of x, the last one shorter:
    yields each block's first row, layer inputs and logits. ShapeError unless x has the
    input width; DataError at the first block whose logits overflow. The caller reduces
    a block and releases it before it asks for the next: one block is live at a time."""
    if x.shape[1] != len(weights[0]):
        raise ShapeError(f"input has {x.shape[1]} features, model expects {len(weights[0])}")
    for start in range(0, len(x), BLOCK_ROWS):
        inputs, logits = _forward(weights, biases, x[start:start + BLOCK_ROWS])
        if not np.isfinite(logits).all():
            raise DataError("logits must be finite")
        yield start, inputs, logits
        del inputs, logits


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def forward(model: MlpModel, x: Matrix2D) -> np.ndarray:
    """The logits of every row of x, computed block by block by `forward_blocks`, which
    raises ShapeError on a wrong width and DataError, with no numpy warning, on overflow."""
    logits = np.empty((x.rows, model.num_classes))
    for start, inputs, block in forward_blocks(model.weights, model.biases, x.data):
        logits[start:start + len(block)] = block
        del inputs, block
    return logits


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The forward pass: (each layer's input, logits). The inputs are x, then
    each relu output, so the last is the penultimate activation."""
    inputs = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return inputs, h


def backward(weights: Sequence[np.ndarray], inputs: Sequence[np.ndarray], grad: np.ndarray,
             grad_w: Sequence[np.ndarray], grad_b: Sequence[np.ndarray]) -> None:
    """Reverse pass of `_forward` from `grad` = dL/dlogits, given the layer
    inputs it returned: writes layer i's weight gradient into grad_w[i] and
    its bias gradient into grad_b[i]."""
    for i in range(len(weights) - 1, -1, -1):
        np.add.reduce(grad, axis=0, keepdims=True, out=grad_b[i])
        np.matmul(inputs[i].T, grad, out=grad_w[i])
        if i > 0:
            grad = grad @ weights[i].T
            # A relu output is positive exactly where its pre-activation is,
            # so the layer input gives the relu mask.
            grad *= inputs[i] > 0.0


def input_gradient(weights: Sequence[np.ndarray], inputs: Sequence[np.ndarray],
                   grad: np.ndarray) -> np.ndarray:
    """dL/dx from `grad` = dL/dlogits, through the layers of `_forward`."""
    for i in range(len(weights) - 1, -1, -1):
        grad = grad @ weights[i].T
        if i > 0:
            grad *= inputs[i] > 0.0
    return grad


# --------------------------------------------------------------------------
# Checkpoint format: plain text, one field per line, decimals with 17
# significant digits so a save/load/save round trip is byte identical.
# --------------------------------------------------------------------------

def _fmt(values: np.ndarray) -> str:
    return " ".join(["%.17g"] * values.size) % tuple(values.ravel().tolist())


def save_checkpoint(model: MlpModel, path, config_hash: str = "") -> None:
    lines = ["logitbench-checkpoint v1", f"config_hash {config_hash}", f"activation {ACTIVATION}",
             "layer_dims " + " ".join(str(d) for d in model.layer_dims)]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines += [f"weight {i} " + _fmt(w), f"bias {i} " + _fmt(b)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[MlpModel, str]:
    """Returns (model, config_hash); malformed content raises DataError."""
    lines = "".join(read_lines(path)).splitlines()
    if not lines or lines[0] != "logitbench-checkpoint v1":
        raise DataError(f"{path}: not a logitbench checkpoint")
    if len(lines) < 4:
        raise DataError(f"{path}: truncated checkpoint header")
    for i, keyword in enumerate(("config_hash", "activation", "layer_dims"), start=1):
        if lines[i].partition(" ")[0] != keyword:
            raise DataError(f"{path}: line {i + 1}: expected {keyword!r}, got {lines[i]!r}")
    config_hash = lines[1].partition(" ")[2]
    activation = lines[2].partition(" ")[2]
    if activation != ACTIVATION:
        raise DataError(f"{path}: unsupported activation {activation!r}, expected {ACTIVATION!r}")
    try:
        dims = tuple(int(t) for t in lines[3].split()[1:])
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise DataError(f"layer dims must be at least two positive sizes, got {dims}")
        weights: list[Optional[np.ndarray]] = [None] * (len(dims) - 1)
        biases: list[Optional[np.ndarray]] = [None] * (len(dims) - 1)
        for line in lines[4:]:
            kind, idx, rest = line.split(" ", 2)
            i = int(idx)
            if not 0 <= i < len(weights):
                raise DataError(f"layer index {i} outside [0, {len(weights)})")
            vals = np.array([float(t) for t in rest.split()])
            if kind not in ("weight", "bias"):
                raise DataError(f"unknown checkpoint field {kind!r}")
            if not np.isfinite(vals).all():
                raise DataError(f"{kind} {i} values must be finite")
            arrays = weights if kind == "weight" else biases
            if arrays[i] is not None:
                raise DataError(f"repeated checkpoint field {kind} {i}")
            arrays[i] = vals.reshape((dims[i] if kind == "weight" else 1, dims[i + 1]))
    except ValueError as exc:  # DataError included
        raise DataError(f"{path}: {exc}") from None
    if any(w is None for w in weights) or any(b is None for b in biases):
        raise DataError(f"{path}: incomplete checkpoint")
    return MlpModel(dims, tuple(weights), tuple(biases)), config_hash
