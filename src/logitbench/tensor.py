"""Dense 64-bit matrices, the row-wise softmax and norm helpers, and the
gradient tape of a relu MLP's forward pass."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, ShapeError


@dataclass(frozen=True)
class Matrix2D:
    """Immutable dense row-major float64 matrix."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2:
            raise ShapeError(f"Matrix2D requires 2-D data, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise DataError("Matrix2D entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Matrix2D":
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix2D":
        return cls(np.zeros((rows, cols)))

    def row(self, i: int) -> np.ndarray:
        return self.data[i]


@dataclass(frozen=True)
class GradTape:
    """What a forward pass of a relu MLP keeps for its backward pass: the
    weight of every layer and its input (x, then each relu output)."""

    weights: Sequence[np.ndarray]
    inputs: Sequence[np.ndarray]

    def backward(self, grad: np.ndarray, *, params: bool = True, input_grad: bool = False
                 ) -> tuple[list[np.ndarray], list[np.ndarray], Optional[np.ndarray]]:
        """Reverse pass from `grad` = dL/dlogits. Returns the weight and bias
        gradients (empty lists unless `params`) and dL/dx (None unless
        `input_grad`)."""
        grad_w: list[np.ndarray] = []
        grad_b: list[np.ndarray] = []
        for i in range(len(self.weights) - 1, -1, -1):
            if params:
                grad_b.insert(0, grad.sum(axis=0, keepdims=True))
                grad_w.insert(0, self.inputs[i].T @ grad)
            if i > 0 or input_grad:
                grad = grad @ self.weights[i].T
            if i > 0:
                # A relu output is positive exactly where its pre-activation
                # is, so the layer input gives the relu mask.
                grad *= self.inputs[i] > 0.0
        return grad_w, grad_b, grad if input_grad else None


def matmul(a: Matrix2D, b: Matrix2D) -> Matrix2D:
    """Standard matrix product (untraced)."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    return Matrix2D(a.data @ b.data)


def rowwise_softmax(z: Matrix2D | np.ndarray) -> np.ndarray:
    """Row-stable softmax (max-subtraction), returns a plain array."""
    arr = z.data if isinstance(z, Matrix2D) else np.asarray(z, dtype=np.float64)
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_l2_norm(z: Matrix2D | np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm as a (rows, 1) column."""
    arr = z.data if isinstance(z, Matrix2D) else np.asarray(z, dtype=np.float64)
    return np.linalg.norm(arr, axis=1, keepdims=True)


def log_softmax(arr: np.ndarray) -> np.ndarray:
    shifted = arr - arr.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

