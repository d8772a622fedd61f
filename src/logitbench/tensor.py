"""Dense 64-bit matrices, the row-wise softmax and norm helpers, the
gradient tape of a relu MLP's forward pass, and the BLAS thread count."""

from __future__ import annotations

import ctypes
import functools
import glob
import os
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

    def backward(self, grad: np.ndarray, out: Optional[tuple[list, list]] = None, *,
                 params: bool = True, input_grad: bool = False
                 ) -> tuple[list[np.ndarray], list[np.ndarray], Optional[np.ndarray]]:
        """Reverse pass from `grad` = dL/dlogits. Returns the weight and bias
        gradients (empty lists unless `params`) and dL/dx (None unless
        `input_grad`). The parameter gradients are written into `out` =
        (weight gradients, bias gradients) if given, else into new arrays."""
        if not params:
            out = ([], [])
        elif out is None:
            out = ([np.empty_like(w) for w in self.weights],
                   [np.empty((1, w.shape[1])) for w in self.weights])
        grad_w, grad_b = out
        for i in range(len(self.weights) - 1, -1, -1):
            if params:
                np.add.reduce(grad, axis=0, keepdims=True, out=grad_b[i])
                np.matmul(self.inputs[i].T, grad, out=grad_w[i])
            if i > 0 or input_grad:
                grad = grad @ self.weights[i].T
            if i > 0:
                # A relu output is positive exactly where its pre-activation
                # is, so the layer input gives the relu mask.
                grad *= self.inputs[i] > 0.0
        return grad_w, grad_b, grad if input_grad else None


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
    shifted = arr - np.maximum.reduce(arr, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def _openblas_libraries() -> list[str]:
    """The OpenBLAS that numpy's wheels bundle, if this numpy has one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")))


@functools.cache
def _blas_thread_setter():
    """The bundled OpenBLAS's set-thread-count function, or None; looked up
    once per process."""
    for path in _openblas_libraries():
        try:
            return ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


def use_one_blas_thread() -> None:
    """Run numpy's matrix products on one OpenBLAS thread. The matrices here
    are small (128-row training batches), and a second thread costs CPU
    without saving time. Does nothing without the bundled OpenBLAS."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)
