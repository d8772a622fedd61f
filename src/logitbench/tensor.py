"""Dense 64-bit matrices, the one stable softmax pass and what reads it, the
row norm, and the BLAS thread count."""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

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


def softmax_stats(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one stable softmax pass over the rows of arr: the row max m, arr - m,
    and the row sum of exp(arr - m); m and the sum are (rows, 1) columns."""
    m = np.maximum.reduce(arr, axis=1, keepdims=True)
    shifted = arr - m
    return m, shifted, np.add.reduce(np.exp(shifted), axis=1, keepdims=True)


def log_softmax(arr: np.ndarray) -> np.ndarray:
    _, shifted, total = softmax_stats(arr)
    return shifted - np.log(total)


def max_softmax(arr: np.ndarray) -> np.ndarray:
    """The max softmax probability of each row: exp(0) / total, the bits of the
    full softmax's row max, whose other entries are exp(x - m) / total <= it."""
    return 1.0 / softmax_stats(arr)[2][:, 0]


def row_l2_norm(arr: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm as a (rows, 1) column, by numpy's own norm kernels."""
    return np.sqrt(np.add.reduce(arr * arr, axis=1, keepdims=True))


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
