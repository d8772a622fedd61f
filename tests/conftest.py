"""Shared test helpers: finite-difference oracles, random instances and
file-backed data."""

import numpy as np
import pytest

from logitbench.data import gen_blobs, save_delimited, split


def central_difference(fn, x, h=1e-5):
    """Numerical gradient of a scalar function at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + h
        hi = fn(bumped)
        bumped[idx] = x[idx] - h
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2.0 * h)
        it.iternext()
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4, abs_tol=1e-6):
    """Relative comparison with an absolute floor near zero."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    denom = np.maximum(np.abs(numeric), abs_tol / rel)
    err = np.abs(analytic - numeric) / denom
    assert err.max() <= rel, f"max relative gradient error {err.max():.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_file_data(tmp_path, test_dim=4):
    """Write 3-class, d=4 train.csv and test.csv (the test file `test_dim`
    wide) with save_delimited. Returns (the "data" config section for them,
    train set, test set)."""
    full = gen_blobs(k=3, d=4, n_per_class=50, cluster_spread=0.5,
                     cluster_radius=3.0, seed=5)
    train, test = split(full, (0.8, 0.2), seed=6)
    if test_dim != 4:
        test = gen_blobs(k=3, d=test_dim, n_per_class=10, cluster_spread=0.5,
                         cluster_radius=3.0, seed=7)
    save_delimited(train, tmp_path / "train.csv")
    save_delimited(test, tmp_path / "test.csv")
    data = {"kind": "file", "k": 3, "val_fraction": 0.2,
            "train_path": str(tmp_path / "train.csv"),
            "test_path": str(tmp_path / "test.csv")}
    return data, train, test
