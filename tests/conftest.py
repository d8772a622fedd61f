"""Shared test helpers: finite-difference oracles, the MLP backward into new
arrays, random instances, the per-sample logit-norm loss, file-backed data,
the committed desk config, and traced memory peaks against a set several
evaluation blocks long, with their bounds."""

import copy
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from logitbench.data import gen_blobs, split
from logitbench.harness import load_config
from logitbench.losses import LOGIT_NORM, LOSS_PARAMS, cross_entropy_values
from logitbench.model import BLOCK_ROWS, MlpModel, backward, init_model
from logitbench.tensor import use_one_blas_thread

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def pytest_sessionstart(session):
    # cli.main pins BLAS to one thread, but most tests call the harness
    # directly; pin it for the whole session as the program runs.
    use_one_blas_thread()


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


def param_grads(weights, inputs, grad):
    """`model.backward` into new arrays: (weight gradients, bias gradients)."""
    grad_w = [np.empty_like(w) for w in weights]
    grad_b = [np.empty((1, w.shape[1])) for w in weights]
    backward(weights, inputs, grad, grad_w, grad_b)
    return grad_w, grad_b


def traced_peak(fn) -> int:
    """The peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def buffer_set_bytes(n: int, model: MlpModel) -> int:
    """The bytes of one whole-set forward's layer outputs: n rows of every
    layer's width, in float64."""
    return n * sum(model.layer_dims[1:]) * 8


def one_block_bytes(model: MlpModel, held: int) -> int:
    """A traced peak bound for an evaluation that holds one block at a time: one
    block's layer outputs, half as much again for the temporaries computing it
    makes (numpy's ufunc buffer for `_forward`'s in-place bias add, a softmax's
    arrays), and `held` bytes of the caller's own arrays. A second live block
    exceeds it."""
    return buffer_set_bytes(BLOCK_ROWS, model) * 3 // 2 + held


def several_blocks() -> tuple[MlpModel, np.ndarray]:
    """A desk-shaped model (16-64-64-10, nonzero biases) and a set of eight whole
    evaluation blocks and a short ninth: more rows than the 1,562 at which a
    whole-set 64 -> 10 product leaves OpenBLAS's small-product kernel."""
    rng = np.random.default_rng(21)
    model = init_model((16, 64, 64, 10), seed=20)
    model = dataclasses.replace(model, biases=tuple(
        rng.uniform(-0.5, 0.5, b.shape) for b in model.biases))
    return model, rng.normal(0.0, 2.0, (8 * BLOCK_ROWS + 37, 16))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def logitnorm_values(logits, labels, tau: float) -> np.ndarray:
    """Per-sample logit-norm loss: cross-entropy on f / (tau * (||f|| + eps)),
    eps the default stability_eps."""
    norms = np.linalg.norm(logits, axis=1, keepdims=True)
    normalized = logits / (tau * (norms + LOSS_PARAMS[LOGIT_NORM]["stability_eps"][0]))
    return cross_entropy_values(normalized, labels)


def save_delimited(dataset, path) -> None:
    """Write a LabeledDataset in the format load_delimited reads: one row
    per line, 17 significant digits, the label last."""
    with open(path, "w") as fh:
        for row, label in zip(dataset.features.data, dataset.labels):
            fh.write(",".join([*(f"{v:.17g}" for v in row), str(int(label))]) + "\n")


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


def load_desk(seeds, epochs, output_dir):
    """configs/desk.json run for `seeds` into `output_dir`, shortened from
    its 200 epochs to `epochs` with the learning-rate drops scaled to match
    (epochs 80 and 140 become 8 and 14 at 20 epochs)."""
    cfg = load_config(CONFIGS / "desk.json")
    full = cfg.optim.epochs
    optim = dataclasses.replace(
        cfg.optim, epochs=epochs,
        lr_drops=tuple((e * epochs // full, f) for e, f in cfg.optim.lr_drops))
    return dataclasses.replace(cfg, seeds=tuple(seeds), output_dir=output_dir, optim=optim)


def replaced(raw, path, value):
    """A copy of the JSON document raw with the value at key path `path`
    (a tuple of keys and list indices, () for the whole document) replaced."""
    if not path:
        return value
    raw = copy.deepcopy(raw)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw
