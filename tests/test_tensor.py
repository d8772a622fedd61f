"""Matrix container, stable softmax, the explicit loss and MLP gradients,
and the reference gradient tape kept in tests/tape_oracle.py."""

import ctypes.util

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logitbench import scores, tensor
from logitbench.data import LabeledDataset
from logitbench.errors import DataError, ShapeError
from logitbench.losses import LossConfig, loss_and_grad
from logitbench.model import MlpModel, _forward, backward, forward, input_gradient
from logitbench.scores import ScoreConfig
from logitbench.tensor import (Matrix2D, log_softmax, max_softmax, row_l2_norm,
                               use_one_blas_thread)

from conftest import assert_grad_close, central_difference, param_grads
from tape_oracle import GradTape as OracleTape
import tape_oracle
from tape_oracle import NonScalarLoss
from tape_oracle import log_softmax as oracle_log_softmax


# --------------------------------------------------------------------------
# Matrix2D
# --------------------------------------------------------------------------

def test_matrix_requires_2d():
    with pytest.raises(ShapeError):
        Matrix2D(np.zeros(3))
    with pytest.raises(ShapeError):
        Matrix2D(np.zeros((2, 2, 2)))


def test_matrix_rejects_non_finite():
    with pytest.raises(DataError):
        Matrix2D(np.array([[1.0, np.nan]]))
    with pytest.raises(DataError):
        Matrix2D(np.array([[np.inf, 0.0]]))


def test_matrix_is_immutable():
    m = Matrix2D(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        m.data[0, 0] = 9.0


# --------------------------------------------------------------------------
# Softmax and norms
# --------------------------------------------------------------------------

def softmax(z):
    return np.exp(log_softmax(z))


def test_softmax_symmetric_pair():
    out = softmax(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)
    assert np.allclose(max_softmax(np.array([[0.0, 0.0]])), [0.5], atol=1e-15)


def test_softmax_large_equal_entries_no_overflow():
    out = softmax(np.array([[1000.0, 1000.0, 1000.0]]))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)
    assert np.allclose(max_softmax(np.array([[1000.0, 1000.0, 1000.0]])), [1 / 3], atol=1e-15)


def test_softmax_two_class_value():
    out = softmax(np.array([[2.0, 1.0]]))
    e2, e1 = np.exp(2.0), np.exp(1.0)
    assert np.allclose(out, [[e2 / (e2 + e1), e1 / (e2 + e1)]], atol=1e-12)
    assert abs(out[0, 0] - 0.7311) < 5e-5 and abs(out[0, 1] - 0.2689) < 5e-5
    assert np.allclose(max_softmax(np.array([[2.0, 1.0]])), [e2 / (e2 + e1)], atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-1e6, 1e6))
def test_softmax_shift_invariance(row, c):
    z = np.array([row])
    assert np.allclose(softmax(z + c), softmax(z), atol=1e-12)
    assert np.allclose(max_softmax(z + c), max_softmax(z), atol=1e-12)


@given(st.lists(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = softmax(np.array(rows))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(max_softmax(np.array(rows)), out.max(axis=1), atol=1e-12)


def test_row_l2_norm_examples():
    assert row_l2_norm(np.array([[3.0, 4.0]]))[0, 0] == 5.0
    assert row_l2_norm(np.array([[0.0, 0.0, 0.0]]))[0, 0] == 0.0
    assert row_l2_norm(np.array([[1.0, 1.0, 1.0, 1.0]]))[0, 0] == 2.0


def test_log_softmax_matches_log_of_softmax():
    z = np.array([[1.0, -2.0, 0.5], [3.0, 3.0, -1.0]])
    assert np.allclose(log_softmax(z), np.log(tape_oracle.softmax(z)), atol=1e-12)


def reduction_draws(seed):
    """Seeded float64 matrices for the reduction identities below: rows of
    zeros, rows with tied entries, magnitudes from 1e-300 to past
    sqrt(max double), where the squares in a row norm overflow, and up to
    300 rows, past the 128-element blocks of numpy's pairwise summation."""
    rng = np.random.default_rng(seed)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        scale = rng.choice([1e-300, 1e-8, 1.0, 1e3, 1e150, 1e154, 1e200, 1e307])
        x = rng.standard_normal((rows, cols)) * scale
        tied = rng.random(rows) < 0.3
        x[tied] = np.round(x[tied] / scale) * scale
        x[rng.random(rows) < 0.2] = 0.0
        yield x


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_direct_reduction_kernels_match_numpy_wrappers_bitwise(seed):
    """The training step calls the ufunc reduction kernels directly; each
    call gives the bytes of the numpy wrapper it stands for: np.linalg.norm
    (through row_l2_norm), ndarray.mean (over the picked log-probabilities and
    over the (rows, 1) norms), ndarray.sum, np.sum into `out` (the backward's bias gradient,
    checked through model.backward) and ndarray.max (through log_softmax,
    against the oracle's copy written with the wrappers)."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for x in reduction_draws(seed):
            norms = tape_oracle.row_l2_norm(x)
            assert same_bytes(row_l2_norm(x), norms)
            picked = x[np.arange(len(x)), np.argmin(x, axis=1)]
            assert same_bytes(np.add.reduce(picked) / len(picked), picked.mean())
            assert same_bytes(np.add.reduce(norms, axis=None) / norms.size, norms.mean())
            assert same_bytes(np.add.reduce(x, axis=1, keepdims=True),
                              x.sum(axis=1, keepdims=True))
            assert same_bytes(np.maximum.reduce(x, axis=1, keepdims=True),
                              x.max(axis=1, keepdims=True))
            _, (grad_b,) = param_grads([np.ones((1, x.shape[1]))], [np.ones((len(x), 1))], x)
            assert same_bytes(grad_b, np.sum(x, axis=0, keepdims=True))
            assert same_bytes(log_softmax(x), oracle_log_softmax(x))


def softmax_draws(k, rng):
    """Logit arrays of k columns at every decade of scale from 1e-3 to 1e5: rows
    with the row max tied exactly, rows of one repeated value and rows on a
    coarse grid, where many entries tie, among rows of normal draws."""
    for scale in 10.0 ** np.arange(-3, 6):
        for _ in range(8):
            x = rng.standard_normal((64, k)) * scale
            x[::4, 1] = x[::4].max(axis=1)
            x[1::4] = x[1::4, :1]
            x[2::4] = np.round(x[2::4] / scale * 2.0) * (scale / 2.0)
            yield x


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("k", range(2, 17))
def test_one_pass_softmax_readers_match_their_textbook_forms_bitwise(k):
    # MSP (1 / total), ODIN's tempered MSP and Energy (T * (m + log total)) read
    # one softmax_stats pass; each gives the bits of the full softmax's row max
    # or of the old log-sum-exp, and row_l2_norm those of np.linalg.norm.
    # score_batch runs the detectors themselves, at the desk's ODIN T = 1000 and
    # Energy T = 0.25, on a one-layer identity model, whose logits are its inputs
    # up to the sign of a zero.
    model = MlpModel((k, k), (np.eye(k),), (np.zeros((1, k)),))
    detectors = (ScoreConfig("msp"), ScoreConfig("odin", {"T": 1000.0, "eps": 0.0}),
                 ScoreConfig("energy", {"T": 0.25}))
    rng = np.random.default_rng(k)
    draws = list(softmax_draws(k, rng))
    assert len(draws) == 72
    for x in draws:
        assert np.array_equal(bits(max_softmax(x)), bits(tape_oracle.max_softmax(x)))
        assert np.array_equal(bits(row_l2_norm(x)), bits(tape_oracle.row_l2_norm(x)))
        logits = forward(model, Matrix2D(x))
        assert np.array_equal(logits, x)
        msp, odin, energy = scores.score_batch(model, Matrix2D(x), *detectors)
        assert np.array_equal(bits(msp), bits(tape_oracle.max_softmax(logits)))
        assert np.array_equal(bits(odin), bits(tape_oracle.max_softmax(logits / 1000.0)))
        assert np.array_equal(bits(energy), bits(tape_oracle.energy(logits, 0.25)))


# --------------------------------------------------------------------------
# Tape oracle: structure and simple exact gradients
# --------------------------------------------------------------------------

def test_tape_parents_precede_children():
    tape = OracleTape()
    x = tape.leaf(np.ones((2, 3)))
    w = tape.leaf(np.ones((3, 2)))
    h = tape.matmul(x, w)
    r = tape.relu(h)
    loss = tape.mean_all(r)
    for node in tape.nodes:
        assert all(p < node.index for p in node.parents)
    assert loss.index == len(tape.nodes) - 1


def test_backward_rejects_non_scalar():
    tape = OracleTape()
    x = tape.leaf(np.ones((2, 2)))
    y = tape.relu(x)
    with pytest.raises(NonScalarLoss):
        tape.backward(y)


def test_grad_of_sum_is_ones():
    tape = OracleTape()
    x = tape.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]))
    tape.backward(tape.sum_all(x))
    assert np.array_equal(tape.grad(x), np.ones((2, 2)))


def test_grad_of_half_squared_norm_is_identity():
    # loss = 0.5 * ||x||^2 built as 0.5 * (row_l2_norm(x) @ row_l2_norm(x))
    tape = OracleTape()
    x = tape.leaf(np.array([[3.0, 4.0]]))
    n = tape.row_l2_norm(x)
    loss = tape.scale(tape.matmul(n, n), 0.5)
    tape.backward(loss)
    assert np.allclose(tape.grad(x), [[3.0, 4.0]], atol=1e-12)


def test_leaf_without_requires_grad_gets_zero_grad():
    tape = OracleTape()
    x = tape.leaf(np.ones((1, 3)), requires_grad=False)
    w = tape.leaf(np.ones((3, 2)))
    tape.backward(tape.sum_all(tape.matmul(x, w)))
    assert np.array_equal(tape.grad(x), np.zeros((1, 3)))
    assert tape.grad(w).shape == (3, 2)


def test_uniform_ce_gradient_closed_form():
    logits_val = np.array([[2.0, -1.0, 0.0]])
    tape = OracleTape()
    logits = tape.leaf(logits_val)
    tape.backward(tape.uniform_cross_entropy(logits))
    expected = tape_oracle.softmax(logits_val) - 1.0 / 3.0
    assert np.allclose(tape.grad(logits), expected, atol=1e-12)


# --------------------------------------------------------------------------
# Explicit gradients: exact cases
# --------------------------------------------------------------------------

def test_zero_row_norm_subgradient_is_zero():
    zeros = np.zeros((2, 3))
    labels = np.array([0, 2])
    ce_grad = loss_and_grad(zeros, labels, LossConfig("cross_entropy"))[1]
    penalty = LossConfig("logit_penalty", {"lam": 0.5})
    assert np.array_equal(loss_and_grad(zeros, labels, penalty)[1], ce_grad)
    norm = LossConfig("logit_norm", {"tau": 0.5})
    assert np.array_equal(loss_and_grad(zeros, labels, norm)[1],
                          ce_grad / (norm.params["tau"] * norm.params["stability_eps"]))


def test_softmax_ce_label_out_of_range():
    # loss_and_grad takes labels in [0, k) as LabeledDataset holds them;
    # an out-of-range label is rejected there, once, not on every step.
    logits = Matrix2D(np.zeros((2, 3)))
    with pytest.raises(DataError):
        LabeledDataset(logits, np.array([0, 3]), 3)
    with pytest.raises(DataError):
        LabeledDataset(logits, np.array([-1, 0]), 3)


def test_softmax_ce_gradient_closed_form():
    logits_val = np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -0.4]])
    labels = np.array([2, 0])
    grad = loss_and_grad(logits_val, labels, LossConfig("cross_entropy"))[1]
    probs = tape_oracle.softmax(logits_val)
    expected = probs.copy()
    expected[np.arange(2), labels] -= 1.0
    assert np.allclose(grad, expected / 2.0, atol=1e-12)


def test_backward_is_deterministic():
    rng = np.random.default_rng(7)
    x_val = rng.standard_normal((3, 4))
    weights = [rng.standard_normal((4, 5)), rng.standard_normal((5, 2))]
    biases = [np.zeros((1, 5)), np.zeros((1, 2))]
    grads = []
    for _ in range(2):
        inputs, logits = _forward(weights, biases, x_val)
        _, grad = loss_and_grad(logits, np.array([0, 1, 1]), LossConfig("cross_entropy"))
        grad_w, grad_b = param_grads(weights, inputs, grad)
        grads.append([*grad_w, *grad_b, input_gradient(weights, inputs, grad)])
    assert all(np.array_equal(a, b) for a, b in zip(*grads))


def test_backward_writes_into_given_arrays():
    """The parameter gradients land in the given arrays (here views of one
    flat buffer, as in training) with the bits of a backward into separate
    new arrays."""
    rng = np.random.default_rng(8)
    weights = [rng.standard_normal((4, 5)), rng.standard_normal((5, 2))]
    inputs, logits = _forward(weights, [np.zeros((1, 5)), np.zeros((1, 2))],
                              rng.standard_normal((6, 4)))
    upstream = rng.standard_normal(logits.shape)
    flat = np.full(20 + 10 + 5 + 2, np.nan)
    backward(weights, inputs, upstream,
             [flat[:20].reshape(4, 5), flat[20:30].reshape(5, 2)],
             [flat[30:35].reshape(1, 5), flat[35:].reshape(1, 2)])
    new_w, new_b = param_grads(weights, inputs, upstream)
    assert flat.tobytes() == np.concatenate([g.ravel() for g in (*new_w, *new_b)]).tobytes()


# --------------------------------------------------------------------------
# Explicit gradients: finite-difference checks
# --------------------------------------------------------------------------

def _mlp_scalar(weights, biases, x, reduce):
    return reduce(_forward(weights, biases, x)[1])


@pytest.mark.parametrize("seed", range(6))
def test_fd_matmul_chain(seed, rng):
    local = np.random.default_rng(seed)
    x_val = local.uniform(-2, 2, size=(3, 4))
    w_val = local.uniform(-2, 2, size=(4, 5))
    b_val = np.zeros((1, 5))
    upstream = np.full((3, 5), 1.0 / 15)
    grad_w, _ = param_grads([w_val], [x_val], upstream)
    grad_x = input_gradient([w_val], [x_val], upstream)
    assert_grad_close(grad_x, central_difference(
        lambda x: _mlp_scalar([w_val], [b_val], x, np.mean), x_val))
    assert_grad_close(grad_w[0], central_difference(
        lambda w: _mlp_scalar([w], [b_val], x_val, np.mean), w_val))


@pytest.mark.parametrize("seed", range(4))
def test_fd_relu(seed):
    local = np.random.default_rng(100 + seed)
    # An identity first layer makes x the pre-activation; keep its entries
    # away from the kink so central differences are valid.
    x_val = local.uniform(-2, 2, size=(4, 3))
    x_val[np.abs(x_val) < 1e-3] += 0.01
    weights = [np.eye(3), local.uniform(-1, 1, size=(3, 2))]
    biases = [np.zeros((1, 3)), np.zeros((1, 2))]
    inputs, _ = _forward(weights, biases, x_val)
    grad_x = input_gradient(weights, inputs, np.full((4, 2), 1.0 / 8))
    assert_grad_close(grad_x, central_difference(
        lambda x: _mlp_scalar(weights, biases, x, np.mean), x_val))


@pytest.mark.parametrize("seed", range(4))
def test_fd_add_row_and_scale(seed):
    local = np.random.default_rng(200 + seed)
    x_val = local.uniform(-2, 2, size=(3, 4))
    w_val = local.uniform(-1, 1, size=(4, 4))
    b_val = local.uniform(-1, 1, size=(1, 4))
    _, grad_b = param_grads([w_val], [x_val], np.full((3, 4), 0.3))
    assert_grad_close(grad_b[0], central_difference(
        lambda b: _mlp_scalar([w_val], [b], x_val, lambda f: 0.3 * f.sum()), b_val))


@pytest.mark.parametrize("seed", range(4))
def test_fd_row_norm_and_div(seed):
    local = np.random.default_rng(300 + seed)
    x_val = local.uniform(0.5, 2.0, size=(3, 4)) * np.sign(
        local.standard_normal((3, 4)))
    labels = local.integers(0, 4, size=3)
    cfg = LossConfig("logit_norm", {"tau": 1.0})
    analytic = loss_and_grad(x_val, labels, cfg)[1]
    assert_grad_close(analytic, central_difference(
        lambda x: loss_and_grad(x, labels, cfg)[0], x_val))


@pytest.mark.parametrize("seed", range(4))
def test_fd_softmax_ce(seed):
    local = np.random.default_rng(400 + seed)
    x_val = local.uniform(-2, 2, size=(5, 4))
    labels = local.integers(0, 4, size=5)
    cfg = LossConfig("cross_entropy")
    analytic = loss_and_grad(x_val, labels, cfg)[1]
    assert_grad_close(analytic, central_difference(
        lambda x: loss_and_grad(x, labels, cfg)[0], x_val))


@pytest.mark.parametrize("seed", range(4))
def test_fd_uniform_ce(seed):
    # The GradNorm objective: cross-entropy between softmax(f) and the
    # uniform distribution, pulled back to the last-layer weights.
    local = np.random.default_rng(500 + seed)
    x_val = local.uniform(-2, 2, size=(4, 6))
    weights = [local.uniform(-1, 1, size=(6, 5)), local.uniform(-1, 1, size=(5, 3))]
    biases = [local.uniform(-1, 1, size=(1, 5)), np.zeros((1, 3))]

    def uniform_ce(f):
        return -log_softmax(f).mean(axis=1).mean()

    inputs, logits = _forward(weights, biases, x_val)
    upstream = (tape_oracle.softmax(logits) - 1.0 / 3) / 4
    grad_w, _ = param_grads(weights, inputs, upstream)
    assert_grad_close(grad_w[-1], central_difference(
        lambda w: _mlp_scalar([weights[0], w], biases, x_val, uniform_ce), weights[-1]))


def test_fd_bias_gradient():
    local = np.random.default_rng(600)
    x_val = local.uniform(-2, 2, size=(4, 3))
    b_val = local.uniform(-1, 1, size=(1, 3))
    labels = np.array([0, 2, 1, 1])
    cfg = LossConfig("cross_entropy")
    inputs, logits = _forward([np.eye(3)], [b_val], x_val)
    _, grad_b = param_grads([np.eye(3)], inputs, loss_and_grad(logits, labels, cfg)[1])
    assert_grad_close(grad_b[0], central_difference(
        lambda b: loss_and_grad(x_val @ np.eye(3) + b, labels, cfg)[0], b_val))


# --------------------------------------------------------------------------
# BLAS thread count
# --------------------------------------------------------------------------

@pytest.fixture
def fresh_blas_lookup():
    """Forget the cached library lookup before and after the test, so that a
    patched lookup neither finds nor leaves a cached result."""
    tensor._blas_thread_setter.cache_clear()
    yield
    tensor._blas_thread_setter.cache_clear()


@pytest.mark.parametrize("library", [None, "/nonexistent/libscipy_openblas64_-0.so", "c"],
                         ids=["none", "missing_file", "no_symbol"])
def test_one_blas_thread_is_a_silent_noop_without_the_library(library, monkeypatch,
                                                              fresh_blas_lookup, capfd):
    if library == "c":
        library = ctypes.util.find_library("c")
        if library is None:
            pytest.skip("no C library found to load")
    monkeypatch.setattr(tensor, "_openblas_libraries", lambda: [library] if library else [])
    use_one_blas_thread()
    assert tensor._blas_thread_setter() is None
    assert capfd.readouterr() == ("", "")


def test_blas_library_is_looked_up_once(monkeypatch, fresh_blas_lookup):
    lookups = []
    monkeypatch.setattr(tensor, "_openblas_libraries", lambda: lookups.append(1) or [])
    for _ in range(3):
        use_one_blas_thread()
    assert lookups == [1]
