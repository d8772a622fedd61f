"""Classifier init/forward/backward, logit decomposition, scaling
propositions, and checkpoint round trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logitbench.errors import ConfigError, DataError, ShapeError
from logitbench.losses import LOSS_KINDS, LossConfig, loss_and_grad
from logitbench.model import (MlpModel, decompose, forward, forward_traced,
                              init_model, load_checkpoint, predict,
                              save_checkpoint)
from logitbench.tensor import Matrix2D, rowwise_softmax

import tape_oracle
from tape_oracle import apply_loss


def test_init_is_deterministic():
    a = init_model((2, 10, 3), seed=7)
    b = init_model((2, 10, 3), seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa.data, wb.data)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba.data, bb.data)


def test_init_rejects_single_dim():
    with pytest.raises(ConfigError):
        init_model((4,), seed=0)
    with pytest.raises(ConfigError):
        init_model((4, 0, 3), seed=0)


def test_init_weight_shapes_chain():
    m = init_model((2, 8, 8, 5), seed=1)
    assert [w.shape for w in m.weights] == [(2, 8), (8, 8), (8, 5)]
    assert [b.shape for b in m.biases] == [(1, 8), (1, 8), (1, 5)]
    assert all(np.all(b.data == 0.0) for b in m.biases)


def test_forward_zero_model_gives_zero_logits():
    dims = (3, 4, 2)
    m = MlpModel(dims,
                 tuple(Matrix2D.zeros(a, b) for a, b in zip(dims, dims[1:])),
                 tuple(Matrix2D.zeros(1, b) for b in dims[1:]))
    out = forward(m, Matrix2D.from_rows([[1.0, -2.0, 3.0]]))
    assert np.array_equal(out.data, np.zeros((1, 2)))


def test_forward_single_identity_layer():
    m = MlpModel((2, 2), (Matrix2D(np.eye(2)),), (Matrix2D.zeros(1, 2),))
    out = forward(m, Matrix2D.from_rows([[1.0, 2.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_forward_output_shape():
    m = init_model((2, 4, 3), seed=3)
    out = forward(m, Matrix2D(np.random.default_rng(0).standard_normal((5, 2))))
    assert out.shape == (5, 3)


def test_forward_rejects_wrong_width():
    m = init_model((2, 4, 3), seed=3)
    with pytest.raises(ShapeError):
        forward(m, Matrix2D.zeros(5, 3))


def test_traced_forward_matches_plain():
    m = init_model((4, 8, 3), seed=11)
    x = Matrix2D(np.random.default_rng(1).standard_normal((6, 4)))
    tape, logits = forward_traced([w.data for w in m.weights], [b.data for b in m.biases], x.data)
    assert np.array_equal(logits, forward(m, x).data)
    assert tape.inputs[0] is x.data and len(tape.inputs) == 2


def test_traced_input_grad_flag():
    m = init_model((3, 5, 2), seed=2)
    x = np.random.default_rng(2).standard_normal((1, 3))
    tape, logits = forward_traced([w.data for w in m.weights], [b.data for b in m.biases], x)
    upstream = np.full_like(logits, 0.5)
    grad_w, grad_b, off = tape.backward(upstream)
    assert off is None and len(grad_w) == len(grad_b) == 2
    grad_w, grad_b, on = tape.backward(upstream, params=False, input_grad=True)
    assert grad_w == grad_b == [] and on.shape == (1, 3) and np.any(on != 0.0)


def test_gradients_match_tape_oracle_bitwise():
    """The explicit loss gradients and MLP backward repeat the tape's numpy
    operations in the tape's order, so every weight and bias gradient of
    every loss is bitwise equal to the tape's. Zero-bias batches include an
    all-zero input row, whose logit row is exactly zero."""
    rng = np.random.default_rng(31)
    zero_rows = 0
    for trial in range(4):
        model = init_model((6, 16, 12, 4), seed=trial)
        if trial % 2:
            model = MlpModel(model.layer_dims, model.weights, tuple(
                Matrix2D(rng.uniform(-0.5, 0.5, b.shape)) for b in model.biases))
        x = rng.standard_normal((37, 6))
        if trial % 2 == 0:
            x[5] = 0.0
        labels = rng.integers(0, 4, 37)
        weights = [w.data for w in model.weights]
        tape, logits = forward_traced(weights, [b.data for b in model.biases], x)
        zero_rows += int(np.sum(~logits.any(axis=1)))
        for kind in LOSS_KINDS:
            cfg = LossConfig(kind, tau=0.12, lam=0.05)
            loss, grad = loss_and_grad(logits, labels, cfg)
            grad_w, grad_b, _ = tape.backward(grad)
            trace = tape_oracle.forward_traced(model, Matrix2D(x))
            node = apply_loss(trace.tape, trace.logits, labels, cfg)
            trace.tape.backward(node)
            assert loss == node.value.item()
            for i in range(len(weights)):
                assert np.array_equal(grad_w[i], trace.tape.grad(trace.weights[i]))
                assert np.array_equal(grad_b[i], trace.tape.grad(trace.biases[i]))
    assert zero_rows == 2


# --------------------------------------------------------------------------
# Decomposition
# --------------------------------------------------------------------------

def test_decompose_pythagorean():
    d = decompose(np.array([3.0, 4.0]))
    assert d.magnitude == 5.0
    assert np.allclose(d.direction, [0.6, 0.8], atol=1e-15)
    assert not d.degenerate


def test_decompose_zero_vector_degenerate():
    d = decompose(np.zeros(4))
    assert d.magnitude == 0.0
    assert d.degenerate
    assert np.array_equal(d.direction, np.zeros(4))


def test_decompose_negative_diagonal():
    d = decompose(np.array([-1.0, -1.0]))
    assert abs(d.magnitude - np.sqrt(2)) < 1e-12
    assert np.allclose(d.direction, [-1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=10))
@example([0.0, 1.686484326538787e-160])  # squaring it underflows the norm
def test_decompose_reconstructs(row):
    v = np.array(row)
    d = decompose(v)
    assert np.max(np.abs(v - d.magnitude * d.direction)) <= 1e-10
    if d.magnitude > 0:
        assert abs(np.linalg.norm(d.direction) - 1.0) <= 1e-10


# --------------------------------------------------------------------------
# Scaling propositions (argmax invariance, confidence monotonicity)
# --------------------------------------------------------------------------

@given(st.lists(st.floats(-10, 10), min_size=2, max_size=12),
       st.sampled_from([1.5, 2.0, 10.0, 1000.0]))
def test_argmax_invariant_under_positive_scaling(row, s):
    f = np.array([row])
    assert np.argmax(s * f) == np.argmax(f)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=12),
       st.floats(1.0, 100.0))
def test_max_softmax_monotone_in_scale(row, s):
    f = np.array([row])
    c = int(np.argmax(f))
    before = rowwise_softmax(f)[0, c]
    after = rowwise_softmax(s * f)[0, c]
    assert after >= before - 1e-12


def test_predict_breaks_ties_to_lowest_index():
    m = MlpModel((2, 2), (Matrix2D.zeros(2, 2),), (Matrix2D.zeros(1, 2),))
    assert predict(m, Matrix2D.from_rows([[1.0, 1.0]]))[0] == 0


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = init_model((3, 6, 4), seed=42)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(m, path, config_hash="abc123")
    loaded, h = load_checkpoint(path)
    assert h == "abc123"
    assert loaded.layer_dims == m.layer_dims
    for wa, wb in zip(m.weights, loaded.weights):
        assert np.array_equal(wa.data, wb.data)
    for ba, bb in zip(m.biases, loaded.biases):
        assert np.array_equal(ba.data, bb.data)
    # Save-of-load reproduces the exact bytes.
    path2 = tmp_path / "ckpt2.txt"
    save_checkpoint(loaded, path2, config_hash="abc123")
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def _corrupt_checkpoint(tmp_path, old: str, new: str):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 3, 2), seed=1), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return path


def test_checkpoint_truncated_weight_line_is_data_error(tmp_path):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 3, 2), seed=1), path)
    lines = path.read_text().splitlines()
    lines[4] = " ".join(lines[4].split()[:12])  # 10 of the 12 weight values
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="reshape"):
        load_checkpoint(path)


def test_checkpoint_non_integer_layer_dims_is_data_error(tmp_path):
    path = _corrupt_checkpoint(tmp_path, "layer_dims 4 3 2", "layer_dims 4 3.5 2")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_non_relu_activation(tmp_path):
    path = _corrupt_checkpoint(tmp_path, "activation relu", "activation tanh")
    with pytest.raises(DataError, match="activation"):
        load_checkpoint(path)
