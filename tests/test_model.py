"""Classifier init/forward/backward, read-only parameters, scaling
propositions, and checkpoint round trips."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logitbench.data import LabeledDataset
from logitbench.errors import ConfigError, DataError, ShapeError
from logitbench.losses import LossConfig, loss_and_grad
from logitbench.model import (BLOCK_ROWS, MlpModel, _forward, backward, forward,
                              forward_blocks, init_model, input_gradient, load_checkpoint,
                              save_checkpoint)
from logitbench.optimizer import OptimConfig, train
from logitbench.tensor import Matrix2D, max_softmax

import tape_oracle
from conftest import (buffer_set_bytes, one_block_bytes, param_grads, several_blocks,
                      traced_peak)
from tape_oracle import apply_loss


def test_init_is_deterministic():
    a = init_model((2, 10, 3), seed=7)
    b = init_model((2, 10, 3), seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_rejects_single_dim():
    with pytest.raises(ConfigError):
        init_model((4,), seed=0)
    with pytest.raises(ConfigError):
        init_model((4, 0, 3), seed=0)


def test_init_weight_shapes_chain():
    m = init_model((2, 8, 8, 5), seed=1)
    assert [w.shape for w in m.weights] == [(2, 8), (8, 8), (8, 5)]
    assert [b.shape for b in m.biases] == [(1, 8), (1, 8), (1, 5)]
    assert all(np.all(b == 0.0) for b in m.biases)


def test_forward_zero_model_gives_zero_logits():
    dims = (3, 4, 2)
    m = MlpModel(dims,
                 tuple(np.zeros((a, b)) for a, b in zip(dims, dims[1:])),
                 tuple(np.zeros((1, b)) for b in dims[1:]))
    logits = forward(m, Matrix2D(np.array([[1.0, -2.0, 3.0]])))
    assert np.array_equal(logits, np.zeros((1, 2)))


def test_forward_single_identity_layer():
    m = MlpModel((2, 2), (np.eye(2),), (np.zeros((1, 2)),))
    logits = forward(m, Matrix2D(np.array([[1.0, 2.0]])))
    assert np.array_equal(logits, [[1.0, 2.0]])


def test_forward_output_shape():
    m = init_model((2, 4, 3), seed=3)
    logits = forward(m, Matrix2D(np.random.default_rng(0).standard_normal((5, 2))))
    assert logits.shape == (5, 3)


def test_forward_rejects_wrong_width():
    m = init_model((2, 4, 3), seed=3)
    with pytest.raises(ShapeError):
        forward(m, Matrix2D(np.zeros((5, 3))))


def test_forward_blocks_checks_the_width_and_every_block():
    """`forward_blocks` raises ShapeError before its first block on a wrong width,
    and DataError at the first block whose logits overflow, after the finite
    blocks before it."""
    model, x = several_blocks()
    with pytest.raises(ShapeError, match="^input has 15 features, model expects 16$"):
        next(forward_blocks(model.weights, model.biases, x[:, :15]))
    x = x.copy()
    x[2 * BLOCK_ROWS + 5] = np.finfo(np.float64).max
    blocks = forward_blocks(model.weights, model.biases, x)
    assert [next(blocks)[0] for _ in range(2)] == [0, BLOCK_ROWS]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DataError, match="^logits must be finite$"):
        next(blocks)


def test_traced_forward_matches_plain():
    """On a set of one block, `forward` gives the logits of `_forward` bit for
    bit, as one plain array."""
    m = init_model((4, 8, 6, 3), seed=11)
    x = Matrix2D(np.random.default_rng(1).standard_normal((6, 4)))
    want_inputs, want_logits = _forward(m.weights, m.biases, x.data)
    logits = forward(m, x)
    assert type(logits) is np.ndarray and logits.tobytes() == want_logits.tobytes()
    assert len(want_inputs) == 3 and want_inputs[0] is x.data


def test_forward_in_blocks_matches_one_whole_set_product():
    """`forward` runs a set several blocks long, the last one short, in blocks;
    its logits match one whole-set `_forward` within 1e-13 of the largest |logit|.
    The two take different OpenBLAS kernels past 1,562 rows, so each logit is the
    same dot products summed in another order: that moves a logit by a few ulps of
    the terms summed (2 ulps of the largest logit here), while a row written into
    the wrong place moves it by the logits' own size."""
    model, x = several_blocks()
    assert len(x) > 3 * BLOCK_ROWS and len(x) % BLOCK_ROWS
    want = _forward(model.weights, model.biases, x)[1]
    got = forward(model, Matrix2D(x))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_forward_works_in_blocks():
    """`forward`'s traced peak on a set nine blocks long stays below half of one
    whole-set forward's layer outputs."""
    model, x = several_blocks()
    features = Matrix2D(x)
    assert traced_peak(lambda: forward(model, features)) < buffer_set_bytes(len(x), model) / 2


def test_forward_holds_one_block_at_a_time():
    """`forward` releases each block before the next is computed: its traced peak
    stays within one block's working set and the logits it returns."""
    model, x = several_blocks()
    features = Matrix2D(x)
    peak = traced_peak(lambda: forward(model, features))
    assert peak < one_block_bytes(model, len(x) * model.num_classes * 8)


def test_input_gradient_apart_from_parameter_gradients():
    """`backward` fills the parameter gradients and returns nothing;
    `input_gradient` returns dL/dx alone."""
    m = init_model((3, 5, 2), seed=2)
    x = np.random.default_rng(2).standard_normal((1, 3))
    inputs, logits = _forward(m.weights, m.biases, x)
    upstream = np.full_like(logits, 0.5)
    grad_w = [np.full_like(w, np.nan) for w in m.weights]
    grad_b = [np.full_like(b, np.nan) for b in m.biases]
    assert backward(m.weights, inputs, upstream, grad_w, grad_b) is None
    assert len(grad_w) == len(grad_b) == 2
    assert all(np.isfinite(g).all() for g in (*grad_w, *grad_b))
    on = input_gradient(m.weights, inputs, upstream)
    assert on.shape == (1, 3) and np.any(on != 0.0)


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
                rng.uniform(-0.5, 0.5, b.shape) for b in model.biases))
        x = rng.standard_normal((37, 6))
        if trial % 2 == 0:
            x[5] = 0.0
        labels = rng.integers(0, 4, 37)
        weights = model.weights
        inputs, logits = _forward(weights, model.biases, x)
        zero_rows += int(np.sum(~logits.any(axis=1)))
        for cfg in (LossConfig("cross_entropy"), LossConfig("logit_norm", {"tau": 0.12}),
                    LossConfig("logit_penalty", {"lam": 0.05})):
            loss, grad = loss_and_grad(logits, labels, cfg)
            grad_w, grad_b = param_grads(weights, inputs, grad)
            trace = tape_oracle.forward_traced(model, Matrix2D(x))
            node = apply_loss(trace.tape, trace.logits, labels, cfg)
            trace.tape.backward(node)
            assert loss == node.value.item()
            for i in range(len(weights)):
                assert np.array_equal(grad_w[i], trace.tape.grad(trace.weights[i]))
                assert np.array_equal(grad_b[i], trace.tape.grad(trace.biases[i]))
    assert zero_rows == 2


@pytest.mark.parametrize("source", ["init_model", "train", "load_checkpoint"])
def test_model_parameters_are_read_only(source, tmp_path):
    """Every weight and bias is a read-only float64 array, whichever way the
    model was made; a trained model's are views of one flat array."""
    model = init_model((4, 8, 3), seed=1)
    if source == "train":
        rng = np.random.default_rng(2)
        data = LabeledDataset(Matrix2D(rng.standard_normal((40, 4))), rng.integers(0, 3, 40), 3)
        model, _ = train(model, data, LossConfig("cross_entropy"),
                         OptimConfig(epochs=2, batch_size=16, lr_drops=()), seed=0)
        assert len({id(p.base) for p in (*model.weights, *model.biases)}) == 1
    elif source == "load_checkpoint":
        save_checkpoint(model, tmp_path / "ckpt.txt")
        model, _ = load_checkpoint(tmp_path / "ckpt.txt")
    for p in (*model.weights, *model.biases):
        assert p.dtype == np.float64 and not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = 1.0


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
    before = max_softmax(f)[0]
    after = max_softmax(s * f)[0]
    assert after >= before - 1e-12


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
        assert np.array_equal(wa, wb)
    for ba, bb in zip(m.biases, loaded.biases):
        assert np.array_equal(ba, bb)
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


@pytest.mark.parametrize("line, bad", [(1, "nonsense abc"), (2, "kind relu"), (3, "dims 4 3 2")])
def test_checkpoint_rejects_a_header_line_without_its_keyword(tmp_path, line, bad):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 3, 2), seed=1), path, "abc")
    lines = path.read_text().splitlines()
    keyword = lines[line].split(" ")[0]
    lines[line] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line {line + 1}: "
                                        f"expected '{keyword}', got '{bad}'$"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["weight 0", "bias 1"])
def test_checkpoint_rejects_a_repeated_field(tmp_path, field):
    """A second line for a field would silently replace the first."""
    path = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 3, 2), seed=1), path)
    lines = path.read_text().splitlines()
    (repeat,) = [line for line in lines if line.startswith(field + " ")]
    path.write_text("\n".join(lines + [repeat]) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: repeated checkpoint field {field}$"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_relu_activation(tmp_path):
    path = _corrupt_checkpoint(tmp_path, "activation relu", "activation tanh")
    with pytest.raises(DataError, match="activation"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, line, value", [("weight 0", 4, "inf"), ("bias 1", 7, "nan")])
def test_checkpoint_rejects_non_finite_value(tmp_path, field, line, value):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(init_model((4, 3, 2), seed=1), path)
    lines = path.read_text().splitlines()
    assert lines[line].startswith(field + " ")
    tokens = lines[line].split()
    tokens[3] = value
    lines[line] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {field} values must be finite$"):
        load_checkpoint(path)
