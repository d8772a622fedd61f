"""SGD trainer tests: schedule arithmetic, determinism, learning on an easy
problem, and telemetry output."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from logitbench.data import LabeledDataset, gen_blobs, gen_ood
from logitbench.errors import ConfigError, DivergedError
from logitbench.harness import csv_table, field_names
from logitbench.losses import LossConfig, loss_and_grad
from logitbench.model import _forward, init_model
from logitbench.optimizer import EpochTelemetry, OptimConfig, lr_at, train
from logitbench.tensor import Matrix2D, row_l2_norm

from conftest import param_grads
from tape_oracle import apply_loss, forward_traced


def easy_dataset(seed=0):
    return gen_blobs(k=2, d=4, n_per_class=100, cluster_spread=0.3,
                     cluster_radius=4.0, seed=seed)


def small_optim(**overrides):
    base = dict(lr0=0.1, momentum=0.9, weight_decay=5e-4, epochs=10,
                batch_size=32, lr_drops=((4, 0.1), (7, 0.1)))
    base.update(overrides)
    return OptimConfig(**base)


SGD_SEED = 3


def telemetry_text(history):
    return csv_table(field_names(EpochTelemetry), history)


# ---------------------------------------------------------------------------
# config and schedule


def test_optim_config_validation():
    with pytest.raises(ConfigError):
        OptimConfig(lr0=-0.1)
    with pytest.raises(ConfigError):
        OptimConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        OptimConfig(weight_decay=-1e-4)
    with pytest.raises(ConfigError):
        OptimConfig(batch_size=0)
    with pytest.raises(ConfigError):
        OptimConfig(epochs=100, lr_drops=((120, 0.1),))
    with pytest.raises(ConfigError):
        OptimConfig(epochs=100, lr_drops=((50, 0.1), (30, 0.1)))
    with pytest.raises(ConfigError, match="factors must be nonnegative"):
        OptimConfig(epochs=100, lr_drops=((30, 0.1), (50, -2.0)))


def test_lr_schedule_values():
    cfg = OptimConfig(lr0=0.1, epochs=200, lr_drops=((80, 0.1), (140, 0.1)))
    assert lr_at(cfg, 0) == pytest.approx(0.1)
    assert lr_at(cfg, 79) == pytest.approx(0.1)
    assert lr_at(cfg, 80) == pytest.approx(0.01)
    assert lr_at(cfg, 139) == pytest.approx(0.01)
    assert lr_at(cfg, 140) == pytest.approx(0.001)
    assert lr_at(cfg, 199) == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# training behavior


def test_train_rejects_mismatched_model():
    ds = easy_dataset()
    model = init_model((3, 8, 2), seed=0)  # wrong input dim
    with pytest.raises(ConfigError):
        train(model, ds, LossConfig("cross_entropy"), small_optim(), SGD_SEED)


def test_train_learns_separable_problem():
    ds = easy_dataset()
    model = init_model((4, 16, 2), seed=1)
    trained, history = train(model, ds, LossConfig("cross_entropy"),
                             small_optim(epochs=50, lr_drops=((30, 0.1),)), SGD_SEED)
    assert history[-1].train_acc >= 0.99
    assert history[-1].train_loss < history[0].train_loss


def test_train_zero_lr_freezes_parameters():
    ds = easy_dataset()
    model = init_model((4, 8, 2), seed=2)
    trained, history = train(model, ds, LossConfig("cross_entropy"),
                             small_optim(lr0=0.0, epochs=3, batch_size=ds.n,
                                         lr_drops=()), SGD_SEED)
    for w0, w1 in zip(model.weights, trained.weights):
        assert np.array_equal(w0, w1)
    # telemetry still recorded, with a flat loss curve
    assert len(history) == 3
    assert history[0].train_loss == history[-1].train_loss


def test_train_is_deterministic():
    ds = easy_dataset()
    runs = []
    for _ in range(2):
        model = init_model((4, 8, 2), seed=5)
        trained, history = train(model, ds, LossConfig("cross_entropy"),
                                 small_optim(epochs=5, lr_drops=()), SGD_SEED)
        runs.append((trained, telemetry_text(history)))
    assert runs[0][1] == runs[1][1]
    for w0, w1 in zip(runs[0][0].weights, runs[1][0].weights):
        assert np.array_equal(w0, w1)


def test_momentum_zero_matches_plain_sgd():
    """With momentum 0 and weight decay 0 the velocity buffers are inert:
    one full-batch step must equal model - lr * grad exactly."""
    ds = easy_dataset()
    model = init_model((4, 8, 2), seed=6)
    cfg = small_optim(momentum=0.0, weight_decay=0.0, epochs=1,
                      batch_size=ds.n, lr_drops=())
    trained, _ = train(model, ds, LossConfig("cross_entropy"), cfg, SGD_SEED)

    # Reference step computed with the reference tape.
    trace = forward_traced(model, ds.features)
    loss = apply_loss(trace.tape, trace.logits, ds.labels, LossConfig("cross_entropy"))
    trace.tape.backward(loss)
    for i, w in enumerate(model.weights):
        expected = w - cfg.lr0 * trace.tape.grad(trace.weights[i])
        assert np.allclose(trained.weights[i], expected, atol=1e-12)


def test_weight_decay_shrinks_weights_only():
    """Training on pure-noise labels with a large decay drives weight norms
    down relative to a decay-free run; biases are exempt from decay."""
    rng = np.random.default_rng(9)
    feats = Matrix2D(rng.standard_normal((200, 4)))
    labels = rng.integers(0, 2, 200)
    ds = LabeledDataset(feats, labels, 2)
    model = init_model((4, 8, 2), seed=7)
    heavy, _ = train(model, ds, LossConfig("cross_entropy"),
                     small_optim(weight_decay=0.05, epochs=20, lr_drops=()), SGD_SEED)
    free, _ = train(model, ds, LossConfig("cross_entropy"),
                    small_optim(weight_decay=0.0, epochs=20, lr_drops=()), SGD_SEED)
    heavy_norm = sum(np.linalg.norm(w) for w in heavy.weights)
    free_norm = sum(np.linalg.norm(w) for w in free.weights)
    assert heavy_norm < free_norm


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_raises():
    ds = easy_dataset()
    model = init_model((4, 8, 2), seed=8)
    with pytest.raises(DivergedError) as exc:
        train(model, ds, LossConfig("cross_entropy"),
              small_optim(lr0=1e6, momentum=0.99, epochs=5, lr_drops=()), SGD_SEED)
    assert exc.value.what == "loss"
    assert str(exc.value) == "non-finite loss at epoch 4, step 6"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_names_non_finite_parameters():
    """With tau 1e-300 the logit-norm gradient divides by a square that
    underflows to zero: the first step's loss is finite, its update is not."""
    ds = easy_dataset()
    model = init_model((4, 8, 2), seed=8)
    with pytest.raises(DivergedError) as exc:
        train(model, ds, LossConfig("logit_norm", {"tau": 1e-300}), small_optim(), SGD_SEED)
    assert (exc.value.what, exc.value.epoch, exc.value.step) == ("parameters", 0, 0)
    assert str(exc.value) == "non-finite parameters at epoch 0, step 0"


def per_array_train(model, dataset, loss_cfg, optim_cfg, seed, probe_ood):
    """The SGD loop as written before the parameters shared one flat buffer:
    one momentum and decay update per parameter array, and an epoch-end
    forward into new arrays. Returns (weights, biases, telemetry)."""
    rng = np.random.default_rng(seed)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    x_all, y_all = dataset.features.data, dataset.labels
    telemetry = []
    for epoch in range(optim_cfg.epochs):
        lr = lr_at(optim_cfg, epoch)
        order = rng.permutation(dataset.n)
        loss_sum = 0.0
        loss_batches = 0
        for start in range(0, dataset.n, optim_cfg.batch_size):
            batch = order[start:start + optim_cfg.batch_size]
            inputs, logits = _forward(weights, biases, x_all[batch])
            loss, grad = loss_and_grad(logits, y_all[batch], loss_cfg)
            loss_sum += loss
            loss_batches += 1
            grad_w, grad_b = param_grads(weights, inputs, grad)
            for w, b, vw, vb, gw, gb in zip(weights, biases, vel_w, vel_b, grad_w, grad_b):
                gw += optim_cfg.weight_decay * w
                vw *= optim_cfg.momentum
                vw += gw
                vb *= optim_cfg.momentum
                vb += gb
                w -= lr * vw
                b -= lr * vb
        outputs = [_forward(weights, biases, x)[1] for x in (x_all, probe_ood.data)]
        norms = [float(row_l2_norm(f).mean()) for f in outputs]
        telemetry.append(EpochTelemetry(
            epoch + 1, loss_sum / loss_batches,
            float((np.argmax(outputs[0], axis=1) == y_all).mean()), norms[0], norms[1]))
    return weights, biases, telemetry


@pytest.mark.parametrize("loss_cfg", [LossConfig("cross_entropy"),
                                      LossConfig("logit_norm", {"tau": 0.04}),
                                      LossConfig("logit_penalty")], ids=lambda c: c.kind)
def test_train_matches_per_array_sgd_bitwise(loss_cfg):
    """The flat-buffer update and the buffered epoch-end forward do the same
    floating-point operations as the per-array loop, element for element:
    momentum, weight decay, an lr drop, a short last batch and a probe set,
    smaller and then larger than the training set, whose forward shares the
    training set's buffers."""
    ds = easy_dataset()
    model = init_model((4, 16, 8, 2), seed=12)
    cfg = small_optim(epochs=6, lr_drops=((3, 0.1),))
    for m in (50, 3 * ds.n // 2):
        ood = gen_ood("gaussian_noise", d=4, m=m, seed=2)
        trained, history = train(model, ds, loss_cfg, cfg, SGD_SEED, probe_ood=ood)
        weights, biases, expected = per_array_train(model, ds, loss_cfg, cfg, SGD_SEED, ood)
        assert [[v.hex() for v in astuple(t)[1:]] for t in history] == [
            [v.hex() for v in astuple(t)[1:]] for t in expected]
        for got, want in zip((*trained.weights, *trained.biases), (*weights, *biases)):
            assert got.tobytes() == want.tobytes()


def traced_peak(fn) -> int:
    """The peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_forward_shares_the_training_forwards_buffers():
    """A probe set no larger than the training set runs its epoch-end forward
    through the training set's layer buffers: it raises train's traced peak
    by well under one more set of buffers, m rows of every layer's width."""
    ds = easy_dataset()
    ood = gen_ood("gaussian_noise", d=4, m=ds.n, seed=2)
    model = init_model((4, 64, 32, 2), seed=12)
    cfg = small_optim(epochs=2, lr_drops=())
    loss_cfg = LossConfig("cross_entropy")
    assert ood.rows == len(ds.features.data)  # no larger than the training set
    without = traced_peak(lambda: train(model, ds, loss_cfg, cfg, SGD_SEED))
    with_probe = traced_peak(lambda: train(model, ds, loss_cfg, cfg, SGD_SEED, probe_ood=ood))
    buffer_set = ood.rows * sum(w.shape[1] for w in model.weights) * 8
    assert with_probe - without < buffer_set / 2


@pytest.mark.parametrize("loss_cfg", [LossConfig("cross_entropy"),
                                      LossConfig("logit_norm", {"tau": 0.04}),
                                      LossConfig("logit_penalty")], ids=lambda c: c.kind)
def test_last_epoch_only_matches_full_telemetry_bitwise(loss_cfg):
    """Without every_epoch, training skips the epoch-end forward of every
    epoch but the last and changes nothing else: byte-equal weights and
    biases, and one record equal to the last of a full-telemetry run, with
    an lr drop, a short last batch and a probe set."""
    ds = easy_dataset()
    ood = gen_ood("gaussian_noise", d=4, m=50, seed=2)
    model = init_model((4, 16, 8, 2), seed=12)
    cfg = small_optim(epochs=6, lr_drops=((3, 0.1),))
    assert ds.n % cfg.batch_size != 0
    full, history = train(model, ds, loss_cfg, cfg, SGD_SEED, probe_ood=ood)
    last, record = train(model, ds, loss_cfg, cfg, SGD_SEED, probe_ood=ood, every_epoch=False)
    assert record == history[-1:]
    header, *lines = telemetry_text(history).splitlines()
    assert telemetry_text(record).splitlines() == [header, lines[-1]]
    for got, want in zip((*last.weights, *last.biases), (*full.weights, *full.biases)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_last_epoch_only_still_checks_the_final_forward():
    """A probe set whose logits overflow while the training data stays
    finite. A full run diverges at its first epoch-end forward. Without
    every_epoch the last epoch's forward is the only one, and it must still
    raise, naming the last epoch and its last step."""
    ds = easy_dataset()
    probe = Matrix2D(np.full((3, 4), 1e308) * [[1.0], [-1.0], [0.5]])
    model = init_model((4, 16, 8, 2), seed=12)
    cfg = small_optim(epochs=5, lr_drops=())
    with pytest.raises(DivergedError) as full:
        train(model, ds, LossConfig("cross_entropy"), cfg, SGD_SEED, probe_ood=probe)
    assert (full.value.what, full.value.epoch, full.value.step) == ("epoch-end logits", 0, 6)
    with pytest.raises(DivergedError) as last:
        train(model, ds, LossConfig("cross_entropy"), cfg, SGD_SEED, probe_ood=probe,
              every_epoch=False)
    assert (last.value.what, last.value.epoch, last.value.step) == (
        "epoch-end logits", cfg.epochs - 1, 6)
    assert str(last.value) == f"non-finite epoch-end logits at epoch {cfg.epochs - 1}, step 6"


# ---------------------------------------------------------------------------
# telemetry


def test_telemetry_records_ood_probe():
    ds = easy_dataset()
    ood = gen_ood("gaussian_noise", d=4, m=50, seed=1)
    model = init_model((4, 8, 2), seed=10)
    _, history = train(model, ds, LossConfig("cross_entropy"),
                       small_optim(epochs=3, lr_drops=()), SGD_SEED, probe_ood=ood)
    assert [t.epoch for t in history] == [1, 2, 3]
    assert all(t.mean_logit_norm_ood is not None for t in history)
    assert all(t.mean_logit_norm_id >= 0 for t in history)


def test_telemetry_csv_format():
    ds = easy_dataset()
    model = init_model((4, 8, 2), seed=11)
    _, history = train(model, ds, LossConfig("cross_entropy"),
                       small_optim(epochs=2, lr_drops=()), SGD_SEED)
    text = telemetry_text(history)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,mean_logit_norm_id,mean_logit_norm_ood"
    assert len(lines) == 3
    # without an OOD probe the last column is empty
    assert lines[1].endswith(",")
    assert lines[1].startswith("1,")
