"""SGD with momentum, weight decay (weights only), and step learning-rate
drops, with per-epoch logit-norm telemetry, or only the final epoch's record
for callers that read no other."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, DataError, DivergedError
from .losses import LossConfig, loss_and_grad
from .model import MlpModel, _forward, backward, forward_blocks
from .tensor import Matrix2D, row_l2_norm


@dataclass(frozen=True)
class OptimConfig:
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 200
    batch_size: int = 128
    lr_drops: tuple[tuple[int, float], ...] = ((80, 0.1), (140, 0.1))

    def __post_init__(self):
        if self.lr0 < 0:
            raise ConfigError(f"lr0 must be nonnegative, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        epochs_seen = [e for e, _ in self.lr_drops]
        if epochs_seen != sorted(set(epochs_seen)) or any(
                e < 0 or e >= self.epochs for e in epochs_seen):
            raise ConfigError(f"lr_drop epochs must be strictly increasing and < epochs, got {self.lr_drops}")
        if any(factor < 0 for _, factor in self.lr_drops):
            raise ConfigError(f"lr_drop factors must be nonnegative, got {self.lr_drops}")


@dataclass(frozen=True)
class EpochTelemetry:
    epoch: int
    train_loss: float
    train_acc: float
    mean_logit_norm_id: float
    mean_logit_norm_ood: Optional[float] = None


def lr_at(cfg: OptimConfig, epoch: int) -> float:
    """Learning rate in effect at an epoch in [0, cfg.epochs) (drops applied
    at their epoch)."""
    lr = cfg.lr0
    for drop_epoch, factor in cfg.lr_drops:
        if epoch >= drop_epoch:
            lr *= factor
    return lr


def _layer_views(flat: np.ndarray, model: MlpModel
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Arrays shaped like the model's weights and like its biases: views of
    consecutive slices of the 1-D array `flat`, the weights first."""
    views, start = [], 0
    for p in (*model.weights, *model.biases):
        views.append(flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return views[:len(model.weights)], views[len(model.weights):]


def _epoch_end(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
               labels: Optional[np.ndarray]) -> tuple[int, float]:
    """One block pass over the rows of x: how many rows' logits have their label (0 without
    labels) as argmax, and the mean logit norm. `forward_blocks` rejects non-finite logits."""
    correct = 0
    norms = np.empty(len(x))
    for start, inputs, logits in forward_blocks(weights, biases, x):
        stop = start + len(logits)
        norms[start:stop] = row_l2_norm(logits)[:, 0]
        if labels is not None:
            correct += np.count_nonzero(np.argmax(logits, axis=1) == labels[start:stop])
        del inputs, logits
    return correct, float(norms.mean())


def train(model: MlpModel, dataset: LabeledDataset, loss_cfg: LossConfig,
          optim_cfg: OptimConfig, seed: int, probe_ood: Optional[Matrix2D] = None,
          *, every_epoch: bool = True) -> tuple[MlpModel, list[EpochTelemetry]]:
    """Train and return (new model, telemetry): one record per epoch, or with `every_epoch`
    false the last epoch's record alone.

    Deterministic in seed, which drives the minibatch order; raises DivergedError on a non-finite
    loss, parameter or epoch-end logit. Weight decay is applied to weights only, never biases.
    A record's accuracy and mean logit norms come from one epoch-end pass over the training set,
    then the probe set, in blocks of BLOCK_ROWS rows: each block is checked for finite logits and
    reduced (correct rows counted, row norms written into one vector per set) before the next
    runs, so the working set is bounded by the block size, not by the sets' sizes. `every_epoch`
    only chooses whether that pass runs after every epoch or after the last one alone; the
    last-epoch record equals a full run's last record. Logits that overflow in an epoch-end pass the run skips then
    surface later: as a non-finite loss at a later step, or at the last epoch's pass, so a
    divergence may name a later epoch and step than a full run would.

    The weights, then the biases, are views of one flat parameter array, and the velocities and
    gradients are flat arrays laid out the same way, so one SGD update is a few whole-array
    operations. The model is built once, after the last epoch, on those views, with no copy.
    """
    if dataset.dim != model.input_dim or dataset.k != model.num_classes:
        raise ConfigError(
            f"dataset (d={dataset.dim}, k={dataset.k}) does not match model "
            f"(d={model.input_dim}, k={model.num_classes})")
    if probe_ood is not None and probe_ood.cols != model.input_dim:
        raise ConfigError(f"probe set (d={probe_ood.cols}) does not match model "
                          f"(d={model.input_dim})")
    rng = np.random.default_rng(seed)
    params = np.concatenate([p.ravel() for p in (*model.weights, *model.biases)])
    weights, biases = _layer_views(params, model)
    grads = np.empty_like(params)
    grad_out = _layer_views(grads, model)
    velocity = np.zeros_like(params)
    scratch = np.empty_like(params)
    n_weights = sum(w.size for w in model.weights)
    momentum = optim_cfg.momentum
    decay = optim_cfg.weight_decay
    x_all = dataset.features.data
    y_all = dataset.labels
    x_ood = probe_ood.data if probe_ood is not None else None
    batch_size = optim_cfg.batch_size
    n = dataset.n
    telemetry: list[EpochTelemetry] = []

    # Overflow and division by zero are reported by the finiteness checks
    # below as a divergence at its epoch and step, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(optim_cfg.epochs):
            lr = lr_at(optim_cfg, epoch)
            order = rng.permutation(n)
            loss_sum = 0.0
            for step, start in enumerate(range(0, n, batch_size)):
                batch = order[start:start + batch_size]
                inputs, logits = _forward(weights, biases, x_all[batch])
                loss, grad = loss_and_grad(logits, y_all[batch], loss_cfg)
                if not math.isfinite(loss):
                    raise DivergedError("loss", epoch, step)
                loss_sum += loss
                if lr == 0.0:
                    continue
                backward(weights, inputs, grad, *grad_out)
                grads[:n_weights] += np.multiply(params[:n_weights], decay,
                                                 out=scratch[:n_weights])
                velocity *= momentum
                velocity += grads
                params -= np.multiply(velocity, lr, out=scratch)
                if not np.isfinite(params).all():
                    raise DivergedError("parameters", epoch, step)

            if not every_epoch and epoch < optim_cfg.epochs - 1:
                continue
            # `step` is the epoch's last step; every step adds its loss. Finite weights
            # can still overflow the epoch-end logits: that too is divergence.
            try:
                correct, norm_id = _epoch_end(weights, biases, x_all, y_all)
                norm_ood = None if x_ood is None else _epoch_end(weights, biases, x_ood, None)[1]
            except DataError:
                raise DivergedError("epoch-end logits", epoch, step) from None
            telemetry.append(EpochTelemetry(epoch + 1, loss_sum / (step + 1), correct / n,
                                            norm_id, norm_ood))

    return MlpModel(model.layer_dims, tuple(weights), tuple(biases)), telemetry
