"""SGD with momentum, weight decay (weights only), and step learning-rate
drops, with per-epoch logit-norm telemetry."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabeledDataset, OodDataset
from .errors import ConfigError, ContractError, DivergedError
from .losses import LossConfig, loss_and_grad
from .model import MlpModel, _forward, forward_traced
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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        drops = tuple((int(e), float(f)) for e, f in self.lr_drops)
        epochs_seen = [e for e, _ in drops]
        if epochs_seen != sorted(set(epochs_seen)) or any(
                e < 0 or e >= self.epochs for e in epochs_seen):
            raise ConfigError(f"lr_drop epochs must be strictly increasing and < epochs, got {drops}")
        object.__setattr__(self, "lr_drops", drops)


@dataclass(frozen=True)
class EpochTelemetry:
    epoch: int
    train_loss: float
    train_acc: float
    mean_logit_norm_id: float
    mean_logit_norm_ood: Optional[float] = None


def lr_at(cfg: OptimConfig, epoch: int) -> float:
    """Learning rate in effect at a given epoch (drops applied at their epoch)."""
    if epoch < 0 or epoch >= cfg.epochs:
        raise ContractError(f"epoch {epoch} outside [0, {cfg.epochs})")
    lr = cfg.lr0
    for drop_epoch, factor in cfg.lr_drops:
        if epoch >= drop_epoch:
            lr *= factor
    return lr


def train(model: MlpModel, dataset: LabeledDataset, loss_cfg: LossConfig,
          optim_cfg: OptimConfig, seed: int, probe_ood: Optional[OodDataset] = None
          ) -> tuple[MlpModel, list[EpochTelemetry]]:
    """Train and return (new model, one telemetry record per epoch).

    Deterministic in seed, which drives the minibatch order; raises DivergedError on a non-finite
    loss, parameter or epoch-end logit. Weight decay is applied to weights only, never biases.
    Parameters, velocities and gradients are plain arrays updated in place; the model is built
    from them once, after the last epoch.
    """
    if dataset.dim != model.input_dim or dataset.k != model.num_classes:
        raise ConfigError(
            f"dataset (d={dataset.dim}, k={dataset.k}) does not match model "
            f"(d={model.input_dim}, k={model.num_classes})")
    rng = np.random.default_rng(seed)
    weights = [w.data.copy() for w in model.weights]
    biases = [b.data.copy() for b in model.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    momentum = optim_cfg.momentum
    decay = optim_cfg.weight_decay
    x_all = dataset.features.data
    y_all = dataset.labels
    x_ood = probe_ood.features.data if probe_ood is not None else None
    n = dataset.n
    telemetry: list[EpochTelemetry] = []

    # Overflow is reported by the three finiteness checks below as a
    # divergence at its epoch and step, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(optim_cfg.epochs):
            lr = lr_at(optim_cfg, epoch)
            order = rng.permutation(n)
            loss_sum = 0.0
            loss_batches = 0
            for step, start in enumerate(range(0, n, optim_cfg.batch_size)):
                batch = order[start:start + optim_cfg.batch_size]
                tape, logits = forward_traced(weights, biases, x_all[batch])
                loss, grad = loss_and_grad(logits, y_all[batch], loss_cfg)
                if not math.isfinite(loss):
                    raise DivergedError(epoch, step)
                loss_sum += loss
                loss_batches += 1
                if lr == 0.0:
                    continue
                grad_w, grad_b, _ = tape.backward(grad)
                for w, b, vw, vb, gw, gb in zip(weights, biases, vel_w, vel_b, grad_w, grad_b):
                    gw += decay * w
                    vw *= momentum
                    vw += gw
                    vb *= momentum
                    vb += gb
                    w -= lr * vw
                    b -= lr * vb
                if not all(np.isfinite(p).all() for p in (*weights, *biases)):
                    raise DivergedError(epoch, step)

            # Finite weights can still overflow the forward pass once the
            # parameters are large enough; that too is divergence.
            outputs = [_forward(weights, biases, x)[1] for x in (x_all, x_ood) if x is not None]
            if not all(np.isfinite(f).all() for f in outputs):
                raise DivergedError(epoch, loss_batches - 1)
            norms = [float(row_l2_norm(f).mean()) for f in outputs]
            telemetry.append(EpochTelemetry(
                epoch=epoch + 1,
                train_loss=loss_sum / loss_batches,
                train_acc=float((np.argmax(outputs[0], axis=1) == y_all).mean()),
                mean_logit_norm_id=norms[0],
                mean_logit_norm_ood=norms[1] if x_ood is not None else None,
            ))
            # Left alive into the next epoch's steps, these logits push the
            # next epoch-end forward's activations up the heap: +2 MB peak
            # RSS on the desk config.
            del outputs

    return MlpModel(model.layer_dims, tuple(Matrix2D(w) for w in weights),
                    tuple(Matrix2D(b) for b in biases)), telemetry


def telemetry_csv(telemetry: list[EpochTelemetry]) -> str:
    buf = io.StringIO()
    buf.write("epoch,train_loss,train_acc,mean_logit_norm_id,mean_logit_norm_ood\n")
    for t in telemetry:
        ood = f"{t.mean_logit_norm_ood:.17g}" if t.mean_logit_norm_ood is not None else ""
        buf.write(f"{t.epoch},{t.train_loss:.17g},{t.train_acc:.17g},"
                  f"{t.mean_logit_norm_id:.17g},{ood}\n")
    return buf.getvalue()
