"""Training objectives: cross-entropy, logit-norm, and logit-penalty losses
with their closed-form logit gradients, plus the analytic lower bound of the
logit-norm loss.

The logit-norm loss is cross-entropy applied to f / (tau * (||f|| + eps));
the gradient flows through the norm as well as the direction. The
logit-penalty loss is cross-entropy plus lambda * ||f||_2 per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError, kind_params
from .tensor import log_softmax

CROSS_ENTROPY = "cross_entropy"
LOGIT_NORM = "logit_norm"
LOGIT_PENALTY = "logit_penalty"

# Each loss kind's parameters: name -> (default, accepted range). tau=0.04
# and lam=0.05 are the reference hyperparameters for the 10-class
# benchmark; stability_eps guards the normalization denominator.
LOSS_PARAMS = {
    CROSS_ENTROPY: {},
    LOGIT_NORM: {"tau": (0.04, "(0, inf)"), "stability_eps": (1e-7, "(0, inf)")},
    LOGIT_PENALTY: {"lam": (0.05, "[0, inf)")},
}


@dataclass(frozen=True)
class LossConfig:
    kind: str = CROSS_ENTROPY
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params",
                           kind_params(LOSS_PARAMS, "loss", self.kind, self.params))


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy against integer labels, and its gradient
    (softmax - onehot) / n."""
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} for {n} rows")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels out of range [0, {k})")
    logp = log_softmax(logits)
    rows = np.arange(n)
    loss = -(np.add.reduce(logp[rows, labels]) / n)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad *= 1.0 / n
    return float(loss), grad


def _norm_backward(grad_norms: np.ndarray, logits: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a (rows, 1) gradient on the row norms back to the logits; a zero
    row gets a zero subgradient."""
    safe = np.where(norms > 0.0, norms, 1.0)
    return grad_norms * logits / safe * (norms > 0.0)


def loss_and_grad(logits: np.ndarray, labels: np.ndarray,
                  cfg: LossConfig) -> tuple[float, np.ndarray]:
    """The mean loss over the rows of `logits` and its gradient dL/dlogits.

    Logit-norm is cross-entropy on f / d with d = tau * (||f|| + eps); its
    gradient is g / d plus the path through the norm,
    -tau * sum(g * f) / d^2 * f / ||f||, where g is the cross-entropy
    gradient at f / d. Logit-penalty adds lam / n * f / ||f|| per row.

    Every expression repeats the reference tape's operations in the tape's
    order (tests/tape_oracle.py), so training gives bitwise the same weights;
    test_gradients_match_tape_oracle_bitwise holds that in place. The
    reductions call the ufunc kernels (`np.add.reduce`) that the tape's
    `np.linalg.norm`, `.sum()` and `.mean()` call, without those wrappers'
    per-call Python overhead; the values are the same bits.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if cfg.kind == CROSS_ENTROPY:
        return _softmax_cross_entropy(logits, labels)
    norms = np.sqrt(np.add.reduce(logits * logits, axis=1, keepdims=True))
    if cfg.kind == LOGIT_NORM:
        tau = cfg.params["tau"]
        denom = norms * tau + tau * cfg.params["stability_eps"]
        loss, grad = _softmax_cross_entropy(logits / denom, labels)
        grad_denom = -np.add.reduce(grad * logits, axis=1, keepdims=True) / denom ** 2
        return loss, grad / denom + _norm_backward(grad_denom * tau, logits, norms)
    ce, grad = _softmax_cross_entropy(logits, labels)
    loss = ce + float(np.add.reduce(norms, axis=None) / norms.size * cfg.params["lam"])
    grad_norms = np.full(norms.shape, cfg.params["lam"] / norms.size)
    return loss, _norm_backward(grad_norms, logits, norms) + grad


def logitnorm_lower_bound(k: int, tau: float) -> float:
    """log(1 + (k-1) e^{-2/tau}): the minimum attainable per-sample
    logit-norm loss for a k-class problem."""
    if k < 2:
        raise ConfigError(f"need at least 2 classes, got {k}")
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    return math.log1p((k - 1) * math.exp(-2.0 / tau))


# Untraced per-sample values, used by property tests and temperature fitting.

def cross_entropy_values(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logp = log_softmax(np.asarray(logits, dtype=np.float64))
    return -logp[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)]


def logitnorm_values(logits: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    norms = np.linalg.norm(logits, axis=1, keepdims=True)
    normalized = logits / (tau * (norms + LOSS_PARAMS[LOGIT_NORM]["stability_eps"][0]))
    return cross_entropy_values(normalized, labels)
