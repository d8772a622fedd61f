"""Post-hoc OOD scoring functions. Every score maps (model, input row) to a
real number where higher means more in-distribution.

MSP:      max softmax probability.
ODIN:     temperature-scaled MSP after a small input perturbation toward
          higher confidence; reduces to MSP exactly at T=1, eps=0.
Energy:   T * logsumexp(f / T), the negated free energy.
GradNorm: L1 norm of the last-layer weight gradient of the cross-entropy
          between softmax(f / T) and the uniform distribution.

`score_batch` scores all rows of a batch at once. Rows are independent, so
ODIN's input gradient for every row comes from one explicit backward pass,
and GradNorm's last-layer gradient is the outer product of the penultimate
activation h and (softmax(f / T) - 1/k) / T, whose L1 norm factorises into
||h||_1 * ||softmax(f / T) - 1/k||_1 / T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, read_lines
from .model import MlpModel, forward, forward_layers
from .tensor import Matrix2D, log_softmax, rowwise_softmax

MSP = "msp"
ODIN = "odin"
ENERGY = "energy"
GRADNORM = "gradnorm"
SCORE_KINDS = (MSP, ODIN, ENERGY, GRADNORM)


@dataclass(frozen=True)
class ScoreConfig:
    kind: str = MSP
    odin_T: float = 1000.0
    odin_eps: float = 0.0014
    energy_T: float = 1.0
    gradnorm_T: float = 1.0

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ConfigError(f"unknown score kind {self.kind!r}, expected one of {SCORE_KINDS}")
        if self.odin_T <= 0 or self.energy_T <= 0 or self.gradnorm_T <= 0:
            raise ConfigError("score temperatures must be positive")
        if self.odin_eps < 0:
            raise ConfigError(f"odin_eps must be nonnegative, got {self.odin_eps}")

    @property
    def name(self) -> str:
        return self.kind


@dataclass(frozen=True)
class ScoredExample:
    score: float
    origin: str  # "ID" or "OOD"

    def __post_init__(self):
        if self.origin not in ("ID", "OOD"):
            raise DataError(f"origin must be ID or OOD, got {self.origin!r}")
        if not math.isfinite(self.score):
            raise DataError(f"score must be finite, got {self.score}")


def _odin_input(model: MlpModel, features: Matrix2D, T: float, eps: float) -> Matrix2D:
    """Step every row against the sign of its input gradient of the
    cross-entropy between softmax(f / T) and the predicted class; that
    cross-entropy is -log S_pred, so the step raises the max softmax."""
    tape, logits = forward_layers(model, features)
    f = logits.data
    grad = np.exp(log_softmax(f * (1.0 / T)))
    grad[np.arange(f.shape[0]), f.argmax(axis=1)] -= 1.0
    grad *= 1.0 / T
    _, _, grad = tape.backward(grad, params=False, input_grad=True)
    return Matrix2D(features.data - eps * np.sign(grad))


def score_batch(model: MlpModel, features: Matrix2D, cfg: ScoreConfig) -> np.ndarray:
    """Score every row of `features` under `cfg`; one value per row."""
    if cfg.kind == MSP:
        return rowwise_softmax(forward(model, features)).max(axis=1)
    if cfg.kind == ODIN:
        T = cfg.odin_T
        if cfg.odin_eps > 0.0:
            features = _odin_input(model, features, T, cfg.odin_eps)
        return rowwise_softmax(forward(model, features).data / T).max(axis=1)
    if cfg.kind == ENERGY:
        T = cfg.energy_T
        f = forward(model, features).data / T
        m = f.max(axis=1)
        return T * (m + np.log(np.exp(f - m[:, None]).sum(axis=1)))
    T = cfg.gradnorm_T
    tape, logits = forward_layers(model, features)
    k = logits.cols
    probs = np.exp(log_softmax(logits.data * (1.0 / T)))
    return np.abs(tape.inputs[-1]).sum(axis=1) * np.abs(probs - 1.0 / k).sum(axis=1) / T


# Score dump interchange: one "<origin>,<decimal>" record per line.

def write_scores(path, scored: list[ScoredExample]) -> None:
    with open(path, "w") as fh:
        for ex in scored:
            fh.write(f"{ex.origin},{ex.score:.17g}\n")


def read_scores(path) -> list[ScoredExample]:
    out = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            origin, value = line.split(",")
            out.append(ScoredExample(float(value), origin))
        except ValueError as exc:  # DataError included
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    if not out:
        raise DataError(f"{path}: empty score dump")
    return out
