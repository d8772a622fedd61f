"""The general reverse-mode gradient tape that training used before its
gradients were written out, kept as the slow reference for the explicit
gradients in `losses.loss_and_grad` and `logitbench.tensor.GradTape.backward`.

The tape records matrix-level operations (matmul, bias add, relu, fused
softmax cross-entropy, row norms, scaling); one reverse sweep gives every
adjoint.  `forward_traced` records an MLP forward pass on a fresh tape and
`apply_loss` builds one of the three training losses on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from logitbench.errors import ConfigError, ContractError, DataError, ShapeError
from logitbench.losses import CROSS_ENTROPY, LOGIT_NORM, LossConfig
from logitbench.model import MlpModel
from logitbench.tensor import Matrix2D


def log_softmax(arr: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax written with numpy's reduction methods
    (`ndarray.max`, `ndarray.sum`). The package's `log_softmax` calls the
    ufunc kernels directly; this copy keeps the oracle from checking the
    package against itself."""
    shifted = arr - arr.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# --------------------------------------------------------------------------
# Reverse-mode tape
# --------------------------------------------------------------------------

# A vjp maps the output adjoint to one parent's adjoint contribution.
Vjp = Callable[[np.ndarray], np.ndarray]


@dataclass
class TapeNode:
    op: str
    value: np.ndarray
    parents: tuple[int, ...]
    vjps: tuple[Optional[Vjp], ...]
    requires_grad: bool
    grad: Optional[np.ndarray] = None
    index: int = -1


class GradTape:
    """Ordered op record; parents always precede children, so one reverse
    sweep computes all adjoints. Confined to the thread that built it."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _append(self, node: TapeNode) -> TapeNode:
        node_index = len(self.nodes)
        self.nodes.append(node)
        node.index = node_index
        return node

    def leaf(self, value: Matrix2D | np.ndarray, requires_grad: bool = True) -> TapeNode:
        arr = value.data if isinstance(value, Matrix2D) else np.asarray(value, dtype=np.float64)
        return self._append(TapeNode("leaf", arr, (), (), requires_grad))

    def _op(self, op: str, value: np.ndarray, parents: Sequence[TapeNode],
            vjps: Sequence[Optional[Vjp]]) -> TapeNode:
        req = any(p.requires_grad for p in parents)
        return self._append(TapeNode(op, value, tuple(p.index for p in parents),
                                     tuple(vjps), req))

    def matmul(self, a: TapeNode, b: TapeNode) -> TapeNode:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul: {a.value.shape} x {b.value.shape}")
        av, bv = a.value, b.value
        return self._op("matmul", av @ bv, (a, b),
                        (lambda g: g @ bv.T, lambda g: av.T @ g))

    def add_row(self, a: TapeNode, bias: TapeNode) -> TapeNode:
        """Broadcast a (1, k) row bias over the rows of a."""
        if bias.value.shape != (1, a.value.shape[1]):
            raise ShapeError(f"add_row: {a.value.shape} + {bias.value.shape}")
        return self._op("add_row", a.value + bias.value, (a, bias),
                        (lambda g: g, lambda g: g.sum(axis=0, keepdims=True)))

    def add(self, a: TapeNode, b: TapeNode) -> TapeNode:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add: {a.value.shape} + {b.value.shape}")
        return self._op("add", a.value + b.value, (a, b),
                        (lambda g: g, lambda g: g))

    def relu(self, a: TapeNode) -> TapeNode:
        mask = a.value > 0.0
        return self._op("relu", np.where(mask, a.value, 0.0), (a,),
                        (lambda g: g * mask,))

    def scale(self, a: TapeNode, s: float) -> TapeNode:
        return self._op("scale", a.value * s, (a,), (lambda g: g * s,))

    def add_scalar(self, a: TapeNode, c: float) -> TapeNode:
        return self._op("add_scalar", a.value + c, (a,), (lambda g: g,))

    def row_l2_norm(self, a: TapeNode) -> TapeNode:
        av = a.value
        norms = np.linalg.norm(av, axis=1, keepdims=True)
        # Zero rows get a zero subgradient.
        safe = np.where(norms > 0.0, norms, 1.0)
        return self._op("row_l2_norm", norms, (a,),
                        (lambda g: g * av / safe * (norms > 0.0),))

    def div_by_col(self, a: TapeNode, col: TapeNode) -> TapeNode:
        """Elementwise a / col, col broadcast as (rows, 1). col must be nonzero."""
        if col.value.shape != (a.value.shape[0], 1):
            raise ShapeError(f"div_by_col: {a.value.shape} / {col.value.shape}")
        av, cv = a.value, col.value
        return self._op("div_by_col", av / cv, (a, col),
                        (lambda g: g / cv,
                         lambda g: -(g * av).sum(axis=1, keepdims=True) / cv ** 2))

    def mean_all(self, a: TapeNode) -> TapeNode:
        n = a.value.size
        shape = a.value.shape
        return self._op("mean_all", np.array([[a.value.mean()]]), (a,),
                        (lambda g: np.full(shape, g.item() / n),))

    def sum_all(self, a: TapeNode) -> TapeNode:
        shape = a.value.shape
        return self._op("sum_all", np.array([[a.value.sum()]]), (a,),
                        (lambda g: np.full(shape, g.item()),))

    def softmax_cross_entropy(self, logits: TapeNode, labels: np.ndarray) -> TapeNode:
        """Fused mean softmax cross-entropy against integer labels."""
        labels = np.asarray(labels, dtype=np.int64)
        n, k = logits.value.shape
        if labels.shape != (n,):
            raise ShapeError(f"labels shape {labels.shape} for {n} rows")
        if labels.min() < 0 or labels.max() >= k:
            raise DataError(f"labels out of range [0, {k})")
        logp = log_softmax(logits.value)
        loss = -logp[np.arange(n), labels].mean()
        probs = np.exp(logp)

        def vjp(g: np.ndarray) -> np.ndarray:
            delta = probs.copy()
            delta[np.arange(n), labels] -= 1.0
            return g.item() / n * delta

        return self._op("softmax_ce", np.array([[loss]]), (logits,), (vjp,))

    def uniform_cross_entropy(self, logits: TapeNode) -> TapeNode:
        """Mean cross-entropy between softmax(logits) and the uniform distribution."""
        n, k = logits.value.shape
        logp = log_softmax(logits.value)
        loss = -logp.mean(axis=1).mean()
        probs = np.exp(logp)

        def vjp(g: np.ndarray) -> np.ndarray:
            return g.item() / n * (probs - 1.0 / k)

        return self._op("uniform_ce", np.array([[loss]]), (logits,), (vjp,))

    def backward(self, loss: TapeNode) -> None:
        """Seed the scalar loss with 1 and sweep the tape once in reverse."""
        if loss.value.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.value.shape}")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss.index + 1]):
            if node.grad is None or not node.parents:
                continue
            for parent_idx, vjp in zip(node.parents, node.vjps):
                parent = self.nodes[parent_idx]
                if not parent.requires_grad or vjp is None:
                    continue
                contrib = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib

    def grad(self, node: TapeNode) -> np.ndarray:
        if node.grad is None:
            return np.zeros_like(node.value)
        return node.grad


@dataclass
class ForwardTrace:
    """Handles into a traced forward pass, for reading gradients back out."""

    tape: GradTape
    input: TapeNode
    weights: list[TapeNode]
    biases: list[TapeNode]
    penultimate: TapeNode
    logits: TapeNode


def forward_traced(model: MlpModel, x: Matrix2D, *, input_grad: bool = False) -> ForwardTrace:
    """Forward pass recorded on a fresh tape.

    Input gradients are opt-in: the input leaf only participates in the
    backward sweep when input_grad is set (training does not need them).
    """
    if x.cols != model.input_dim:
        raise ShapeError(f"input has {x.cols} features, model expects {model.input_dim}")
    tape = GradTape()
    x_node = tape.leaf(x, requires_grad=input_grad)
    w_nodes = [tape.leaf(w) for w in model.weights]
    b_nodes = [tape.leaf(b) for b in model.biases]
    h = x_node
    last = len(w_nodes) - 1
    for i, (w, b) in enumerate(zip(w_nodes, b_nodes)):
        penultimate = h
        h = tape.add_row(tape.matmul(h, w), b)
        if i < last:
            h = tape.relu(h)
    return ForwardTrace(tape, x_node, w_nodes, b_nodes, penultimate, h)


def cross_entropy(tape: GradTape, logits: TapeNode, labels: np.ndarray) -> TapeNode:
    """Mean fused softmax cross-entropy (traced)."""
    return tape.softmax_cross_entropy(logits, labels)


def logitnorm_loss(tape: GradTape, logits: TapeNode, labels: np.ndarray,
                   tau: float, stability_eps: float) -> TapeNode:
    """Cross-entropy on logits normalized to norm 1/tau (traced)."""
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    norms = tape.row_l2_norm(logits)
    denom = tape.add_scalar(tape.scale(norms, tau), tau * stability_eps)
    normalized = tape.div_by_col(logits, denom)
    return tape.softmax_cross_entropy(normalized, labels)


def logit_penalty_loss(tape: GradTape, logits: TapeNode, labels: np.ndarray,
                       lam: float) -> TapeNode:
    """Cross-entropy plus lambda times the mean row L2 norm (traced)."""
    if lam < 0:
        raise ConfigError(f"lambda must be nonnegative, got {lam}")
    ce = tape.softmax_cross_entropy(logits, labels)
    penalty = tape.scale(tape.mean_all(tape.row_l2_norm(logits)), lam)
    return tape.add(ce, penalty)


def apply_loss(tape: GradTape, logits: TapeNode, labels: np.ndarray,
               cfg: LossConfig) -> TapeNode:
    if cfg.kind == CROSS_ENTROPY:
        return cross_entropy(tape, logits, labels)
    if cfg.kind == LOGIT_NORM:
        return logitnorm_loss(tape, logits, labels, **cfg.params)
    return logit_penalty_loss(tape, logits, labels, **cfg.params)
