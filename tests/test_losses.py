"""Loss values, gradients, scale invariance, and the normalized-loss
lower bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitbench.errors import ConfigError
from logitbench.losses import (CROSS_ENTROPY, LOGIT_NORM, LOGIT_PENALTY,
                               LossConfig, cross_entropy_values, loss_and_grad,
                               logitnorm_lower_bound)

from conftest import assert_grad_close, central_difference, logitnorm_values


def _eval_loss(kind, logits_val, labels, **params):
    return loss_and_grad(logits_val, labels, LossConfig(kind, params))[0]


# --------------------------------------------------------------------------
# Config validation
# --------------------------------------------------------------------------

def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        LossConfig(kind="hinge")


def test_config_validates_hyperparameters():
    with pytest.raises(ConfigError):
        LossConfig("logit_norm", {"tau": 0.0})
    with pytest.raises(ConfigError):
        LossConfig("logit_penalty", {"lam": -0.1})
    with pytest.raises(ConfigError):
        LossConfig("logit_norm", {"stability_eps": 0.0})


# --------------------------------------------------------------------------
# Cross-entropy values
# --------------------------------------------------------------------------

def test_ce_uniform_two_class():
    val = _eval_loss(CROSS_ENTROPY, np.array([[0.0, 0.0]]), np.array([0]))
    assert abs(val - math.log(2)) < 1e-12


def test_ce_uniform_ten_class():
    val = _eval_loss(CROSS_ENTROPY, np.zeros((1, 10)), np.array([3]))
    assert abs(val - math.log(10)) < 1e-12


def test_ce_two_class_value():
    val = _eval_loss(CROSS_ENTROPY, np.array([[2.0, 1.0]]), np.array([0]))
    expected = -math.log(math.exp(2) / (math.exp(2) + math.exp(1)))
    assert abs(val - expected) < 1e-12
    assert abs(val - 0.3133) < 5e-5


# --------------------------------------------------------------------------
# Normalized (logit-norm) loss
# --------------------------------------------------------------------------

def test_logitnorm_two_class_value():
    val = _eval_loss(LOGIT_NORM, np.array([[1.0, 0.0]]), np.array([0]), tau=1.0)
    expected = -math.log(math.exp(1) / (math.exp(1) + 1))
    assert abs(val - expected) < 1e-6  # eps perturbs in the 7th decimal


def test_logitnorm_constant_rows_give_uniform():
    for c in (0.5, -3.0, 100.0):
        val = _eval_loss(LOGIT_NORM, np.full((1, 10), c), np.array([4]), tau=0.04)
        assert abs(val - math.log(10)) < 1e-9


@pytest.mark.parametrize("s", [2.0, 10.0, 100.0])
def test_logitnorm_scale_invariance(s, rng):
    # A tiny stability eps makes the denominator's constant term negligible;
    # what remains must be exactly scale-free.
    logits = rng.uniform(-3, 3, size=(5, 6))
    logits[np.linalg.norm(logits, axis=1) < 1.0] += 2.0  # keep ||f|| >= 1
    labels = rng.integers(0, 6, size=5)
    base = _eval_loss(LOGIT_NORM, logits, labels, tau=0.5,
                      stability_eps=1e-13)
    scaled = _eval_loss(LOGIT_NORM, s * logits, labels, tau=0.5,
                        stability_eps=1e-13)
    assert abs(base - scaled) < 1e-9


def test_logitnorm_effective_norm_is_inverse_tau(rng):
    tau = 0.04
    logits = rng.uniform(-2, 2, size=(8, 5))
    logits[np.linalg.norm(logits, axis=1) < 0.01] += 1.0
    norms = np.linalg.norm(logits, axis=1, keepdims=True)
    normalized = logits / (tau * (norms + 1e-7))
    eff = np.linalg.norm(normalized, axis=1)
    assert np.all(eff <= 1 / tau + 1e-12)
    assert np.all(eff >= (1 / tau) * (1 - 1e-5))


def test_logitnorm_rejects_bad_tau():
    with pytest.raises(ConfigError):
        _eval_loss(LOGIT_NORM, np.zeros((1, 3)), np.array([0]), tau=-1.0)


# --------------------------------------------------------------------------
# Penalty loss
# --------------------------------------------------------------------------

def test_penalty_reduces_to_ce_at_zero_lambda(rng):
    logits = rng.uniform(-2, 2, size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    assert abs(_eval_loss(LOGIT_PENALTY, logits, labels, lam=0.0)
               - _eval_loss(CROSS_ENTROPY, logits, labels)) < 1e-15


def test_penalty_zero_norm_case():
    val = _eval_loss(LOGIT_PENALTY, np.array([[0.0, 0.0]]), np.array([0]),
                     lam=0.05)
    assert abs(val - math.log(2)) < 1e-12


def test_penalty_hand_value():
    val = _eval_loss(LOGIT_PENALTY, np.array([[3.0, 4.0]]), np.array([1]),
                     lam=0.1)
    ce = -math.log(math.exp(4) / (math.exp(3) + math.exp(4)))
    assert abs(val - (ce + 0.5)) < 1e-12
    assert abs(val - (0.3133 + 0.5)) < 5e-5


# --------------------------------------------------------------------------
# Lower bound
# --------------------------------------------------------------------------

def test_lower_bound_reference_value():
    assert abs(logitnorm_lower_bound(10, 1.0) - 0.7966) < 1e-4


def test_lower_bound_vanishes_for_tiny_tau():
    assert logitnorm_lower_bound(2, 0.01) < 1e-80
    assert abs(logitnorm_lower_bound(10, 0.04) - 9 * math.exp(-50)) < 1e-22


def test_lower_bound_rejects_degenerate_k():
    with pytest.raises(ConfigError):
        logitnorm_lower_bound(1, 1.0)


def test_lower_bound_strictly_increasing_in_tau():
    taus = [0.01, 0.04, 0.1, 0.5, 1.0, 2.0, 5.0]
    vals = [logitnorm_lower_bound(10, t) for t in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_per_sample_loss_respects_lower_bound(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    logits = rng.uniform(-5, 5, size=(1, k))
    labels = rng.integers(0, k, size=1)
    tau = float(rng.choice([0.01, 0.04, 0.5, 1.0, 2.0]))
    val = logitnorm_values(logits, labels, tau)[0]
    assert val >= logitnorm_lower_bound(k, tau) - 1e-12


# --------------------------------------------------------------------------
# Gradients vs finite differences
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind,kw", [
    ("cross_entropy", {}),
    ("logit_norm", {"tau": 0.04}),
    ("logit_norm", {"tau": 1.0}),
    ("logit_penalty", {"lam": 0.05}),
])
@pytest.mark.parametrize("seed", range(3))
def test_loss_gradients_match_finite_differences(kind, kw, seed):
    rng = np.random.default_rng(1000 + seed)
    logits_val = rng.uniform(-2, 2, size=(4, 5))
    logits_val += np.sign(logits_val) * 0.5  # keep rows away from zero norm
    labels = rng.integers(0, 5, size=4)
    cfg = LossConfig(kind, kw)
    analytic = loss_and_grad(logits_val, labels, cfg)[1]

    def scalar_fn(arr):
        return loss_and_grad(arr, labels, cfg)[0]

    assert_grad_close(analytic, central_difference(scalar_fn, logits_val))


def test_untraced_values_match_traced_mean(rng):
    logits = rng.uniform(-2, 2, size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    assert abs(cross_entropy_values(logits, labels).mean()
               - _eval_loss(CROSS_ENTROPY, logits, labels)) < 1e-12
    assert abs(logitnorm_values(logits, labels, 0.1).mean()
               - _eval_loss(LOGIT_NORM, logits, labels, tau=0.1)) < 1e-12


# --------------------------------------------------------------------------
# The paper's mechanism: the loss does not act on the logit norm
# --------------------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_logitnorm_gradient_is_radial_only_through_eps(seed):
    """With z = f / d and d = tau (||f|| + eps), logit_norm's loss is the
    cross-entropy of z, so per row f . dL/df = (f . grad CE(z) / d) *
    eps / (||f|| + eps): a descent step moves ||f|| only through eps. The
    gradient of the mean loss is checked row by row against that expression,
    recomputed in numpy. The gradient is g / d minus a radial term of about the
    same size, and g is a softmax minus a one-hot row, so the value checked is
    a difference whose rounding scales with sum |f| (|g| + 1/n) / d, not with
    itself: it must agree within 1e-13 of twice that (seeds 0-10,000 agree
    within 2e-16 of it). The cosine of f and dL/df is not bounded: for k = 2 and
    f = (a, -a) the tiny gradient is all radial."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 6)), int(rng.integers(2, 12))
    f = rng.uniform(-5, 5, size=(n, k)) * 10.0 ** rng.uniform(-2, 2)
    labels = rng.integers(0, k, size=n)
    tau = float(rng.choice([0.01, 0.04, 0.5, 1.0]))
    eps = float(rng.choice([1e-7, 1e-3, 0.5]))
    cfg = LossConfig(LOGIT_NORM, {"tau": tau, "stability_eps": eps})
    radial = (f * loss_and_grad(f, labels, cfg)[1]).sum(axis=1)

    norm = np.sqrt((f * f).sum(axis=1))
    d = tau * (norm + eps)
    z = f / d[:, None]
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    g = (p - np.eye(k)[labels]) / n  # the mean cross-entropy's gradient at z
    fg = (f * g).sum(axis=1)
    want = fg / d * eps / (norm + eps)
    scale = 2.0 * (np.abs(f) * (np.abs(g) + 1.0 / n)).sum(axis=1) / d
    assert (np.abs(radial - want) <= 1e-13 * scale).all()
