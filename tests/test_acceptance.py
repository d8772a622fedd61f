"""End-to-end acceptance gate.

Ten criteria, one test each, every one printing a single PASS line on
success.  Criteria 1-3 are property suites with pinned runtimes; criteria
4-7 share one full 5-seed benchmark run of the desk configuration; criteria
8-9 train their own models; criterion 10 reruns a reduced configuration and
byte-compares every CSV.  This module does real training and takes a few
minutes end to end.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from logitbench.data import gen_blobs
from logitbench.harness import desk_config, run_calibration, run_experiment, sweep_tau
from logitbench.losses import (LossConfig, logitnorm_lower_bound,
                               logitnorm_values, loss_and_grad)
from logitbench.metrics import (aupr, auroc, fit_temperature, fpr_at_tpr,
                                nll_at_temperature)
from logitbench.model import forward, forward_layers, init_model
from logitbench.scores import GRADNORM, ScoreConfig, ScoredExample, score_batch
from logitbench.tensor import Matrix2D, log_softmax, rowwise_softmax

from conftest import assert_grad_close, central_difference

DESK_SEEDS = (0, 1, 2, 3, 4)
TAU_GRID = (0.001, 0.005, 0.01, 0.05, 0.5, 1.0, 2.0)


def _ok(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}{suffix}")


# ---------------------------------------------------------------------------
# shared 5-seed desk benchmark (criteria 4-7)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    cfg = desk_config(seeds=DESK_SEEDS, epochs=200, output_dir=str(out))
    started = time.time()
    result = run_experiment(cfg)
    return cfg, result, time.time() - started


def _panel_mean(result, loss, score, attr="fpr95_mean"):
    rows = [r for r in result.rows
            if r.loss_name == loss and r.score_name == score]
    assert len(rows) == 4, f"expected 4 OOD rows for {loss}/{score}"
    return float(np.mean([getattr(r, attr) for r in rows]))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradients_match_finite_differences():
    """100 random instances across every loss gradient, the MLP input
    gradient and the GradNorm score agree with central differences at
    relative 1e-4. Runtime < 10 s."""
    started = time.time()
    rng = np.random.default_rng(20)
    loss_cfgs = [LossConfig("cross_entropy"),
                 LossConfig("logit_norm", tau=0.07),
                 LossConfig("logit_penalty", lam=0.3)]
    checked = 0

    # 60 instances: d(loss)/d(logits) for each loss kind in rotation.
    for i in range(60):
        loss_cfg = loss_cfgs[i % 3]
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        logits0 = rng.normal(0.0, 2.0, (n, k)) + 0.5  # keep norms off zero
        labels = rng.integers(0, k, n)

        def value(flat):
            return loss_and_grad(flat.reshape(n, k), labels, loss_cfg)[0]

        analytic = loss_and_grad(logits0, labels, loss_cfg)[1].ravel()
        numeric = central_difference(value, logits0.ravel())
        assert_grad_close(analytic, numeric)
        checked += 1

    # 20 instances: d(scaled NLL)/d(input) through the shared MLP backward,
    # the ODIN perturbation path.
    nll = LossConfig("cross_entropy")
    for i in range(20):
        d, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        model = init_model((d, 6, k), seed=int(rng.integers(1 << 30)))
        x0 = rng.normal(0.0, 1.0, (1, d))
        label = np.array([int(rng.integers(0, k))])

        def value(flat):
            logits = forward(model, Matrix2D(flat.reshape(1, d))).data
            return loss_and_grad(logits * (1.0 / 3.0), label, nll)[0]

        tape, logits = forward_layers(model, Matrix2D(x0))
        grad = loss_and_grad(logits.data * (1.0 / 3.0), label, nll)[1] * (1.0 / 3.0)
        _, _, grad_x = tape.backward(grad, params=False, input_grad=True)
        numeric = central_difference(value, x0.ravel())
        assert_grad_close(grad_x.ravel(), numeric)
        checked += 1

    # 20 instances: the GradNorm score against the L1 norm of the
    # central-difference gradient of the uniform cross-entropy with respect
    # to the last-layer weights.
    for i in range(20):
        d, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        model = init_model((d, 5, k), seed=int(rng.integers(1 << 30)))
        x = Matrix2D(rng.normal(0.0, 1.0, (1, d)))
        w0 = model.weights[-1].data

        def value(flat):
            w = Matrix2D(flat.reshape(w0.shape))
            patched = dataclasses.replace(
                model, weights=model.weights[:-1] + (w,))
            return -log_softmax(forward(patched, x).data).mean()

        score = score_batch(model, x, ScoreConfig(GRADNORM))
        numeric = np.abs(central_difference(value, w0.ravel())).sum()
        assert_grad_close(score, np.array([numeric]))
        checked += 1

    elapsed = time.time() - started
    assert checked == 100
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    _ok("criterion 1: 100/100 finite-difference checks", f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: analytic propositions


def test_criterion_2_softmax_propositions_and_lower_bound():
    """Argmax invariance and max-softmax monotonicity under positive scaling
    on 10,000 vectors each; per-sample normalized loss >= its analytic lower
    bound on 10,000 draws. Runtime < 5 s."""
    started = time.time()
    rng = np.random.default_rng(21)

    k = 10
    logits = rng.normal(0.0, 3.0, (10_000, k))
    scales = rng.uniform(1.0, 50.0, (10_000, 1))

    # Prop 1: positive scaling never changes the predicted class.
    assert (np.argmax(logits, axis=1) == np.argmax(logits * scales, axis=1)).all()

    # Prop 2: scaling up by s >= 1 never lowers the max softmax.
    base_conf = rowwise_softmax(logits).max(axis=1)
    scaled_conf = rowwise_softmax(logits * scales).max(axis=1)
    assert (scaled_conf >= base_conf - 1e-12).all()

    # Prop 3: per-sample normalized loss >= log(1 + (k-1) e^{-2/tau}).
    taus = (0.01, 0.04, 0.5, 1.0, 2.0)
    per_tau = 10_000 // len(taus)
    for tau in taus:
        sample = rng.normal(0.0, 2.0, (per_tau, k)) + 0.1
        labels = rng.integers(0, k, per_tau)
        values = logitnorm_values(sample, labels, tau)
        bound = logitnorm_lower_bound(k, tau)
        assert (values >= bound - 1e-9).all(), f"bound violated at tau={tau}"

    assert logitnorm_lower_bound(10, 1.0) == pytest.approx(0.7966, abs=1e-4)

    elapsed = time.time() - started
    assert elapsed < 5.0, f"proposition suite took {elapsed:.1f}s"
    _ok("criterion 2: propositions on 10,000 vectors + lower bound",
        f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles


def _brute_fpr(id_s, ood_s, target=0.95):
    best = 1.0
    for t in np.concatenate([id_s, ood_s]):
        if (id_s >= t).mean() >= target:
            best = min(best, float((ood_s >= t).mean()))
    return best


def _brute_auroc(id_s, ood_s):
    gt = (id_s[:, None] > ood_s[None, :]).sum()
    eq = (id_s[:, None] == ood_s[None, :]).sum()
    return (gt + 0.5 * eq) / (len(id_s) * len(ood_s))


def _brute_aupr(id_s, ood_s):
    values = np.concatenate([id_s, ood_s])
    labels = np.concatenate([np.ones(len(id_s)), np.zeros(len(ood_s))])
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(values), reverse=True):
        admitted = values >= t
        tp = labels[admitted].sum()
        recall = tp / len(id_s)
        area += (recall - prev_recall) * (tp / admitted.sum())
        prev_recall = recall
    return area


def test_criterion_3_metrics_match_brute_force_oracles():
    """1,000 random score sets (n, m <= 50, ties common) match the oracle
    implementations exactly; monotone-transform invariance exact.
    Runtime < 30 s."""
    started = time.time()
    rng = np.random.default_rng(22)
    for trial in range(1000):
        n, m = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        id_s = np.round(rng.normal(0.4, 1.0, n), 1)
        ood_s = np.round(rng.normal(0.0, 1.0, m), 1)
        scored = ([ScoredExample(float(s), "ID") for s in id_s]
                  + [ScoredExample(float(s), "OOD") for s in ood_s])
        assert fpr_at_tpr(scored, 0.95) == pytest.approx(
            _brute_fpr(id_s, ood_s), abs=1e-12)
        assert auroc(scored) == pytest.approx(_brute_auroc(id_s, ood_s), abs=1e-12)
        assert aupr(scored) == pytest.approx(_brute_aupr(id_s, ood_s), abs=1e-12)
        if trial % 100 == 0:
            transformed = [ScoredExample(math.atan(ex.score), ex.origin)
                           for ex in scored]
            assert fpr_at_tpr(transformed, 0.95) == fpr_at_tpr(scored, 0.95)
            assert auroc(transformed) == auroc(scored)
            assert aupr(transformed) == aupr(scored)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"metric oracle suite took {elapsed:.1f}s"
    _ok("criterion 3: 1,000 score sets match brute-force oracles",
        f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: logit-norm growth under CE, containment under logit_norm


def test_criterion_4_norm_growth_and_containment(desk):
    """Cross-entropy mean ID logit norm grows >= 3x from epoch 10 to 200 and
    is nondecreasing across 20-epoch windows; the normalized loss ends with
    norms <= 0.5x the cross-entropy final norms. Single-seed telemetry from
    the shared 200-epoch run."""
    _, result, elapsed = desk
    assert elapsed < 300 * len(DESK_SEEDS), f"desk run took {elapsed:.0f}s"

    ce = result.telemetry[("cross_entropy", 0)]
    norms = [t.mean_logit_norm_id for t in ce]
    growth = norms[-1] / norms[9]
    assert growth >= 3.0, f"CE norm growth {growth:.2f}x < 3x"
    window_means = [np.mean(norms[i:i + 20]) for i in range(0, 200, 20)]
    assert all(b >= a for a, b in zip(window_means, window_means[1:])), \
        "CE norm not nondecreasing across 20-epoch windows"

    ln = result.telemetry[("logit_norm", 0)]
    ratio = ln[-1].mean_logit_norm_id / norms[-1]
    assert ratio <= 0.5, f"logit_norm/CE final norm ratio {ratio:.2f} > 0.5"
    _ok("criterion 4: CE norms grow, normalized loss contains them",
        f"growth {growth:.2f}x, ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 5: headline MSP detection gap with accuracy parity


def test_criterion_5_msp_detection_gap(desk):
    """logit_norm + MSP beats cross_entropy + MSP by >= 15 FPR95 points
    (panel mean over 5 seeds) with higher AUROC and ID accuracy within
    +/- 2 points."""
    _, result, _ = desk
    ce_fpr = _panel_mean(result, "cross_entropy", "msp")
    ln_fpr = _panel_mean(result, "logit_norm", "msp")
    gap = (ce_fpr - ln_fpr) * 100
    assert gap >= 15.0, f"MSP FPR95 gap {gap:.1f} points < 15"

    ce_roc = _panel_mean(result, "cross_entropy", "msp", "auroc_mean")
    ln_roc = _panel_mean(result, "logit_norm", "msp", "auroc_mean")
    assert ln_roc > ce_roc, f"AUROC {ln_roc:.3f} not above {ce_roc:.3f}"

    ce_acc = _panel_mean(result, "cross_entropy", "msp", "id_accuracy_mean")
    ln_acc = _panel_mean(result, "logit_norm", "msp", "id_accuracy_mean")
    dacc = (ln_acc - ce_acc) * 100
    assert abs(dacc) <= 2.0, f"accuracy differs by {dacc:+.2f} points"
    _ok("criterion 5: MSP FPR95 gap with accuracy parity",
        f"gap {gap:.1f} pts, dAUROC {ln_roc - ce_roc:+.3f}, dacc {dacc:+.2f} pts")


# ---------------------------------------------------------------------------
# criterion 6: improvement carries over to the other scores


def test_criterion_6_other_scores_improve(desk):
    """For ODIN, Energy and GradNorm, logit_norm decreases FPR95 or ties
    within 2 points of the cross-entropy counterpart."""
    _, result, _ = desk
    details = []
    for score in ("odin", "energy", "gradnorm"):
        ce_fpr = _panel_mean(result, "cross_entropy", score)
        ln_fpr = _panel_mean(result, "logit_norm", score)
        delta = (ce_fpr - ln_fpr) * 100
        assert delta >= -2.0, f"{score}: logit_norm worse by {-delta:.1f} points"
        details.append(f"{score} {delta:+.1f}")
    _ok("criterion 6: ODIN/Energy/GradNorm improvements", ", ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: the logit_penalty ablation


def test_criterion_7_logit_penalty_ablation(desk):
    """logit_penalty keeps ID norms small yet detects worse than logit_norm,
    because it shrinks OOD norms just as hard: its OOD/ID norm ratio exceeds
    logit_norm's, and its MSP FPR95 is higher."""
    _, result, _ = desk
    lp_fpr = _panel_mean(result, "logit_penalty", "msp")
    ln_fpr = _panel_mean(result, "logit_norm", "msp")
    assert lp_fpr > ln_fpr, f"penalty FPR95 {lp_fpr:.3f} not above {ln_fpr:.3f}"

    def norm_ratio(loss):
        ratios = []
        for seed in DESK_SEEDS:
            norms = result.final_norms[(loss, seed)]
            ood = np.mean([v for tag, v in norms.items() if tag != "ID"])
            ratios.append(ood / norms["ID"])
        return float(np.mean(ratios))

    lp_ratio = norm_ratio("logit_penalty")
    ln_ratio = norm_ratio("logit_norm")
    assert lp_ratio > ln_ratio, \
        f"penalty OOD/ID norm ratio {lp_ratio:.2f} not above {ln_ratio:.2f}"

    ce_id = np.mean([result.final_norms[("cross_entropy", s)]["ID"]
                     for s in DESK_SEEDS])
    lp_id = np.mean([result.final_norms[("logit_penalty", s)]["ID"]
                     for s in DESK_SEEDS])
    assert lp_id < ce_id, f"penalty ID norm {lp_id:.1f} not small vs CE {ce_id:.1f}"
    _ok("criterion 7: penalty ablation",
        f"FPR95 {lp_fpr:.2f} > {ln_fpr:.2f}, norm ratio {lp_ratio:.2f} > {ln_ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 8: calibration


def test_criterion_8_calibration(tmp_path):
    """On the clean, well-separated variant of the desk geometry (the regime
    where achievable accuracy far exceeds the confidence a pinned logit norm
    can express): logit_norm pre-TS ECE > CE pre-TS ECE; after temperature
    scaling logit_norm's ECE drops below CE's pre-TS value and below a tenth
    of its own pre-TS value. fit_temperature recovers an injected T=3 within
    2%."""
    cfg = desk_config(seeds=(0,), epochs=200, output_dir=str(tmp_path))
    cfg = dataclasses.replace(
        cfg,
        data=dataclasses.replace(cfg.data, label_noise=0.0, cluster_radius=4.5),
        losses=tuple(dataclasses.replace(l, tau=0.05)
                     if l.kind == "logit_norm" else l for l in cfg.losses),
        optim=dataclasses.replace(cfg.optim, weight_decay=5e-4),
    )
    rows = {r.loss_name: r for r in run_calibration(cfg, out_dir=str(tmp_path))}
    ce, ln = rows["cross_entropy"], rows["logit_norm"]
    assert ln.pre.ece > ce.pre.ece, \
        f"logit_norm pre-TS ECE {ln.pre.ece:.3f} not above CE {ce.pre.ece:.3f}"
    assert ln.post.ece < ce.pre.ece, \
        f"logit_norm post-TS ECE {ln.post.ece:.3f} not below CE pre {ce.pre.ece:.3f}"
    assert ln.post.ece <= ln.pre.ece / 10.0, \
        f"post-TS {ln.post.ece:.4f} not a 10x drop from {ln.pre.ece:.4f}"

    # temperature recovery on synthetically sharpened logits
    rng = np.random.default_rng(23)
    base = rng.normal(0.0, 2.0, (4000, 10))
    probs = np.exp(base - base.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(10, p=p) for p in probs])
    fitted = fit_temperature(base * 3.0, labels)
    assert abs(fitted - 3.0) / 3.0 < 0.02, f"fitted T {fitted:.3f} not within 2% of 3"
    assert (nll_at_temperature(base * 3.0, labels, fitted)
            <= nll_at_temperature(base * 3.0, labels, 1.0) + 1e-9)
    _ok("criterion 8: calibration",
        f"pre {ln.pre.ece:.3f} > {ce.pre.ece:.3f}, post {ln.post.ece:.4f}, "
        f"fitted T {fitted:.3f}")


# ---------------------------------------------------------------------------
# criterion 9: tau sweep shape


def test_criterion_9_tau_sweep(tmp_path):
    """Sweeping tau over the pinned grid on the clean desk variant produces
    a curve whose FPR95 at tau=2 exceeds the selected tau's, and the train
    loss at tau=2 sits at or above the analytic lower bound."""
    cfg = desk_config(seeds=(0,), epochs=60, output_dir=str(tmp_path))
    cfg = dataclasses.replace(
        cfg,
        data=dataclasses.replace(cfg.data, label_noise=0.0, cluster_radius=6.0),
        optim=dataclasses.replace(cfg.optim, weight_decay=5e-4),
    )
    rows, selected = sweep_tau(cfg, list(TAU_GRID), out_dir=str(tmp_path))
    by_tau = {r.tau: r for r in rows}
    assert 2.0 in by_tau, "tau=2 run diverged"
    assert selected < 2.0, f"selected tau {selected} is the largest value"
    assert by_tau[2.0].val_fpr95_mean > by_tau[selected].val_fpr95_mean, (
        f"FPR95 at tau=2 ({by_tau[2.0].val_fpr95_mean:.3f}) not above "
        f"selected tau={selected} ({by_tau[selected].val_fpr95_mean:.3f})")
    bound = logitnorm_lower_bound(cfg.data.k, 2.0)
    assert by_tau[2.0].final_train_loss_mean >= bound - 1e-9
    _ok("criterion 9: tau sweep",
        f"selected {selected:g} (FPR95 {by_tau[selected].val_fpr95_mean:.3f}) "
        f"vs tau=2 (FPR95 {by_tau[2.0].val_fpr95_mean:.3f})")


# ---------------------------------------------------------------------------
# criterion 10: byte-level determinism


def test_criterion_10_determinism(tmp_path):
    """A reduced desk run repeated with the same config produces
    byte-identical CSV outputs (and score dumps and checkpoints)."""
    cfg = desk_config(seeds=(0,), epochs=20, output_dir=str(tmp_path / "a"))
    run_experiment(cfg)
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    a, b = tmp_path / "a", tmp_path / "b"
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    compared = 0
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), \
            f"{name} differs between identical runs"
        compared += 1
    assert compared >= 4
    _ok("criterion 10: determinism", f"{compared} files byte-identical")
