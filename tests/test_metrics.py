"""Detection and calibration metric tests, anchored to hand-computed values
and brute-force reference implementations."""

import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logitbench.errors import DataError
from logitbench.metrics import (detection_report, ece, fit_temperature,
                                nll_at_temperature)


# ---------------------------------------------------------------------------
# brute-force reference implementations


def brute_fpr(id_scores, ood_scores, tpr_target=0.95):
    """Try every candidate threshold; keep the ones admitting enough ID, and
    among those report the smallest OOD admission rate."""
    id_scores = np.asarray(id_scores)
    ood_scores = np.asarray(ood_scores)
    best = 1.0
    for t in np.concatenate([id_scores, ood_scores]):
        tpr = (id_scores >= t).mean()
        if tpr >= tpr_target:
            best = min(best, (ood_scores >= t).mean())
    return best


def brute_auroc(id_scores, ood_scores):
    """Every (ID, OOD) pair compared at once: wins plus half the ties."""
    a, b = np.asarray(id_scores)[:, None], np.asarray(ood_scores)[None, :]
    u = (2 * (a > b).sum() + (a == b).sum()) / 2
    return float(u / (a.size * b.size))


def brute_aupr(id_scores, ood_scores):
    """Precision-recall area by the same descending threshold sweep, written
    as an explicit loop over distinct score values."""
    values = np.concatenate([id_scores, ood_scores])
    labels = np.concatenate([np.ones(len(id_scores)), np.zeros(len(ood_scores))])
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(values), reverse=True):
        admitted = values >= t
        tp = labels[admitted].sum()
        recall = tp / len(id_scores)
        precision = tp / admitted.sum()
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


# ---------------------------------------------------------------------------
# FPR at 95% TPR


def test_fpr_hand_example():
    # Threshold lands on the smallest ID score (1), which admits one of the
    # two OOD points.
    assert detection_report([4.0, 3.0, 2.0, 1.0], [2.5, 0.5], 0.95).fpr_at_95_tpr == 0.5


def test_fpr_perfect_separation():
    assert detection_report([10.0, 9.0, 8.0], [1.0, 2.0], 0.95).fpr_at_95_tpr == 0.0


def test_fpr_total_overlap():
    assert detection_report([1.0, 1.0], [1.0, 1.0], 0.95).fpr_at_95_tpr == 1.0


def test_fpr_target_validation():
    with pytest.raises(DataError):
        detection_report([1.0], [0.0], 0.0)
    with pytest.raises(DataError):
        detection_report([1.0], [0.0], 1.5)


def test_fpr_requires_both_origins():
    with pytest.raises(DataError):
        detection_report([1.0], [])
    with pytest.raises(DataError):
        detection_report([], [1.0])
    with pytest.raises(DataError):
        detection_report([], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["ID", "OOD"])
# The report, and each field of it as a caller reads it; each id names the
# one-field function that the reader replaced.
@pytest.mark.parametrize("read", [lambda report: report, attrgetter("fpr_at_95_tpr"),
                                  attrgetter("auroc"), attrgetter("aupr")],
                         ids=["detection_report", "fpr_at_tpr", "auroc", "aupr"])
def test_non_finite_score_raises_data_error(read, side, bad):
    # Where the sort put a NaN decided what these returned before.
    id_scores, ood_scores = [bad, 1.0], [0.5, 0.25]
    if side == "OOD":
        id_scores, ood_scores = ood_scores[::-1], id_scores
    with pytest.raises(DataError, match="^ID and OOD scores must be finite$"):
        read(detection_report(id_scores, ood_scores))


# ---------------------------------------------------------------------------
# AUROC


def test_auroc_perfect():
    assert detection_report([3.0, 2.0], [1.0, 0.0]).auroc == 1.0


def test_auroc_reversed():
    assert detection_report([1.0, 0.0], [3.0, 2.0]).auroc == 0.0


def test_auroc_all_tied():
    assert detection_report([1.0, 1.0], [1.0, 1.0]).auroc == 0.5


def test_auroc_interleaved():
    # Pairs: (2,3) loses, (2,1) wins, (0,3) loses, (0,1) loses -> 1/4.
    assert detection_report([2.0, 0.0], [3.0, 1.0]).auroc == 0.25


def test_auroc_identical_distributions():
    rng = np.random.default_rng(11)
    pool = rng.normal(size=4000)
    assert detection_report(pool[:2000], pool[2000:]).auroc == pytest.approx(0.5, abs=0.03)


def rank_sum_auroc(id_scores, ood_scores):
    """The rank-sum form the report's AUROC replaced: U from scipy's average
    ranks."""
    rankdata = pytest.importorskip("scipy.stats").rankdata
    n, m = len(id_scores), len(ood_scores)
    ranks = rankdata(np.concatenate([id_scores, ood_scores]), method="average")
    u = ranks[:n].sum() - n * (n + 1) / 2.0
    return float(u / (n * m))


def auroc_draw(shape: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n, m = (int(size) for size in rng.integers(1, 301, 2))
    if shape == "single":           # n = 1 or m = 1, with ties
        n, m = (1, m) if rng.integers(2) else (n, 1)
    if shape == "all_tied":
        return np.full(n, 2.5), np.full(m, 2.5)
    if shape == "signed_zero":      # -0.0 and 0.0 tie: one group, whichever sign
        levels = np.array([-0.0, 0.0, -1.0, 1.0, 2.0])
        return rng.choice(levels, n), rng.choice(levels, m)
    shift = rng.uniform(-2.0, 2.0)
    id_scores, ood_scores = rng.normal(shift, 1.0, n), rng.normal(0.0, 1.0, m)
    if shape == "continuous":
        return id_scores, ood_scores
    return np.round(id_scores), np.round(ood_scores)   # integer-valued, heavy ties


DRAW_SHAPES = list(enumerate(["integer", "continuous", "single", "all_tied", "signed_zero"]))


@pytest.mark.parametrize("seed, shape", DRAW_SHAPES)
def test_auroc_matches_rank_sum_and_pairwise_bit_for_bit(seed, shape):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        id_scores, ood_scores = auroc_draw(shape, rng)
        got = detection_report(id_scores, ood_scores).auroc
        assert got.hex() == rank_sum_auroc(id_scores, ood_scores).hex()
        assert got.hex() == brute_auroc(id_scores, ood_scores).hex()


def threshold_fpr(id_scores, ood_scores, tpr_target):
    """The threshold form the report's FPR replaced: the ceil(t * n)-th
    largest ID score is the threshold, found by sorting the ID scores alone."""
    need = math.ceil(tpr_target * len(id_scores))
    threshold = np.sort(id_scores)[::-1][need - 1]
    return float((np.asarray(ood_scores) >= threshold).mean())


def sweep_aupr(id_scores, ood_scores):
    """The form the report's AUPR replaced: the stable descending sweep,
    precision from the count of scores admitted."""
    values = np.concatenate([id_scores, ood_scores])
    order = np.argsort(-values, kind="stable")
    values = values[order]
    ends = np.flatnonzero(np.append(values[1:] != values[:-1], True))
    tp = np.cumsum(order < len(id_scores))[ends]
    recall = tp / len(id_scores)
    precision = tp / (ends + 1)
    return float((np.diff(recall, prepend=0.0) * precision).sum())


TPR_TARGETS = (1e-300, 0.01, 0.5, 0.95, 0.999, 1.0)


@pytest.mark.parametrize("seed, shape", DRAW_SHAPES)
def test_fpr_and_aupr_match_their_replaced_forms_bit_for_bit(seed, shape):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        id_scores, ood_scores = auroc_draw(shape, rng)
        for tpr_target in TPR_TARGETS:
            report = detection_report(id_scores, ood_scores, tpr_target)
            assert (report.fpr_at_95_tpr.hex()
                    == threshold_fpr(id_scores, ood_scores, tpr_target).hex())
        assert (detection_report(id_scores, ood_scores).aupr.hex()
                == sweep_aupr(id_scores, ood_scores).hex())


@pytest.mark.parametrize("seed, shape", DRAW_SHAPES)
def test_detection_report_is_the_three_metrics_bit_for_bit(seed, shape):
    # One report holds all three metrics at any target: each field equals its
    # reference computed alone, and AUROC and AUPR do not move with the target.
    rng = np.random.default_rng(seed)
    for _ in range(25):
        id_scores, ood_scores = auroc_draw(shape, rng)
        for tpr_target in TPR_TARGETS:
            report = detection_report(id_scores, ood_scores, tpr_target)
            assert ((report.fpr_at_95_tpr.hex(), report.auroc.hex(), report.aupr.hex(),
                     report.n_id, report.n_ood)
                    == (threshold_fpr(id_scores, ood_scores, tpr_target).hex(),
                        brute_auroc(id_scores, ood_scores).hex(),
                        sweep_aupr(id_scores, ood_scores).hex(),
                        len(id_scores), len(ood_scores)))


# ---------------------------------------------------------------------------
# AUPR


def test_aupr_all_equal_scores():
    # With every score tied the single sweep point has precision = ID
    # prevalence; 9 ID vs 1 OOD gives 0.9.
    assert detection_report([1.0] * 9, [1.0]).aupr == pytest.approx(0.9, abs=1e-12)


def test_aupr_perfect():
    assert detection_report([2.0, 3.0], [0.0, 1.0]).aupr == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# agreement with brute force on random inputs, including ties


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_metrics_match_brute_force(data):
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    n = data.draw(st.integers(1, 50))
    m = data.draw(st.integers(1, 50))
    # Quantize scores so ties are common.
    id_scores = np.round(rng.normal(0.5, 1.0, n), 1)
    ood_scores = np.round(rng.normal(0.0, 1.0, m), 1)
    report = detection_report(id_scores, ood_scores, 0.95)
    assert report.fpr_at_95_tpr == pytest.approx(brute_fpr(id_scores, ood_scores), abs=1e-12)
    assert report.auroc == pytest.approx(brute_auroc(id_scores, ood_scores), abs=1e-12)
    assert report.aupr == pytest.approx(brute_aupr(id_scores, ood_scores), abs=1e-12)


def tied_scores(shape: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "quantized":    # a few levels, ties everywhere
        return rng.integers(0, 3, size) / 2.0
    if shape == "all_tied":
        return np.full(size, 0.75)
    # "saturated", like cross-entropy MSP: a block at exactly 1.0 beside
    # values one or two ulps below it
    return rng.choice([1.0, 1.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 0.5], size)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(["quantized", "all_tied", "saturated"]),
       n=st.integers(1, 40), m=st.integers(1, 40),
       rng_seed=st.integers(0, 2**31 - 1),
       tpr_target=st.sampled_from([0.5, 0.95, 1.0]))
@example(shape="saturated", n=1, m=7, rng_seed=0, tpr_target=0.95)
@example(shape="all_tied", n=1, m=1, rng_seed=0, tpr_target=1.0)
def test_metrics_match_brute_force_on_heavy_ties(shape, n, m, rng_seed, tpr_target):
    rng = np.random.default_rng(rng_seed)
    id_scores = tied_scores(shape, n, rng)
    ood_scores = tied_scores(shape, m, rng)
    report = detection_report(id_scores, ood_scores, tpr_target)
    assert report.fpr_at_95_tpr == pytest.approx(
        brute_fpr(id_scores, ood_scores, tpr_target), abs=1e-12)
    assert report.auroc == pytest.approx(brute_auroc(id_scores, ood_scores), abs=1e-12)
    assert report.aupr == pytest.approx(brute_aupr(id_scores, ood_scores), abs=1e-12)


def test_fpr_at_full_tpr_uses_min_id_threshold():
    # At 100% TPR every ID score must pass, so the threshold is the minimum
    # ID score (1.0) and OOD scores >= 1.0 are admitted: 2 of 4.
    id_scores, ood_scores = [3.0, 1.0, 2.0], [1.0, 0.5, 4.0, 0.9]
    assert detection_report(id_scores, ood_scores, 1.0).fpr_at_95_tpr == 0.5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_metrics_invariant_to_monotone_transform(rng_seed):
    rng = np.random.default_rng(rng_seed)
    id_scores = rng.normal(1.0, 1.0, 20)
    ood_scores = rng.normal(0.0, 1.0, 20)
    before = detection_report(id_scores, ood_scores)
    # exp is strictly increasing, so order statistics are untouched
    after = detection_report(np.exp(id_scores), np.exp(ood_scores))
    assert after.fpr_at_95_tpr == pytest.approx(before.fpr_at_95_tpr, abs=1e-12)
    assert after.auroc == pytest.approx(before.auroc, abs=1e-12)
    assert after.aupr == pytest.approx(before.aupr, abs=1e-12)


def test_detection_report_counts():
    r = detection_report([1.0, 2.0, 3.0], [0.0])
    assert (r.n_id, r.n_ood) == (3, 1)


# ---------------------------------------------------------------------------
# ECE


def test_ece_hand_example():
    # conf 0.6 (right) and 0.8 (wrong) land in distinct bins with M=15:
    # 0.5 * |1 - 0.6| + 0.5 * |0 - 0.8| = 0.2 + 0.4 = 0.6
    assert ece([0.6, 0.8], [True, False], M=15) == pytest.approx(0.6, abs=1e-12)


def test_ece_all_confident_all_correct():
    assert ece([1.0] * 5, [True] * 5, M=15) == pytest.approx(0.0, abs=1e-12)


def test_ece_all_confident_half_correct():
    assert ece([1.0] * 4, [True, True, False, False], M=15) == pytest.approx(0.5, abs=1e-12)


def test_ece_single_bin_is_mean_gap():
    rng = np.random.default_rng(7)
    conf = rng.uniform(0.2, 0.9, 100)
    corr = rng.uniform(size=100) < conf
    assert ece(conf, corr, M=1) == pytest.approx(abs(corr.mean() - conf.mean()), abs=1e-12)


def test_ece_perfectly_calibrated_bins():
    # Build a bin where accuracy equals mean confidence exactly.
    conf = [0.5, 0.5, 0.5, 0.5]
    corr = [True, True, False, False]
    assert ece(conf, corr, M=15) == pytest.approx(0.0, abs=1e-12)


def test_ece_bin_assignment_boundaries():
    # With M=10, confidence 0.1 belongs to the first bin (right-closed) and
    # 0.10001 to the second. One right and one wrong: split, each bin's gap
    # counts alone (0.5 * 0.9 + 0.5 * 0.10001); in one bin the ECE would be
    # |0.5 - 0.100005| = 0.399995.
    assert ece([0.1, 0.10001], [True, False], M=10) == pytest.approx(
        0.5 * 0.9 + 0.5 * 0.10001, abs=1e-12)


def test_ece_validation():
    with pytest.raises(DataError):
        ece([], [], M=15)
    with pytest.raises(DataError):
        ece([0.5], [True], M=0)
    with pytest.raises(DataError):
        ece([0.5, 0.6], [True], M=15)


@pytest.mark.parametrize("conf", [[math.nan, 0.5], [math.inf, 0.5], [1.5, 0.5], [0.5, -0.25]])
def test_ece_rejects_a_confidence_outside_the_unit_interval(conf):
    with pytest.raises(DataError, match=r"^confidences must lie in \[0, 1\]$"):
        ece(conf, [True, False])


# ---------------------------------------------------------------------------
# temperature scaling


def _sharpened_logits(T_true, n=4000, k=10, seed=0):
    """Logits whose NLL-optimal temperature is close to T_true: draw
    well-calibrated logits, then multiply by T_true so dividing by T_true
    restores them."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 2.0, (n, k))
    probs = np.exp(base - base.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(k, p=p) for p in probs])
    return base * T_true, labels


def test_fit_temperature_recovers_known_scale():
    logits, labels = _sharpened_logits(3.0)
    t = fit_temperature(logits, labels)
    assert abs(t - 3.0) / 3.0 < 0.02


def test_fit_temperature_never_hurts_nll():
    logits, labels = _sharpened_logits(0.5, seed=4)
    t = fit_temperature(logits, labels)
    assert (nll_at_temperature(logits, labels, t)
            <= nll_at_temperature(logits, labels, 1.0) + 1e-9)


def test_fit_temperature_degenerate_labels():
    # All labels identical: the NLL keeps improving as T shrinks toward the
    # grid edge, but the fit must still return something finite and no worse
    # than T=1.
    logits = np.tile(np.array([[5.0, 0.0, 0.0]]), (50, 1))
    labels = np.zeros(50, dtype=np.int64)
    t = fit_temperature(logits, labels)
    assert np.isfinite(t) and t > 0
    assert (nll_at_temperature(logits, labels, t)
            <= nll_at_temperature(logits, labels, 1.0) + 1e-9)


def test_fit_temperature_empty_raises():
    with pytest.raises(DataError):
        fit_temperature(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_temperature_rejects_non_finite_logits(bad):
    with pytest.raises(DataError, match="^validation logits must be finite$"):
        fit_temperature(np.array([[bad, 1.0]]), np.array([0]))


def test_nll_at_temperature_matches_direct():
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0])
    expected = -math.log(math.exp(0.5) / (math.exp(0.5) + math.exp(0.0)))
    assert nll_at_temperature(logits, labels, 2.0) == pytest.approx(
        0.5 * (expected + (-math.log(math.exp(0.0) / (math.exp(0.0) + math.exp(0.5))))),
        abs=1e-12)
