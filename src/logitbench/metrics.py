"""Detection metrics (FPR at fixed TPR, AUROC, AUPR with ID as the positive
class) and calibration metrics (ECE with equal-width bins, temperature
scaling fit by golden-section search)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .losses import cross_entropy_values


@dataclass(frozen=True)
class DetectionReport:
    fpr_at_95_tpr: float
    auroc: float
    aupr: float
    n_id: int
    n_ood: int


def check_tpr_target(tpr_target: float, error: type[Exception] = DataError) -> None:
    """Raise `error` unless tpr_target lies in (0, 1]."""
    if not 0.0 < tpr_target <= 1.0:
        raise error(f"tpr_target must be in (0, 1], got {tpr_target}")


def _ranking(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    """The ID and OOD scores ranked together, highest first; DataError when
    either is empty or a score is not finite. For each group of tied scores,
    returns the count of ID scores (tp) and of OOD scores (fp) at or above
    it, counted per group on each side and summed from the top: a group
    enters the sweep as a whole."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if len(id_scores) == 0 or len(ood_scores) == 0:
        raise DataError("need at least one ID and one OOD example")
    values = np.concatenate([id_scores, ood_scores])
    if not np.isfinite(values).all():
        raise DataError("ID and OOD scores must be finite")
    groups, group = np.unique(values, return_inverse=True)
    return tuple(np.bincount(side, minlength=len(groups))[::-1].cumsum()
                 for side in np.split(group, [len(id_scores)]))


def detection_report(id_scores, ood_scores, tpr_target: float = 0.95) -> DetectionReport:
    """FPR at tpr_target TPR, AUROC and AUPR (ID positive, score >= threshold
    counts as ID), all three read off one ranking of the scores."""
    check_tpr_target(tpr_target)
    tp, fp = _ranking(id_scores, ood_scores)
    n, m = int(tp[-1]), int(fp[-1])
    # FPR: the OOD fraction admitted by the first group that admits
    # ceil(tpr_target * n) ID scores, the largest threshold keeping that many.
    fpr = fp[np.argmax(tp >= math.ceil(tpr_target * n))] / m
    # AUROC: P(random ID score > random OOD score), ties counted half. The
    # Mann-Whitney U in exact integers: each ID score of a group adds
    # (#OOD below + #OOD at or below) / 2.
    u = (np.diff(tp, prepend=0) * (2 * (m - fp) + np.diff(fp, prepend=0))).sum() / 2
    # AUPR: precision-recall area with step interpolation.
    recall = tp / n
    area = (np.diff(recall, prepend=0.0) * (tp / (tp + fp))).sum()
    return DetectionReport(float(fpr), float(u / (n * m)), float(area), n, m)


def ece(confidences: Sequence[float], correct: Sequence[bool],
        M: int = 15) -> float:
    """Expected calibration error over M equal-width bins on [0, 1], which must hold every
    confidence; bins are right-closed except the first, which also contains 0."""
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=bool)
    if conf.shape != corr.shape or conf.size == 0:
        raise DataError(f"confidences {conf.shape} / correct {corr.shape} mismatch or empty")
    if M < 1:
        raise DataError(f"M must be >= 1, got {M}")
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise DataError("confidences must lie in [0, 1]")
    idx = np.clip(np.ceil(conf * M).astype(int) - 1, 0, M - 1)
    n = conf.size
    total = 0.0
    for b in range(M):
        members = idx == b
        count = int(members.sum())
        if count == 0:
            continue
        conf_mean = float(conf[members].mean())
        acc = float(corr[members].mean())
        total += count / n * abs(acc - conf_mean)
    return total


# The temperature search range and tolerance, on log10 T.
LOG10_T_LO, LOG10_T_HI, LOG10_T_TOL = -4.0, 4.0, 1e-4


def nll_at_temperature(logits: np.ndarray, labels: np.ndarray, T: float) -> float:
    return float(cross_entropy_values(logits / T, labels).mean())


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Temperature minimizing validation NLL.

    Coarse grid over log10 T in [LOG10_T_LO, LOG10_T_HI], then golden-section
    refinement to LOG10_T_TOL on log10 T; never returns a temperature with
    NLL above T=1.
    """
    if logits.shape[0] == 0:
        raise DataError("validation set must be nonempty")
    if not np.isfinite(logits).all():
        raise DataError("validation logits must be finite")

    def nll_log(t_log: float) -> float:
        return nll_at_temperature(logits, labels, 10.0 ** t_log)

    grid = np.linspace(LOG10_T_LO, LOG10_T_HI, 81)
    values = [nll_log(t) for t in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll_log(c), nll_log(d)
    while b - a > LOG10_T_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll_log(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll_log(d)
    t = 10.0 ** ((a + b) / 2.0)
    if nll_at_temperature(logits, labels, t) > nll_at_temperature(logits, labels, 1.0):
        return 1.0
    return float(t)

