"""Detection metrics (FPR at fixed TPR, AUROC, AUPR with ID as the positive
class) and calibration metrics (ECE with equal-width bins, temperature
scaling fit by golden-section search)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from .errors import DataError
from .losses import cross_entropy_values
from .scores import ScoredExample


@dataclass(frozen=True)
class DetectionReport:
    fpr_at_95_tpr: float
    auroc: float
    aupr: float
    n_id: int
    n_ood: int


@dataclass(frozen=True)
class BinRecord:
    conf_mean: float
    accuracy: float
    count: int


@dataclass(frozen=True)
class CalibrationReport:
    ece: float
    bins: tuple[BinRecord, ...]
    fitted_T: Optional[float] = None


def check_tpr_target(tpr_target: float, error: type[Exception] = DataError) -> None:
    """Raise `error` unless tpr_target lies in (0, 1]."""
    if not 0.0 < tpr_target <= 1.0:
        raise error(f"tpr_target must be in (0, 1], got {tpr_target}")


def _split_scores(scored: Sequence[ScoredExample]) -> tuple[np.ndarray, np.ndarray]:
    id_scores = np.array([ex.score for ex in scored if ex.origin == "ID"])
    ood_scores = np.array([ex.score for ex in scored if ex.origin == "OOD"])
    if len(id_scores) == 0 or len(ood_scores) == 0:
        raise DataError("need at least one ID and one OOD example")
    return id_scores, ood_scores


def _fpr_at_tpr(id_scores: np.ndarray, ood_scores: np.ndarray, tpr_target: float) -> float:
    need = math.ceil(tpr_target * len(id_scores))
    threshold = np.sort(id_scores)[::-1][need - 1]
    return float((ood_scores >= threshold).mean())


def _auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    n, m = len(id_scores), len(ood_scores)
    ranks = rankdata(np.concatenate([id_scores, ood_scores]), method="average")
    u = ranks[:n].sum() - n * (n + 1) / 2.0
    return float(u / (n * m))


def _aupr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    values = np.concatenate([id_scores, ood_scores])
    order = np.argsort(-values, kind="stable")
    values = values[order]
    # Each tied group enters the sweep at once: evaluate at the group ends.
    ends = np.flatnonzero(np.append(values[1:] != values[:-1], True))
    tp = np.cumsum(order < len(id_scores))[ends]
    recall = tp / len(id_scores)
    precision = tp / (ends + 1)
    return float((np.diff(recall, prepend=0.0) * precision).sum())


def fpr_at_tpr(scored: Sequence[ScoredExample], tpr_target: float = 0.95) -> float:
    """OOD fraction admitted at the largest threshold that keeps at least
    tpr_target of the ID examples (score >= threshold counts as ID)."""
    check_tpr_target(tpr_target)
    return _fpr_at_tpr(*_split_scores(scored), tpr_target)


def auroc(scored: Sequence[ScoredExample]) -> float:
    """P(random ID score > random OOD score), ties counted half
    (Mann-Whitney U via average ranks)."""
    return _auroc(*_split_scores(scored))


def aupr(scored: Sequence[ScoredExample]) -> float:
    """Area under precision-recall (ID positive), descending-score sweep
    with step interpolation; tied scores enter together."""
    return _aupr(*_split_scores(scored))


def detection_report(scored: Sequence[ScoredExample],
                     tpr_target: float = 0.95) -> DetectionReport:
    check_tpr_target(tpr_target)
    id_scores, ood_scores = _split_scores(scored)
    return DetectionReport(
        fpr_at_95_tpr=_fpr_at_tpr(id_scores, ood_scores, tpr_target),
        auroc=_auroc(id_scores, ood_scores),
        aupr=_aupr(id_scores, ood_scores),
        n_id=len(id_scores),
        n_ood=len(ood_scores),
    )


def ece(confidences: Sequence[float], correct: Sequence[bool],
        M: int = 15) -> CalibrationReport:
    """Expected calibration error over M equal-width bins on [0, 1]; bins are
    right-closed except the first, which also contains 0."""
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=bool)
    if conf.shape != corr.shape or conf.size == 0:
        raise DataError(f"confidences {conf.shape} / correct {corr.shape} mismatch or empty")
    if M < 1:
        raise DataError(f"M must be >= 1, got {M}")
    idx = np.clip(np.ceil(conf * M).astype(int) - 1, 0, M - 1)
    n = conf.size
    total = 0.0
    bins = []
    for b in range(M):
        members = idx == b
        count = int(members.sum())
        if count == 0:
            bins.append(BinRecord(0.0, 0.0, 0))
            continue
        conf_mean = float(conf[members].mean())
        acc = float(corr[members].mean())
        total += count / n * abs(acc - conf_mean)
        bins.append(BinRecord(conf_mean, acc, count))
    return CalibrationReport(float(total), tuple(bins))


def nll_at_temperature(logits: np.ndarray, labels: np.ndarray, T: float) -> float:
    return float(cross_entropy_values(logits / T, labels).mean())


def fit_temperature(logits, labels, *, log10_lo: float = -4.0,
                    log10_hi: float = 4.0, tol: float = 1e-4) -> float:
    """Temperature minimizing validation NLL.

    Coarse grid over log10 T in [-4, 4], then golden-section refinement to
    tol on log10 T; never returns a temperature with NLL above T=1.
    """
    logits = np.asarray(logits if not hasattr(logits, "data") else logits.data,
                        dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.shape[0] == 0:
        raise DataError("validation set must be nonempty")

    def nll_log(t_log: float) -> float:
        return nll_at_temperature(logits, labels, 10.0 ** t_log)

    grid = np.linspace(log10_lo, log10_hi, 81)
    values = [nll_log(t) for t in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll_log(c), nll_log(d)
    while b - a > tol:
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


def detection_report_csv(reports: dict[str, DetectionReport]) -> str:
    lines = ["name,fpr_at_95_tpr,auroc,aupr,n_id,n_ood"]
    for name, r in reports.items():
        lines.append(f"{name},{r.fpr_at_95_tpr:.17g},{r.auroc:.17g},"
                     f"{r.aupr:.17g},{r.n_id},{r.n_ood}")
    return "\n".join(lines) + "\n"
