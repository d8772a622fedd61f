"""Brute-force detection metrics, written from their definitions and
independent of `logitbench.metrics`.  ID is the positive class and a score
at or above the threshold counts as ID."""

from __future__ import annotations

import numpy as np

CHUNK = 1024


def fpr_at_tpr(id_scores, ood_scores, tpr_target: float = 0.95) -> float:
    """OOD fraction admitted at the largest threshold, taken among the ID
    scores, that keeps at least `tpr_target` of the ID scores."""
    ids = np.asarray(id_scores, dtype=np.float64)
    ood = np.asarray(ood_scores, dtype=np.float64)
    for t in np.unique(ids)[::-1]:
        if np.count_nonzero(ids >= t) >= tpr_target * ids.size:
            return np.count_nonzero(ood >= t) / ood.size
    raise ValueError("no threshold reaches the TPR target")


def auroc(id_scores, ood_scores) -> float:
    """Fraction of (ID, OOD) pairs ordered correctly, ties counted half,
    by comparing every pair."""
    ids = np.asarray(id_scores, dtype=np.float64)
    ood = np.asarray(ood_scores, dtype=np.float64)
    wins = 0
    ties = 0
    for start in range(0, ids.size, CHUNK):
        block = ids[start:start + CHUNK, None]
        wins += int(np.count_nonzero(block > ood[None, :]))
        ties += int(np.count_nonzero(block == ood[None, :]))
    return (wins + 0.5 * ties) / (ids.size * ood.size)


def aupr(id_scores, ood_scores) -> float:
    """Step-interpolated area under precision-recall: at each distinct
    score, from the highest down, everything at or above it is taken."""
    ids = np.sort(np.asarray(id_scores, dtype=np.float64))
    everything = np.sort(np.concatenate([ids, np.asarray(ood_scores, dtype=np.float64)]))
    thresholds = np.unique(everything)[::-1]
    tp = ids.size - np.searchsorted(ids, thresholds, side="left")
    taken = everything.size - np.searchsorted(everything, thresholds, side="left")
    recall = tp / ids.size
    precision = tp / taken
    steps = np.diff(np.concatenate([[0.0], recall]))
    return float(sum(float(s) * float(p) for s, p in zip(steps, precision)))


def detection(id_scores, ood_scores, tpr_target: float = 0.95) -> dict[str, float]:
    return {"fpr95": fpr_at_tpr(id_scores, ood_scores, tpr_target),
            "auroc": auroc(id_scores, ood_scores),
            "aupr": aupr(id_scores, ood_scores)}
