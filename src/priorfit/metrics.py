"""Evaluation metrics: multiclass one-vs-one ROC-AUC, MSE, and the
rank-and-wins table machinery.

Ranks are dense with ties sharing the best rank of their group; every
algorithm tied for first place on a dataset collects a win. AUC summaries
come in two styles: the std across splits of the per-split mean (suite
level), and the mean across datasets of the per-dataset std (dataset level).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)


def binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank-based AUC with tie correction (ties count half)."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("binary AUC needs both classes present")
    if not np.isfinite(scores).all():
        raise ValueError("binary AUC needs finite scores")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = np.cumsum(counts) - (counts - 1) / 2.0  # ties share their mean rank
    rank_sum = ranks[group][positive].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_ovo(probs: np.ndarray, labels: np.ndarray,
                classes: Optional[np.ndarray] = None) -> float:
    """Mean over unordered class pairs of the pairwise AUC, each computed on
    the rows belonging to either class with both classes' probability scores.

    `classes` names the probability columns (defaults to 0..C-1). Pairs with
    an empty side, or a class without a probability column, are skipped; if
    everything is skipped that is an error. The binary case reduces to the
    standard AUC.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if classes is None:
        classes = np.arange(probs.shape[1])
    col = {c: j for j, c in enumerate(classes)}
    present = np.unique(labels)
    if present.size < 2:
        raise ValueError("one-vs-one AUC needs at least two classes in labels")
    pair_aucs = []
    for i in range(present.size):
        for j in range(i + 1, present.size):
            a, b = present[i], present[j]
            if a not in col or b not in col:
                log.warning("skipping pair (%s, %s): no probability column", a, b)
                continue
            rows = (labels == a) | (labels == b)
            if not (labels[rows] == a).any() or not (labels[rows] == b).any():
                continue
            auc_a = binary_auc(probs[rows, col[a]], labels[rows] == a)
            auc_b = binary_auc(probs[rows, col[b]], labels[rows] == b)
            pair_aucs.append(0.5 * (auc_a + auc_b))
    if not pair_aucs:
        raise ValueError("every class pair was skipped")
    return float(np.mean(pair_aucs))


def mse(predictions: np.ndarray, truth: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return float(np.mean((predictions - truth) ** 2))


def dense_ranks(scores: np.ndarray, higher_is_better: bool = True) -> np.ndarray:
    """Dense competition ranks for one dataset's scores; NaN ranks last."""
    scores = np.asarray(scores, dtype=np.float64)
    valid = ~np.isnan(scores)
    ranks = np.empty(scores.size, dtype=np.float64)
    if valid.any():
        uniq = np.unique(scores[valid])
        if higher_is_better:
            uniq = uniq[::-1]
        lookup = {s: r + 1 for r, s in enumerate(uniq)}
        ranks[valid] = [lookup[s] for s in scores[valid]]
        worst = uniq.size + 1
    else:
        worst = 1
    if (~valid).any():
        log.warning("%d missing scores ranked last", int((~valid).sum()))
    ranks[~valid] = worst
    return ranks


@dataclass
class MetricReport:
    """Per-dataset scores with the rank/wins summary across algorithms."""

    algorithms: list[str]
    datasets: list[str]
    scores: np.ndarray                 # (n_datasets, n_algorithms)
    ranks: np.ndarray                  # same shape
    wins: np.ndarray                   # (n_algorithms,)
    higher_is_better: bool = True

    def rank_summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for j, name in enumerate(self.algorithms):
            col = self.ranks[:, j]
            out[name] = {"mean": float(col.mean()), "median": float(np.median(col)),
                         "min": float(col.min()), "max": float(col.max()),
                         "wins": int(self.wins[j])}
        return out


def rank_and_wins(scores: np.ndarray, algorithms: list[str],
                  datasets: Optional[list[str]] = None,
                  higher_is_better: bool = True) -> MetricReport:
    """Build the rank/wins report from a complete (datasets x algorithms)
    score matrix. Ties share the best rank and each first place is a win."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != len(algorithms):
        raise ValueError("scores must be (n_datasets, n_algorithms)")
    ranks = np.vstack([dense_ranks(row, higher_is_better) for row in scores])
    wins = (ranks == 1.0).sum(axis=0)
    names = datasets or [f"dataset_{i}" for i in range(scores.shape[0])]
    return MetricReport(algorithms=list(algorithms), datasets=list(names),
                        scores=scores, ranks=ranks, wins=wins,
                        higher_is_better=higher_is_better)


def score_summary(matrix: np.ndarray) -> dict[str, float]:
    """Both deviation styles over a (datasets x splits) score matrix. NaN
    cells are failed splits: they enter no figure and are counted."""
    matrix = np.asarray(matrix, dtype=np.float64)
    scored = ~np.isnan(matrix)
    if not scored.any():
        raise ValueError("no split was scored")
    per_split_mean = np.nanmean(matrix[:, scored.any(axis=0)], axis=0)
    per_dataset_std = np.nanstd(matrix[scored.any(axis=1)], axis=1)
    return {
        "mean": float(matrix[scored].mean()),
        "std_of_mean": float(per_split_mean.std()),
        "mean_of_std": float(per_dataset_std.mean()),
        "failed_splits": int((~scored).sum()),
    }
