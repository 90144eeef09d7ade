"""Confusion matrix, OA/AA/Kappa, and multi-trial aggregation.

Class 0 (unlabeled) is excluded from every metric. Kappa is evaluated
with integer arithmetic, kappa = (N*trace - S) / (N^2 - S) with
S = sum_c rowsum_c * colsum_c, so the hand-check cases are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MetricError


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true classes 1..K, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DimensionError(f"confusion matrix must be square, got {counts.shape}")
        if counts.min(initial=0) < 0:
            raise DimensionError("confusion matrix entries must be >= 0")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @staticmethod
    def from_predictions(true_labels, pred_labels, n_classes: int) -> "ConfusionMatrix":
        """Accumulate counts over 1-based labels, ignoring true label 0."""
        true_labels = np.asarray(true_labels).reshape(-1)
        pred_labels = np.asarray(pred_labels).reshape(-1)
        if true_labels.shape != pred_labels.shape:
            raise DimensionError("true/pred label arrays differ in length")
        keep = true_labels != 0
        t = true_labels[keep] - 1
        p = pred_labels[keep] - 1
        if t.size and (t.min() < 0 or t.max() >= n_classes or p.min() < 0 or p.max() >= n_classes):
            raise DimensionError(f"labels outside 1..{n_classes}")
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(counts, (t, p), 1)
        return ConfusionMatrix(counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def oa(m: ConfusionMatrix) -> float:
    """Overall accuracy: trace / total."""
    total = m.total
    if total == 0:
        raise MetricError("overall accuracy undefined for an empty matrix")
    return int(np.trace(m.counts)) / total


def per_class(m: ConfusionMatrix) -> np.ndarray:
    """Diagonal over row sums; errors on a class with no samples."""
    rowsums = m.counts.sum(axis=1)
    for cls, rs in enumerate(rowsums, start=1):
        if rs == 0:
            raise MetricError(f"class {cls} has no evaluated samples")
    return np.diag(m.counts) / rowsums


def aa(m: ConfusionMatrix) -> float:
    """Average accuracy: mean of the per-class accuracies."""
    return float(per_class(m).mean())


def kappa(m: ConfusionMatrix) -> float:
    """Cohen's kappa, chance-corrected agreement in [-1, 1]."""
    total = m.total
    if total == 0:
        raise MetricError("kappa undefined for an empty matrix")
    trace = int(np.trace(m.counts))
    rowsums = m.counts.sum(axis=1)
    colsums = m.counts.sum(axis=0)
    s = int((rowsums * colsums).sum())
    num = total * trace - s
    den = total * total - s
    if den == 0:
        # all expectation mass in one (row, col) pair
        return 1.0 if trace == total else 0.0
    return num / den


def aggregate_trials(reports) -> dict:
    """The `trials` block of trial_report.json: population mean/std over
    trials and 'best' per metric, where the best trial is the one with
    maximum OA, whose AA, kappa, and per-class accuracies are reported
    alongside (matching the best-of-n convention)."""
    reports = list(reports)
    if not reports:
        raise MetricError("aggregate_trials: empty trial list")
    values = {key: np.array([r[key] for r in reports], dtype=np.float64) for key in ("oa", "aa", "kappa")}
    best = int(np.argmax(values["oa"]))
    return {
        "n": len(reports),
        **{key: {"mean": float(v.mean()), "std": float(v.std()), "best": float(v[best])}
           for key, v in values.items()},
        "best_trial": best,
        "per_class_best": [float(x) for x in reports[best]["per_class"]],
    }
