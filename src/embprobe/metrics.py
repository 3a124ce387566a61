"""Evaluation metrics: accuracy with bootstrap CIs, R^2 with permutation
p-values, and EER for score files."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_resampling
from .rng import make_rng


@dataclass(frozen=True)
class ClassificationResult:
    accuracy: float
    ci_low: float
    ci_high: float
    n: int
    confusion: np.ndarray  # rows = true label, cols = prediction


@dataclass(frozen=True)
class RegressionResult:
    r_squared: float
    p_value: float
    n: int


@dataclass(frozen=True)
class EERResult:
    eer: float
    threshold: float


def accuracy(preds, labels) -> float:
    """Fraction of matching prediction/label pairs."""
    p = np.asarray(preds).reshape(-1)
    t = np.asarray(labels).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("preds and labels must have equal length")
    if p.size == 0:
        raise ValueError("empty input")
    return float(np.mean(p == t))


def confusion_matrix(preds, labels, n_classes: int) -> np.ndarray:
    p = np.asarray(preds, dtype=np.int64).reshape(-1)
    t = np.asarray(labels, dtype=np.int64).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("preds and labels must have equal length")
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(mat, (t, p), 1)
    return mat


def bootstrap_ci(preds, labels, n_boot: int = 1000, alpha: float = 0.05,
                 seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for classification accuracy.

    Resamples (pred, label) pairs with replacement and returns the
    (alpha/2, 1-alpha/2) percentiles of the resampled accuracies.
    """
    p = np.asarray(preds).reshape(-1)
    t = np.asarray(labels).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("preds and labels must have equal length")
    n = p.size
    if n < 2:
        raise ValueError("need at least 2 samples for a bootstrap interval")
    check_resampling(n_boot=n_boot, alpha=alpha)
    rng = make_rng(seed, "bootstrap")
    hits = (p == t).astype(np.float64)
    idx = rng.integers(0, n, size=(n_boot, n))
    accs = hits[idx].mean(axis=1)
    low, high = np.percentile(accs, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    return float(low), float(high)


def classification_result(preds, labels, n_classes: int, n_boot: int = 1000,
                          alpha: float = 0.05, seed: int = 0) -> ClassificationResult:
    acc = accuracy(preds, labels)
    low, high = bootstrap_ci(preds, labels, n_boot=n_boot, alpha=alpha, seed=seed)
    return ClassificationResult(
        accuracy=acc, ci_low=low, ci_high=high,
        n=int(np.asarray(preds).reshape(-1).size),
        confusion=confusion_matrix(preds, labels, n_classes),
    )


def r_squared(preds, targets) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot about the target mean."""
    p = np.asarray(preds, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("preds and targets must have equal length")
    if p.size < 2:
        raise ValueError("need at least 2 samples")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("undefined R^2: targets have zero variance")
    ss_res = float(np.sum((t - p) ** 2))
    return 1.0 - ss_res / ss_tot


def permutation_p_value(preds, targets, n_perm: int = 999, seed: int = 0) -> float:
    """Permutation test on R^2: p = (1 + #{perm R^2 >= observed}) / (n_perm + 1)."""
    p = np.asarray(preds, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.shape != t.shape:
        raise ValueError("preds and targets must have equal length")
    if p.size < 3:
        raise ValueError("need at least 3 samples")
    check_resampling(n_perm=n_perm)
    observed = r_squared(p, t)
    rng = make_rng(seed, "permutation")
    count = 0
    for _ in range(n_perm):
        if r_squared(p, rng.permutation(t)) >= observed:
            count += 1
    return (1 + count) / (n_perm + 1)


def regression_result(preds, targets, n_perm: int = 999, seed: int = 0) -> RegressionResult:
    return RegressionResult(
        r_squared=r_squared(preds, targets),
        p_value=permutation_p_value(preds, targets, n_perm=n_perm, seed=seed),
        n=int(np.asarray(preds).reshape(-1).size),
    )


def eer(positive_scores, negative_scores) -> EERResult:
    """Equal error rate; higher score means more positive (bonafide).

    Sweeps thresholds over the union of observed scores. FAR is the fraction
    of negatives >= t, FRR the fraction of positives < t; the EER is
    (FAR+FRR)/2 at the crossing, linearly interpolated between adjacent
    operating points. The reported threshold is the sweep point with minimal
    |FAR - FRR| (ties broken toward the lower threshold).
    """
    pos = np.sort(np.asarray(positive_scores, dtype=np.float64).reshape(-1))
    neg = np.sort(np.asarray(negative_scores, dtype=np.float64).reshape(-1))
    if pos.size == 0 or neg.size == 0:
        raise ValueError("missing class: both score sets must be non-empty")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise ValueError("non-finite score")
    uniq = np.unique(np.concatenate([pos, neg]))
    # sentinels below the minimum (FAR=1, FRR=0) and above the maximum (FAR=0, FRR=1)
    ths = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    far = 1.0 - np.searchsorted(neg, ths, side="left") / neg.size
    frr = np.searchsorted(pos, ths, side="left") / pos.size
    d = far - frr  # non-increasing from 1 to -1
    i = int(np.searchsorted(-d, 0.0, side="right")) - 1
    if d[i] == 0.0:
        j = int(np.searchsorted(-d, 0.0, side="left"))  # first exact crossing
        return EERResult(eer=float((far[j] + frr[j]) / 2.0), threshold=float(ths[j]))
    alpha = d[i] / (d[i] - d[i + 1])
    far_x = (1.0 - alpha) * far[i] + alpha * far[i + 1]
    frr_x = (1.0 - alpha) * frr[i] + alpha * frr[i + 1]
    k = i + 1 if abs(d[i + 1]) < abs(d[i]) else i
    return EERResult(eer=float((far_x + frr_x) / 2.0), threshold=float(ths[k]))
