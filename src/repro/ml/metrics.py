"""Classification metrics: F1 variants, confusion matrices, reports.

§5.1 evaluates with *weighted-average* F1 — "the mean of all per-class
F1 scores while considering each class's support" — because the dataset
is heavily imbalanced (Table 2), and reads confusion matrices to find
which categories mix (Figure 2).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "weighted_f1_score",
    "classification_report",
    "roc_auc_score",
]


def _align(y_true, y_pred, labels=None):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred lengths differ: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    else:
        labels = np.asarray(labels)
    return y_true, y_pred, labels


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exactly matching predictions."""
    y_true, y_pred, _ = _align(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, labels: Sequence | None = None) -> np.ndarray:
    """Confusion matrix ``C[i, j]`` = count(true = labels[i], pred = labels[j]).

    ``labels`` fixes row/column order (defaults to sorted union).
    """
    y_true, y_pred, labels = _align(y_true, y_pred, labels)
    index = {lab: i for i, lab in enumerate(labels.tolist())}
    n = len(labels)
    cm = np.zeros((n, n), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        ti = index.get(t)
        pi = index.get(p)
        if ti is None or pi is None:
            raise ValueError(f"label outside provided label set: {t!r}/{p!r}")
        cm[ti, pi] += 1
    return cm


def precision_recall_f1(
    y_true, y_pred, labels: Sequence | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-class precision, recall, F1, and support.

    Classes with zero predicted (or true) instances get precision
    (recall) of 0, matching the usual zero-division convention.
    """
    y_true, y_pred, labels = _align(y_true, y_pred, labels)
    cm = confusion_matrix(y_true, y_pred, labels)
    tp = np.diag(cm).astype(np.float64)
    pred_tot = cm.sum(axis=0).astype(np.float64)
    true_tot = cm.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_tot > 0, tp / pred_tot, 0.0)
        recall = np.where(true_tot > 0, tp / true_tot, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    return precision, recall, f1, true_tot.astype(np.int64)


def weighted_f1_score(y_true, y_pred, labels: Sequence | None = None) -> float:
    """Support-weighted mean of per-class F1 (the paper's headline metric)."""
    _p, _r, f1, support = precision_recall_f1(y_true, y_pred, labels)
    total = support.sum()
    if total == 0:
        raise ValueError("no true samples in any class")
    return float((f1 * support).sum() / total)


def roc_auc_score(y_true, scores) -> float:
    """Area under the ROC curve for binary labels and real scores.

    Computed via the Mann–Whitney U statistic (rank formulation), with
    midranks for tied scores.

    Parameters
    ----------
    y_true:
        Booleans (or 0/1) — True marks the positive class.
    scores:
        Higher scores should indicate the positive class.

    Raises
    ------
    ValueError
        If only one class is present (AUC undefined).
    """
    y = np.asarray(y_true).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {s.shape}")
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc_score needs both classes present")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    # midranks for ties
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def classification_report(
    y_true, y_pred, labels: Sequence | None = None, digits: int = 4
) -> str:
    """Human-readable per-class report plus weighted averages."""
    y_true, y_pred, labels = _align(y_true, y_pred, labels)
    precision, recall, f1, support = precision_recall_f1(y_true, y_pred, labels)
    name_w = max(12, max(len(str(lab)) for lab in labels) + 2)
    header = (
        f"{'':{name_w}}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}"
    )
    lines = [header]
    for lab, p, r, f, s in zip(labels, precision, recall, f1, support):
        lines.append(
            f"{str(lab):{name_w}}{p:>10.{digits}f}{r:>10.{digits}f}"
            f"{f:>10.{digits}f}{s:>10d}"
        )
    total = support.sum()
    wp = float((precision * support).sum() / total)
    wr = float((recall * support).sum() / total)
    wf = float((f1 * support).sum() / total)
    lines.append(
        f"{'weighted avg':{name_w}}{wp:>10.{digits}f}{wr:>10.{digits}f}"
        f"{wf:>10.{digits}f}{total:>10d}"
    )
    lines.append(f"{'accuracy':{name_w}}{accuracy_score(y_true, y_pred):>40.{digits}f}")
    return "\n".join(lines)
