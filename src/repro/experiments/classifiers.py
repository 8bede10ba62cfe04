"""EXP-F3 / EXP-F2 / EXP-ABL-U: the traditional-classifier comparison.

Reproduces Figure 3 (eight classifiers: weighted F1, training time,
testing time), Figure 2 (Linear SVC confusion matrix), and the §5.1
ablation (drop "Unimportant": F1 up, SVC training time down sharply).

The paper ran Linear SVC through liblinear's dual coordinate-descent
solver, which dominates Figure 3's training-time column (211.78 s); we
default the comparison to the same ``solver="dual"`` so the time
*shape* (SVC slowest by a wide margin) reproduces honestly, and keep
the fast primal solver available for deployments.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import ExperimentData
from repro.ml import (
    ComplementNB,
    KNeighborsClassifier,
    LinearSVC,
    LogisticRegression,
    NearestCentroid,
    RandomForestClassifier,
    RidgeClassifier,
    SGDClassifier,
    confusion_matrix,
    weighted_f1_score,
)

__all__ = [
    "ClassifierRow",
    "CLASSIFIER_FACTORIES",
    "PAPER_FIG3_F1",
    "fig3_layout",
    "run_classifier_comparison",
    "linear_svc_confusion",
]

#: Figure 3's classifier roster, in the paper's row order.
CLASSIFIER_FACTORIES: Mapping[str, Callable[[], object]] = {
    "Logistic Regression": lambda: LogisticRegression(max_iter=200),
    "Ridge Classifier": lambda: RidgeClassifier(),
    "kNN": lambda: KNeighborsClassifier(n_neighbors=5),
    "Random Forest": lambda: RandomForestClassifier(n_estimators=40, max_depth=25),
    "Linear SVC": lambda: LinearSVC(solver="dual", max_iter=40),
    "Log-loss SGD": lambda: SGDClassifier(),
    "Nearest Centroid": lambda: NearestCentroid(),
    "Complement Naive Bayes": lambda: ComplementNB(),
}

#: Figure 3's weighted F1 as the paper measured it (196k messages).
PAPER_FIG3_F1: Mapping[str, float] = {
    "Logistic Regression": 0.9992,
    "Ridge Classifier": 0.9987,
    "kNN": 0.998475,
    "Random Forest": 0.9995,
    "Linear SVC": 0.99925,
    "Log-loss SGD": 0.987794,
    "Nearest Centroid": 0.952334,
    "Complement Naive Bayes": 0.99751,
}


@dataclass(frozen=True)
class ClassifierRow:
    """One Figure 3 row."""

    name: str
    weighted_f1: float
    train_s: float
    test_s: float


def run_classifier_comparison(
    data: ExperimentData,
    *,
    factories: Mapping[str, Callable[[], object]] | None = None,
) -> list[ClassifierRow]:
    """Fit and time every classifier on the shared split."""
    data.prepare()
    rows: list[ClassifierRow] = []
    for name, make in (factories or CLASSIFIER_FACTORIES).items():
        clf = make()
        t0 = time.perf_counter()
        clf.fit(data.X_train, data.y_train)
        t1 = time.perf_counter()
        pred = clf.predict(data.X_test)
        t2 = time.perf_counter()
        rows.append(
            ClassifierRow(
                name=name,
                weighted_f1=weighted_f1_score(data.y_test, pred),
                train_s=t1 - t0,
                test_s=t2 - t1,
            )
        )
    return rows


def fig3_layout(rows: list[ClassifierRow]) -> tuple[list[str], list[list]]:
    """Figure 3 as ``(headers, rows)``: measured weighted F1 beside the paper's."""
    return (
        ["Classifier", "wF1 measured", "wF1 paper", "train s", "test s"],
        [[r.name, r.weighted_f1, PAPER_FIG3_F1[r.name], r.train_s, r.test_s]
         for r in rows],
    )


def linear_svc_confusion(
    data: ExperimentData, *, solver: str = "primal"
) -> tuple[np.ndarray, list[str]]:
    """Figure 2: (confusion matrix, label order) for Linear SVC.

    Uses the primal solver by default — the matrix is identical in
    expectation and the experiment is about *what confuses*, not solver
    cost.
    """
    data.prepare()
    labels = sorted(np.unique(np.concatenate([data.y_train, data.y_test])).tolist())
    clf = LinearSVC(solver=solver)
    clf.fit(data.X_train, data.y_train)
    pred = clf.predict(data.X_test)
    return confusion_matrix(data.y_test, pred, labels), labels
