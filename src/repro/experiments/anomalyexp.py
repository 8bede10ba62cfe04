"""EXP-ANOM: the related-work baselines comparison (§2).

Reproduces the two findings the paper cites from its related work:

1. *Supervised models outperform isolation forest and PCA, and PCA is
   the better of the two unsupervised detectors* (Studiawan & Sohel
   [20]; Zope et al. [24]) — measured as message-level ROC-AUC on the
   task "is this message a real issue (vs Unimportant noise)?".
   Unsupervised detectors train on noise only; the supervised model
   sees labels.

2. *DeepLog outperforms isolation forest and PCA* (Du et al. [7]) —
   measured at the session level on workflow sessions with structural
   anomalies (injected errors, crashes, shuffles), where the sequence
   model's order-awareness is the differentiator.  The point detectors
   score a session by its max message score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.taxonomy import Category
from repro.datagen.generator import CorpusGenerator
from repro.datagen.sessions import SessionGenerator
from repro.ml.anomaly import DeepLogDetector, IsolationForest, PCAAnomalyDetector
from repro.ml.base import as_float_matrix
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import roc_auc_score
from repro.textproc.tfidf import TfidfVectorizer

__all__ = ["AnomalyRow", "run_message_level", "run_session_level"]


@dataclass(frozen=True)
class AnomalyRow:
    """One detector's score on one task."""

    detector: str
    task: str
    auc: float
    supervised: bool


def run_message_level(
    *, scale: float = 0.01, seed: int = 0, max_features: int = 800
) -> list[AnomalyRow]:
    """Message-level: real issue vs noise, ROC-AUC."""
    corpus = CorpusGenerator(scale=scale, seed=seed).generate()
    is_issue = np.asarray([lab is not Category.UNIMPORTANT for lab in corpus.labels])
    texts = corpus.texts
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(texts))
    split = int(0.7 * len(texts))
    tr, te = order[:split], order[split:]

    vec = TfidfVectorizer(max_features=max_features)
    X_tr = as_float_matrix(vec.fit_transform([texts[i] for i in tr]))
    X_te = as_float_matrix(vec.transform([texts[i] for i in te]))
    y_tr, y_te = is_issue[tr], is_issue[te]

    rows: list[AnomalyRow] = []

    # supervised reference
    clf = LogisticRegression(max_iter=150)
    clf.fit(X_tr, np.where(y_tr, "issue", "noise"))
    pos = clf.classes_.tolist().index("issue")
    rows.append(AnomalyRow(
        "Logistic Regression (supervised)", "message",
        roc_auc_score(y_te, clf.predict_proba(X_te)[:, pos]), True,
    ))

    # unsupervised detectors train on the noise portion only
    noise_rows = tr[~y_tr]
    X_noise = X_tr[_as_index(noise_rows, tr)]
    pca = PCAAnomalyDetector(n_components=16, quantile=0.99).fit(X_noise)
    rows.append(AnomalyRow(
        "PCA (unsupervised)", "message", roc_auc_score(y_te, pca.score(X_te)), False,
    ))
    iso = IsolationForest(n_estimators=50, seed=seed).fit(X_noise)
    rows.append(AnomalyRow(
        "Isolation Forest (unsupervised)", "message",
        roc_auc_score(y_te, iso.score(X_te)), False,
    ))
    return rows


def _as_index(selected: np.ndarray, universe: np.ndarray) -> np.ndarray:
    """Positions of ``selected`` ids inside the ``universe`` id array."""
    pos_of = {v: i for i, v in enumerate(universe.tolist())}
    return np.asarray([pos_of[v] for v in selected.tolist()])


def run_session_level(
    *,
    seed: int = 0,
    n_train: int = 300,
    n_test_normal: int = 120,
    n_test_anomalous: int = 90,
    max_features: int = 400,
) -> list[AnomalyRow]:
    """Session-level: DeepLog vs point detectors on workflow sessions."""
    train_gen = SessionGenerator(seed=seed)
    train_sessions = [train_gen.normal().messages for _ in range(n_train)]
    test = SessionGenerator(seed=seed + 1).generate(n_test_normal, n_test_anomalous)
    truth = np.asarray([s.is_anomalous for s in test])

    rows: list[AnomalyRow] = []

    dl = DeepLogDetector(order=2, top_g=3).fit(train_sessions)
    rows.append(AnomalyRow(
        "DeepLog (semi-supervised)", "session",
        roc_auc_score(truth, np.asarray([dl.anomaly_rate(s.messages) for s in test])),
        False,
    ))

    # point detectors see the same training messages, no order
    flat = [m for s in train_sessions for m in s]
    vec = TfidfVectorizer(max_features=max_features)
    X_flat = vec.fit_transform(flat)

    pca = PCAAnomalyDetector(n_components=8, quantile=0.99).fit(X_flat)
    iso = IsolationForest(n_estimators=50, seed=seed).fit(X_flat)
    for name, det in (("PCA (unsupervised)", pca),
                      ("Isolation Forest (unsupervised)", iso)):
        scores = np.asarray([
            float(det.score(vec.transform(list(s.messages))).max()) for s in test
        ])
        rows.append(AnomalyRow(name, "session", roc_auc_score(truth, scores), False))
    return rows
