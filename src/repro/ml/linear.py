"""Linear classifiers: multinomial logistic regression and ridge.

Both operate directly on sparse TF-IDF matrices.

- :class:`LogisticRegression` fits a softmax model with L2 penalty by
  L-BFGS (scipy), the same optimizer family scikit-learn defaults to —
  so its accuracy and its position in the training-time ranking match
  the paper's Figure 3.
- :class:`RidgeClassifier` fits one damped least-squares problem per
  class against ±1 targets via LSQR, which is efficient for sparse,
  tall systems and reproduces sklearn's ``RidgeClassifier(solver=
  'lsqr')`` behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import check_X, check_Xy, safe_dot
from repro.ml.preprocessing import LabelEncoder

__all__ = ["LogisticRegression", "RidgeClassifier"]


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    zs = z - zmax
    return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))


@dataclass
class LogisticRegression:
    """Multinomial (softmax) logistic regression with L2 penalty.

    Parameters
    ----------
    C:
        Inverse regularization strength (sklearn convention: the data
        term is scaled by ``C``; larger C = weaker penalty).
    max_iter:
        L-BFGS iteration cap.
    tol:
        L-BFGS gradient tolerance.
    fit_intercept:
        Learn a per-class bias term.
    """

    C: float = 1.0
    max_iter: int = 200
    tol: float = 1e-6
    fit_intercept: bool = True

    classes_: np.ndarray = field(default=None, init=False, repr=False)
    coef_: np.ndarray = field(default=None, init=False, repr=False)
    intercept_: np.ndarray = field(default=None, init=False, repr=False)
    n_iter_: int = field(default=0, init=False, repr=False)

    def fit(self, X, y) -> "LogisticRegression":
        """Fit by minimizing L2-regularized multinomial NLL with L-BFGS."""
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        X, y, _ = check_Xy(X, y)
        enc = LabelEncoder()
        yi = enc.fit_transform(y)
        self.classes_ = enc.classes_
        n, d = X.shape
        k = len(self.classes_)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), yi] = 1.0

        dim = d + (1 if self.fit_intercept else 0)

        def objective(wflat: np.ndarray):
            W = wflat.reshape(dim, k)
            coefs, bias = (W[:d], W[d]) if self.fit_intercept else (W, 0.0)
            z = safe_dot(X, coefs) + bias
            logp = _log_softmax(z)
            nll = -self.C * float((onehot * logp).sum())
            reg = 0.5 * float((coefs * coefs).sum())
            p = np.exp(logp)
            gz = self.C * (p - onehot)  # (n, k)
            gcoef = (X.T @ gz) + coefs
            gcoef = np.asarray(gcoef)
            if self.fit_intercept:
                grad = np.vstack([gcoef, gz.sum(axis=0)[np.newaxis, :]])
            else:
                grad = gcoef
            return nll + reg, grad.ravel()

        # imported here, not with the module: ``scipy.optimize`` weighs ~27 MiB
        from scipy.optimize import minimize

        w0 = np.zeros(dim * k)
        res = minimize(
            objective,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        W = res.x.reshape(dim, k)
        if self.fit_intercept:
            self.coef_, self.intercept_ = W[:d], W[d]
        else:
            self.coef_, self.intercept_ = W, np.zeros(k)
        self.n_iter_ = int(res.nit)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Class scores (pre-softmax logits), shape (n, k)."""
        if self.coef_ is None:
            raise RuntimeError("LogisticRegression used before fit")
        X = check_X(X, self.coef_.shape[0])
        return safe_dot(X, self.coef_) + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Softmax class probabilities, rows summing to 1."""
        return np.exp(_log_softmax(self.decision_function(X)))

    def predict(self, X) -> np.ndarray:
        """Most probable class per row."""
        return self.classes_[self.decision_function(X).argmax(axis=1)]


@dataclass
class RidgeClassifier:
    """One-vs-rest ridge regression classifier (±1 targets, LSQR).

    Parameters
    ----------
    alpha:
        L2 damping.
    max_iter:
        LSQR iteration cap per class.
    """

    alpha: float = 1.0
    max_iter: int = 1000

    classes_: np.ndarray = field(default=None, init=False, repr=False)
    coef_: np.ndarray = field(default=None, init=False, repr=False)
    intercept_: np.ndarray = field(default=None, init=False, repr=False)

    def fit(self, X, y) -> "RidgeClassifier":
        """Solve one damped least-squares problem per class."""
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        X, y, _ = check_Xy(X, y)
        enc = LabelEncoder()
        yi = enc.fit_transform(y)
        self.classes_ = enc.classes_
        n, d = X.shape
        k = len(self.classes_)
        from scipy.sparse.linalg import lsqr  # loads scipy.linalg: only fit needs it

        # Center targets per class via an intercept computed from class
        # priors; LSQR solves the damped system for the coefficients.
        self.coef_ = np.zeros((d, k))
        self.intercept_ = np.zeros(k)
        damp = float(np.sqrt(self.alpha))
        for j in range(k):
            t = np.where(yi == j, 1.0, -1.0)
            t_mean = t.mean()
            sol = lsqr(
                X, t - t_mean, damp=damp, iter_lim=self.max_iter
            )
            self.coef_[:, j] = sol[0]
            self.intercept_[j] = t_mean
        return self

    def decision_function(self, X) -> np.ndarray:
        """Per-class regression scores, shape (n, k)."""
        if self.coef_ is None:
            raise RuntimeError("RidgeClassifier used before fit")
        X = check_X(X, self.coef_.shape[0])
        return safe_dot(X, self.coef_) + self.intercept_

    def predict(self, X) -> np.ndarray:
        """Class with the highest regression score."""
        return self.classes_[self.decision_function(X).argmax(axis=1)]
