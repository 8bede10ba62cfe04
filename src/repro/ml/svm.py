"""Linear support vector classification.

Two solvers, matching liblinear's options:

- ``solver="primal"`` (default): one-vs-rest L2-regularized
  *squared-hinge* SVM minimized with L-BFGS — fully vectorized over
  sparse matrices.
- ``solver="dual"``: liblinear-style dual coordinate descent on the
  L1-loss SVM, iterating samples one at a time.  Faithful to the
  classic algorithm but orders of magnitude slower in pure Python —
  the paper's Figure 3 shows Linear SVC as by far the slowest trainer
  (211.78 s), and the dual solver is the honest way to reproduce that
  cost profile; the primal solver is what you would deploy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.ml.base import check_X, check_Xy, safe_dot
from repro.ml.preprocessing import LabelEncoder

__all__ = ["LinearSVC"]


@dataclass
class LinearSVC:
    """One-vs-rest linear SVM.

    Parameters
    ----------
    C:
        Penalty on margin violations.
    solver:
        ``"primal"`` (squared hinge, L-BFGS) or ``"dual"`` (L1 hinge,
        coordinate descent).
    max_iter:
        L-BFGS iterations (primal) or epochs over the data (dual).
    tol:
        Convergence tolerance.
    seed:
        Sample-order shuffling seed (dual solver only).
    """

    C: float = 1.0
    solver: str = "primal"
    max_iter: int = 1000
    tol: float = 1e-5
    seed: int = 0

    classes_: np.ndarray = field(default=None, init=False, repr=False)
    coef_: np.ndarray = field(default=None, init=False, repr=False)
    intercept_: np.ndarray = field(default=None, init=False, repr=False)

    def fit(self, X, y) -> "LinearSVC":
        """Fit one binary SVM per class."""
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.solver not in ("primal", "dual"):
            raise ValueError(f"unknown solver {self.solver!r}")
        X, y, _ = check_Xy(X, y)
        enc = LabelEncoder()
        yi = enc.fit_transform(y)
        self.classes_ = enc.classes_
        n, d = X.shape
        k = len(self.classes_)
        self.coef_ = np.zeros((d, k))
        self.intercept_ = np.zeros(k)
        for j in range(k):
            t = np.where(yi == j, 1.0, -1.0)
            if self.solver == "primal":
                w, b = self._fit_primal(X, t)
            else:
                w, b = self._fit_dual(X, t)
            self.coef_[:, j] = w
            self.intercept_[j] = b
        return self

    # -- primal squared-hinge ------------------------------------------

    def _fit_primal(self, X, t: np.ndarray) -> tuple[np.ndarray, float]:
        n, d = X.shape

        def objective(wb: np.ndarray):
            w, b = wb[:d], wb[d]
            z = np.asarray(X @ w).ravel() + b
            margin = 1.0 - t * z
            viol = np.maximum(margin, 0.0)
            obj = 0.5 * float(w @ w) + self.C * float(viol @ viol)
            gz = -2.0 * self.C * t * viol
            gw = np.asarray(X.T @ gz).ravel() + w
            return obj, np.concatenate([gw, [gz.sum()]])

        # imported here, not with the module: ``scipy.optimize`` weighs ~27 MiB
        from scipy.optimize import minimize

        res = minimize(
            objective,
            np.zeros(d + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        return res.x[:d], float(res.x[d])

    # -- dual coordinate descent (liblinear algorithm 1) ----------------

    def _fit_dual(self, X, t: np.ndarray) -> tuple[np.ndarray, float]:
        # Solve min_a 1/2 a^T Q a - e^T a  s.t. 0 <= a_i <= C, with
        # Q_ij = t_i t_j x_i . x_j, maintaining w = sum a_i t_i x_i.
        # Bias handled by augmenting each row with a constant feature.
        n, d = X.shape
        Xcsr = X.tocsr() if sp.issparse(X) else sp.csr_matrix(X)
        sq = np.asarray(Xcsr.multiply(Xcsr).sum(axis=1)).ravel() + 1.0  # +bias
        alpha = np.zeros(n)
        w = np.zeros(d)
        b = 0.0
        rng = np.random.default_rng(self.seed)
        indptr, indices, data = Xcsr.indptr, Xcsr.indices, Xcsr.data
        for _epoch in range(self.max_iter):
            max_viol = 0.0
            for i in rng.permutation(n):
                lo, hi = indptr[i], indptr[i + 1]
                cols = indices[lo:hi]
                vals = data[lo:hi]
                g = t[i] * (vals @ w[cols] + b) - 1.0
                a = alpha[i]
                pg = g
                if a <= 0.0:
                    pg = min(g, 0.0)
                elif a >= self.C:
                    pg = max(g, 0.0)
                if pg != 0.0:
                    max_viol = max(max_viol, abs(pg))
                    a_new = min(max(a - g / sq[i], 0.0), self.C)
                    delta = (a_new - a) * t[i]
                    w[cols] += delta * vals
                    b += delta
                    alpha[i] = a_new
            if max_viol < self.tol:
                break
        return w, b

    def decision_function(self, X) -> np.ndarray:
        """Signed margins per class, shape (n, k)."""
        if self.coef_ is None:
            raise RuntimeError("LinearSVC used before fit")
        X = check_X(X, self.coef_.shape[0])
        return safe_dot(X, self.coef_) + self.intercept_

    def predict(self, X) -> np.ndarray:
        """Class with the largest margin."""
        return self.classes_[self.decision_function(X).argmax(axis=1)]
