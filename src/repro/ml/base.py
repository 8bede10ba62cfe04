"""Estimator protocol and shared array plumbing.

Sparse features travel as :class:`CsrRows` — three numpy arrays, no
scipy.  Naive Bayes fits and scores them as they are (:func:`check_rows`);
every other estimator validates with :func:`check_X`, whose
:func:`as_float_matrix` is the one place a :class:`CsrRows` becomes a
``scipy.sparse.csr_matrix`` and so the one place this module imports
scipy.
"""

from __future__ import annotations

import sys
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Classifier", "CsrRows", "check_Xy", "check_X", "check_rows", "check_rows_y",
    "as_float_matrix", "as_rows", "issparse", "safe_dot",
]


@runtime_checkable
class Classifier(Protocol):
    """The fit/predict contract all classifiers implement.

    ``classes_`` (set during ``fit``) holds the label values in the
    order used by ``predict_proba``/``decision_function`` columns.
    """

    classes_: np.ndarray

    def fit(self, X, y) -> "Classifier":
        """Fit on features ``X`` and labels ``y``; returns self."""
        ...

    def predict(self, X) -> np.ndarray:
        """Predicted label per row of ``X``."""
        ...


class CsrRows:
    """A batch of sparse rows in CSR layout: the vectorizers' output.

    Row ``i`` holds ``data[indptr[i]:indptr[i+1]]`` at columns
    ``indices[indptr[i]:indptr[i+1]]``; ``shape`` is ``(rows, columns)``.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape: tuple[int, int]) -> None:
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        """Stored entries."""
        return len(self.data)

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """The dense ``shape`` array (repeated columns add up)."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.row_ids(), self.indices), self.data)
        return out

    def to_scipy(self):
        """The same rows as a ``scipy.sparse.csr_matrix`` sharing the arrays."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def __repr__(self) -> str:
        return f"CsrRows(shape={self.shape}, nnz={self.nnz})"


def issparse(X) -> bool:
    """``scipy.sparse.issparse(X)``, read from ``sys.modules``: a process
    that never imported scipy holds no scipy matrix."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(X)


def _dense(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    return X


def as_float_matrix(X):
    """Coerce ``X`` to CSR float64 (sparse) or 2-D float64 ndarray.

    The one conversion of a :class:`CsrRows` to scipy.
    """
    if isinstance(X, CsrRows):
        X = X.to_scipy()
    if issparse(X):
        X = X.tocsr()
        if X.dtype != np.float64:
            X = X.astype(np.float64)
        return X
    return _dense(X)


def as_rows(X):
    """Coerce ``X`` to float64 :class:`CsrRows` (any sparse input, scipy's
    by its arrays) or a 2-D float64 ndarray, without importing scipy."""
    if issparse(X):
        X = X.tocsr()
        X = CsrRows(X.data, X.indices, X.indptr, X.shape)
    if isinstance(X, CsrRows):
        if X.data.dtype != np.float64:
            X = CsrRows(X.data.astype(np.float64), X.indices, X.indptr, X.shape)
        return X
    return _dense(X)


def _check_width(X, n_features: int | None):
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, estimator was fitted with {n_features}"
        )
    return X


def _check_pair(X, y):
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise ValueError(f"y contains a single class: {classes!r}")
    return X, y, classes


def check_X(X, n_features: int | None = None):
    """Validate a feature matrix, optionally against a feature count."""
    return _check_width(as_float_matrix(X), n_features)


def check_rows(X, n_features: int | None = None):
    """:func:`check_X` for estimators that run on :class:`CsrRows`."""
    return _check_width(as_rows(X), n_features)


def check_Xy(X, y):
    """Validate an (X, y) training pair; returns (X, y, classes).

    ``y`` may hold any hashable labels; ``classes`` is their sorted
    unique array.

    Raises
    ------
    ValueError
        On length mismatch, empty data, or single-class ``y``
        (classification needs at least two classes).
    """
    return _check_pair(as_float_matrix(X), y)


def check_rows_y(X, y):
    """:func:`check_Xy` for estimators that run on :class:`CsrRows`."""
    return _check_pair(as_rows(X), y)


def safe_dot(X, W: np.ndarray) -> np.ndarray:
    """``X @ W`` that works for both sparse and dense ``X``, dense out."""
    out = X @ W
    if issparse(out):  # pragma: no cover - scipy never returns sparse here
        out = out.toarray()
    return np.asarray(out)
