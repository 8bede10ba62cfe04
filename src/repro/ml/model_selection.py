"""Train/test splitting and cross-validation with stratification.

The heavy class imbalance (Slurm: 46 messages vs Unimportant: 106552,
Table 2) makes plain random splits unreliable — a rare class can vanish
from the test set.  All splitters here stratify by label.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ml.base import CsrRows, as_float_matrix

__all__ = ["train_test_split", "stratified_kfold"]


def _index_rows(X, idx: np.ndarray):
    if isinstance(X, CsrRows):
        X = as_float_matrix(X)
    if sp.issparse(X):
        return X[idx]
    return np.asarray(X)[idx] if isinstance(X, np.ndarray) else [X[i] for i in idx]


def train_test_split(
    X,
    y,
    *,
    test_size: float = 0.25,
    seed: int = 0,
    stratify: bool = True,
):
    """Stratified train/test split.

    Parameters
    ----------
    X:
        Feature matrix (sparse/dense) or list of raw messages.
    y:
        Labels, parallel to ``X`` rows.
    test_size:
        Fraction of rows held out (0 < test_size < 1).
    stratify:
        Preserve class proportions (every class with ≥2 members keeps
        at least one sample on each side).

    Returns
    -------
    (X_train, X_test, y_train, y_test)
    """
    if not 0.0 < test_size < 1.0:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    y_arr = np.asarray(y)
    n = y_arr.shape[0]
    rows = X.shape[0] if hasattr(X, "shape") else len(X)
    if rows != n:
        raise ValueError(f"X has {rows} rows but y has {n}")
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    if stratify:
        for cls in np.unique(y_arr):
            members = np.flatnonzero(y_arr == cls)
            rng.shuffle(members)
            k = int(round(len(members) * test_size))
            if len(members) >= 2:
                k = min(max(k, 1), len(members) - 1)
            test_idx.extend(members[:k].tolist())
    else:
        perm = rng.permutation(n)
        test_idx = perm[: max(1, int(round(n * test_size)))].tolist()
    test_mask = np.zeros(n, dtype=bool)
    test_mask[test_idx] = True
    tr = np.flatnonzero(~test_mask)
    te = np.flatnonzero(test_mask)
    rng.shuffle(tr)
    rng.shuffle(te)
    return (
        _index_rows(X, tr),
        _index_rows(X, te),
        y_arr[tr],
        y_arr[te],
    )


def stratified_kfold(y, *, n_splits: int = 5, seed: int = 0):
    """Yield ``(train_idx, test_idx)`` pairs for stratified k-fold CV.

    Each class's members are dealt round-robin across folds after a
    seeded shuffle, so folds have near-identical class mixes.

    Raises
    ------
    ValueError
        If ``n_splits`` < 2 or exceeds the size of the smallest class
        represented more than once.
    """
    if n_splits < 2:
        raise ValueError(f"n_splits must be >= 2, got {n_splits}")
    y_arr = np.asarray(y)
    n = y_arr.shape[0]
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    for cls in np.unique(y_arr):
        members = np.flatnonzero(y_arr == cls)
        rng.shuffle(members)
        fold_of[members] = np.arange(len(members)) % n_splits
    for k in range(n_splits):
        test = np.flatnonzero(fold_of == k)
        train = np.flatnonzero(fold_of != k)
        if len(test) == 0:
            raise ValueError(
                f"fold {k} is empty: n_splits={n_splits} too large for {n} samples"
            )
        yield train, test
