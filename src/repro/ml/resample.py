"""Resampling for imbalanced data.

§4.4.2 discusses the dataset's imbalance; the related work (Studiawan &
Sohel) recommends ADASYN / random oversampling and undersampling.
These utilities implement those rebalancers for the ablation benches.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ml.base import CsrRows, as_float_matrix

__all__ = ["random_oversample", "random_undersample", "adasyn_like_oversample"]


def _rows_of(X):
    """``X`` in a form that takes row indexing: vectorizer rows as scipy."""
    return as_float_matrix(X) if isinstance(X, CsrRows) else X


def _vstack(blocks):
    if sp.issparse(blocks[0]):
        return sp.vstack(blocks, format="csr")
    return np.vstack(blocks)


def random_oversample(X, y, *, seed: int = 0):
    """Duplicate minority-class rows until all classes match the majority.

    Returns (X_res, y_res) shuffled.
    """
    X, y = _rows_of(X), np.asarray(y)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    target = counts.max()
    xb, yb = [], []
    for c in classes:
        rows = np.flatnonzero(y == c)
        extra = rng.choice(rows, size=target - rows.size, replace=True) if rows.size < target else np.empty(0, dtype=np.int64)
        take = np.concatenate([rows, extra])
        xb.append(X[take])
        yb.append(y[take])
    Xr, yr = _vstack(xb), np.concatenate(yb)
    order = rng.permutation(len(yr))
    return Xr[order], yr[order]


def random_undersample(X, y, *, seed: int = 0):
    """Drop majority-class rows until all classes match the minority."""
    X, y = _rows_of(X), np.asarray(y)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    target = counts.min()
    keep = []
    for c in classes:
        rows = np.flatnonzero(y == c)
        rng.shuffle(rows)
        keep.append(rows[:target])
    keep_all = np.concatenate(keep)
    rng.shuffle(keep_all)
    return X[keep_all], y[keep_all]


def adasyn_like_oversample(X, y, *, k: int = 5, seed: int = 0):
    """ADASYN-style synthetic minority oversampling.

    For each minority class, synthesizes rows as convex combinations of
    a member and one of its k nearest same-class neighbours, with more
    synthesis where same-class density is lower (the ADASYN density
    criterion, simplified to same-class neighbour distance rank).
    Works on dense or sparse ``X`` (sparse rows are combined sparsely).
    """
    X, y = _rows_of(X), np.asarray(y)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(y, return_counts=True)
    target = counts.max()
    xb, yb = [X], [y]
    for c, cnt in zip(classes, counts):
        need = int(target - cnt)
        if need <= 0:
            continue
        rows = np.flatnonzero(y == c)
        Xc = X[rows]
        if rows.size < 2:
            # cannot interpolate a single point; fall back to duplication
            take = rng.choice(rows, size=need, replace=True)
            xb.append(X[take])
            yb.append(np.full(need, c, dtype=y.dtype))
            continue
        sims = np.asarray((Xc @ Xc.T).todense()) if sp.issparse(Xc) else Xc @ Xc.T
        np.fill_diagonal(sims, -np.inf)
        kk = min(k, rows.size - 1)
        nn = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        # density weight: members whose neighbours are farther (lower
        # similarity) get more synthetic offspring
        mean_sim = np.take_along_axis(sims, nn, axis=1).mean(axis=1)
        w = 1.0 - (mean_sim - mean_sim.min()) / (np.ptp(mean_sim) + 1e-12)
        w = w / w.sum() if w.sum() > 0 else np.full(rows.size, 1.0 / rows.size)
        src = rng.choice(rows.size, size=need, p=w)
        mate = nn[src, rng.integers(0, kk, size=need)]
        lam = rng.uniform(0.0, 1.0, size=need)
        if sp.issparse(X):
            A = Xc[src].multiply(lam[:, np.newaxis])
            B = Xc[mate].multiply((1.0 - lam)[:, np.newaxis])
            synth = (A + B).tocsr()
        else:
            synth = lam[:, np.newaxis] * Xc[src] + (1 - lam)[:, np.newaxis] * Xc[mate]
        xb.append(synth)
        yb.append(np.full(need, c, dtype=y.dtype))
    Xr, yr = _vstack(xb), np.concatenate(yb)
    order = rng.permutation(len(yr))
    return Xr[order], yr[order]
