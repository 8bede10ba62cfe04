"""CART decision trees and random forests.

Random Forest is the paper's most accurate classifier (weighted F1
0.9995, Figure 3).  This is an exact-split CART implementation:

- Gini impurity, best split among ``max_features`` randomly sampled
  candidate features per node (the forest's decorrelation mechanism),
- thresholds evaluated by a vectorized cumulative class-count scan of
  the sorted column — O(n log n) per (node, feature),
- bootstrap resampling per tree, majority (soft) voting across trees.

TF-IDF matrices are densified to float32 internally: tree node
evaluation needs random row access to columns, which CSR cannot serve
efficiently, and syslog vocabularies after masking are small (hundreds
to a few thousand columns), so the dense copy is modest.  Pass
``max_features`` to the vectorizer, not the forest, to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.ml.base import CsrRows, as_float_matrix, check_Xy
from repro.ml.preprocessing import LabelEncoder

__all__ = ["DecisionTreeClassifier", "RandomForestClassifier"]

_LEAF = -1


def _to_dense32(X) -> np.ndarray:
    if isinstance(X, CsrRows):
        X = as_float_matrix(X)
    if sp.issparse(X):
        return np.asarray(X.todense(), dtype=np.float32)
    return np.asarray(X, dtype=np.float32)


@dataclass
class _Tree:
    """Flat-array tree representation for vectorized prediction."""

    feature: np.ndarray  # (n_nodes,) int32, _LEAF for leaves
    threshold: np.ndarray  # (n_nodes,) float32
    left: np.ndarray  # (n_nodes,) int32 child ids
    right: np.ndarray
    value: np.ndarray  # (n_nodes, n_classes) class histograms (normalized)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int32)
        active = np.arange(n)
        while active.size:
            f = self.feature[node[active]]
            inner = f != _LEAF
            active = active[inner]
            if not active.size:
                break
            f = f[inner]
            go_left = X[active, f] <= self.threshold[node[active]]
            node[active] = np.where(
                go_left, self.left[node[active]], self.right[node[active]]
            )
        return self.value[node]


def _build_tree(
    X: np.ndarray,
    yi: np.ndarray,
    n_classes: int,
    *,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int,
    rng: np.random.Generator,
) -> _Tree:
    n, d = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(None)  # type: ignore[arg-type]
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        counts = np.bincount(yi[idx], minlength=n_classes).astype(np.float64)
        value[node_id] = counts / counts.sum()
        if (
            depth >= max_depth
            or idx.size < min_samples_split
            or counts.max() == counts.sum()  # pure node
        ):
            continue
        split = _best_split(
            X, yi, idx, n_classes, max_features, min_samples_leaf, rng
        )
        if split is None:
            continue
        f, thr, left_mask = split
        li, ri = new_node(), new_node()
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = li
        right[node_id] = ri
        stack.append((li, idx[left_mask], depth + 1))
        stack.append((ri, idx[~left_mask], depth + 1))
    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float32),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def _best_split(
    X: np.ndarray,
    yi: np.ndarray,
    idx: np.ndarray,
    n_classes: int,
    max_features: int,
    min_samples_leaf: int,
    rng: np.random.Generator,
):
    """Best (feature, threshold, left_mask) by Gini gain, or None.

    For each candidate feature the node's rows are sorted by value and
    the weighted Gini of every prefix/suffix partition is computed from
    cumulative class counts in one vectorized pass.
    """
    n = idx.size
    y_node = yi[idx]
    cand = rng.choice(X.shape[1], size=min(max_features, X.shape[1]), replace=False)
    best_gain = 1e-12
    best = None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_node] = 1.0
    total = onehot.sum(axis=0)
    gini_parent = 1.0 - ((total / n) ** 2).sum()
    for f in cand:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        # candidate boundaries: positions where value changes
        change = np.flatnonzero(cs[1:] != cs[:-1]) + 1
        if change.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)  # (n, k)
        nl = change.astype(np.float64)
        nr = n - nl
        ok = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
        if not ok.any():
            continue
        cl = cum[change - 1]  # class counts left of each boundary
        cr = total[np.newaxis, :] - cl
        gini_l = 1.0 - ((cl / nl[:, np.newaxis]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((cr / nr[:, np.newaxis]) ** 2).sum(axis=1)
        gain = gini_parent - (nl * gini_l + nr * gini_r) / n
        gain[~ok] = -np.inf
        bi = int(gain.argmax())
        if gain[bi] > best_gain:
            best_gain = float(gain[bi])
            pos = change[bi]
            thr = (cs[pos - 1] + cs[pos]) / 2.0
            best = (int(f), float(thr), col <= thr)
    return best


@dataclass
class DecisionTreeClassifier:
    """Single CART tree (Gini).

    Parameters
    ----------
    max_depth:
        Depth cap.
    min_samples_split, min_samples_leaf:
        Node-size floors.
    max_features:
        Candidate features per node; ``None`` = all (classic CART),
        ``"sqrt"`` = √d (forest default).
    seed:
        Feature-sampling seed.
    """

    max_depth: int = 30
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | str | None = None
    seed: int = 0

    classes_: np.ndarray = field(default=None, init=False, repr=False)
    _tree: _Tree = field(default=None, init=False, repr=False)
    _n_features: int = field(default=0, init=False, repr=False)

    def _resolve_max_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        mf = int(self.max_features)
        if mf < 1:
            raise ValueError(f"max_features must be >= 1, got {mf}")
        return min(mf, d)

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on (densified) ``X``."""
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        X, y, _ = check_Xy(X, y)
        Xd = _to_dense32(X)
        enc = LabelEncoder()
        yi = enc.fit_transform(y)
        self.classes_ = enc.classes_
        self._n_features = Xd.shape[1]
        self._tree = _build_tree(
            Xd,
            yi,
            len(self.classes_),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(Xd.shape[1]),
            rng=np.random.default_rng(self.seed),
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Leaf class distributions."""
        if self._tree is None:
            raise RuntimeError("DecisionTreeClassifier used before fit")
        Xd = _to_dense32(X)
        if Xd.shape[1] != self._n_features:
            raise ValueError(
                f"X has {Xd.shape[1]} features, tree was fitted with {self._n_features}"
            )
        return self._tree.predict_proba(Xd)

    def predict(self, X) -> np.ndarray:
        """Majority class of the reached leaf."""
        return self.classes_[self.predict_proba(X).argmax(axis=1)]


@dataclass
class RandomForestClassifier:
    """Bootstrap ensemble of decorrelated CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Per-tree growth limits.
    max_features:
        Candidate features per node (default √d).
    bootstrap:
        Sample n rows with replacement per tree.
    seed:
        Master seed; tree t uses ``seed + t``.
    """

    n_estimators: int = 50
    max_depth: int = 30
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | str | None = "sqrt"
    bootstrap: bool = True
    seed: int = 0

    classes_: np.ndarray = field(default=None, init=False, repr=False)
    trees_: list = field(default_factory=list, init=False, repr=False)
    _n_features: int = field(default=0, init=False, repr=False)

    def fit(self, X, y) -> "RandomForestClassifier":
        """Grow ``n_estimators`` bootstrap trees."""
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        X, y, _ = check_Xy(X, y)
        Xd = _to_dense32(X)
        enc = LabelEncoder()
        yi = enc.fit_transform(y)
        self.classes_ = enc.classes_
        self._n_features = Xd.shape[1]
        n = Xd.shape[0]
        self.trees_ = []
        mf = DecisionTreeClassifier(max_features=self.max_features)._resolve_max_features(
            Xd.shape[1]
        )
        for t in range(self.n_estimators):
            rng = np.random.default_rng(self.seed + t)
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            self.trees_.append(
                _build_tree(
                    Xd[rows],
                    yi[rows],
                    len(self.classes_),
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=mf,
                    rng=rng,
                )
            )
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Mean of per-tree leaf distributions (soft voting)."""
        if not self.trees_:
            raise RuntimeError("RandomForestClassifier used before fit")
        Xd = _to_dense32(X)
        if Xd.shape[1] != self._n_features:
            raise ValueError(
                f"X has {Xd.shape[1]} features, forest was fitted with {self._n_features}"
            )
        acc = np.zeros((Xd.shape[0], len(self.classes_)))
        for tree in self.trees_:
            acc += tree.predict_proba(Xd)
        return acc / len(self.trees_)

    def predict(self, X) -> np.ndarray:
        """Soft-vote majority class."""
        return self.classes_[self.predict_proba(X).argmax(axis=1)]
