"""Specific tests for the naive Bayes variants."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.ml import bayes
from repro.ml.base import CsrRows
from repro.ml.bayes import ComplementNB, MultinomialNB


def count_data():
    """Tiny count matrix: class 'x' uses feature 0, class 'y' feature 1."""
    X = np.asarray([
        [5, 0, 1],
        [4, 1, 0],
        [0, 6, 1],
        [1, 5, 0],
    ], dtype=float)
    y = np.asarray(["x", "x", "y", "y"])
    return X, y


class TestComplementNB:
    def test_learns_count_signal(self):
        X, y = count_data()
        clf = ComplementNB().fit(X, y)
        assert clf.predict(np.asarray([[3.0, 0.0, 0.0]]))[0] == "x"
        assert clf.predict(np.asarray([[0.0, 3.0, 0.0]]))[0] == "y"

    def test_negative_features_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ComplementNB().fit(np.asarray([[-1.0, 1.0]] * 4), np.asarray(["a", "b"] * 2))

    def test_negative_sparse_rejected(self):
        X = sp.csr_matrix(np.asarray([[-1.0, 1.0]] * 4))
        with pytest.raises(ValueError, match="non-negative"):
            ComplementNB().fit(X, np.asarray(["a", "b"] * 2))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ComplementNB(alpha=0.0).fit(*count_data())

    def test_norm_option_changes_weights(self):
        X, y = count_data()
        plain = ComplementNB(norm=False).fit(X, y)
        normed = ComplementNB(norm=True).fit(X, y)
        assert not np.allclose(plain.feature_log_prob_, normed.feature_log_prob_)
        # L1 norms of normalized weights are 1
        assert np.allclose(np.abs(normed.feature_log_prob_).sum(axis=1), 1.0)

    def test_imbalance_robustness_vs_multinomial(self):
        """CNB's reason to exist: better minority-class recall on
        imbalanced counts (Rennie et al. 2003)."""
        rng = np.random.default_rng(0)
        n_major, n_minor = 300, 12
        # both classes share feature 2; class signal in features 0/1
        X_major = rng.poisson([4.0, 0.3, 2.0], size=(n_major, 3))
        X_minor = rng.poisson([0.3, 4.0, 2.0], size=(n_minor, 3))
        X = np.vstack([X_major, X_minor]).astype(float)
        y = np.asarray(["maj"] * n_major + ["min"] * n_minor)
        X_test = rng.poisson([0.3, 4.0, 2.0], size=(50, 3)).astype(float)
        cnb_recall = (ComplementNB().fit(X, y).predict(X_test) == "min").mean()
        mnb_recall = (MultinomialNB().fit(X, y).predict(X_test) == "min").mean()
        assert cnb_recall >= mnb_recall


class TestMultinomialNB:
    def test_predict_proba_valid(self):
        X, y = count_data()
        p = MultinomialNB().fit(X, y).predict_proba(X)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_priors_reflect_class_frequencies(self):
        X = np.abs(np.random.default_rng(0).normal(1, 0.1, (10, 2)))
        y = np.asarray(["a"] * 8 + ["b"] * 2)
        clf = MultinomialNB().fit(X, y)
        assert clf.class_log_prior_[0] > clf.class_log_prior_[1]

    def test_smoothing_handles_unseen_features(self):
        X, y = count_data()
        clf = MultinomialNB().fit(X, y)
        # a document using only the never-seen-by-'y' feature still scores finitely
        z = clf.decision_function(np.asarray([[0.0, 0.0, 5.0]]))
        assert np.isfinite(z).all()


# -- the numpy kernels against scipy ---------------------------------------
#
# Naive Bayes fits and scores ``CsrRows`` with ``np.bincount``.  The
# kernels it replaced ran the same rows through scipy; they are kept here,
# unchanged, as the oracle every result must equal bit for bit.


def _scipy_class_feature_counts(X, yi, k):
    """The replaced fit kernel: per-class ``sum(axis=0)`` of a scipy matrix."""
    S = X.to_scipy()
    out = np.zeros((k, S.shape[1]))
    for j in range(k):
        out[j] = np.asarray(S[np.flatnonzero(yi == j)].sum(axis=0)).ravel()
    return out


def _scipy_scores(X, W):
    """The replaced scoring kernel: one scipy sparse-times-dense product."""
    return np.asarray(X.to_scipy() @ W.T)


def _through_scipy():
    return mock.patch.multiple(
        bayes, _class_feature_counts=_scipy_class_feature_counts, _scores=_scipy_scores,
    )


_values = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1e6, allow_nan=False),
    st.integers(0, 40).map(float),
)


@st.composite
def _rows(draw, n_rows, n_features):
    """Random CSR rows: empty rows, unsorted columns, zeros stored."""
    data, indices, indptr = [], [], [0]
    for _ in range(n_rows):
        columns = draw(st.lists(st.integers(0, n_features - 1), unique=True, max_size=n_features))
        indices += columns
        data += [draw(_values) for _ in columns]
        indptr.append(len(indices))
    return CsrRows(
        np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int32),
        np.asarray(indptr, dtype=np.int32), (n_rows, n_features),
    )


@st.composite
def _problem(draw):
    d = draw(st.integers(1, 9))
    n = draw(st.integers(2, 14))
    k = draw(st.integers(2, 4))
    y = draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1)
    )
    labels = np.asarray([f"c{v}" for v in y])
    return draw(_rows(n, d)), labels, draw(_rows(draw(st.integers(0, 9)), d))


class TestKernelsEqualScipy:
    @settings(max_examples=150, deadline=None)
    @given(problem=_problem(), make=st.sampled_from([
        ComplementNB, lambda: ComplementNB(norm=True), lambda: ComplementNB(alpha=0.01),
        MultinomialNB,
    ]))
    def test_fit_and_scores_are_bit_identical(self, problem, make):
        X, y, X_new = problem
        got = make().fit(X, y)
        with _through_scipy():
            want = make().fit(X, y)
            want_scores = [want.decision_function(Z) for Z in (X, X_new)]
            want_pred = want.predict(X_new)
            want_proba = want.predict_proba(X_new) if isinstance(want, MultinomialNB) else None
        # one column and ``norm=True`` weigh 0/0: NaN on both paths
        assert np.array_equal(got.feature_log_prob_, want.feature_log_prob_, equal_nan=True)
        assert np.array_equal(got.class_log_prior_, want.class_log_prior_)
        for Z, scores in zip((X, X_new), want_scores):
            assert np.array_equal(got.decision_function(Z), scores, equal_nan=True)
        assert got.decision_function(X_new).shape == (X_new.shape[0], len(got.classes_))
        assert np.array_equal(got.predict(X_new), want_pred)
        if want_proba is not None:
            assert np.array_equal(got.predict_proba(X_new), want_proba, equal_nan=True)

    @pytest.mark.parametrize("make", [ComplementNB, MultinomialNB])
    def test_the_corpus_is_bit_identical(self, split, make):
        X_tr, X_te, y_tr, _y_te, _vec = split
        got = make().fit(X_tr, y_tr)
        with _through_scipy():
            want = make().fit(X_tr, y_tr)
            want_scores = want.decision_function(X_te)
        assert np.array_equal(got.feature_log_prob_, want.feature_log_prob_)
        assert np.array_equal(got.decision_function(X_te), want_scores)

    def test_a_scipy_matrix_runs_the_same_kernel(self, split):
        X_tr, X_te, y_tr, _y_te, _vec = split
        rows = ComplementNB().fit(X_tr, y_tr)
        matrix = ComplementNB().fit(X_tr.to_scipy(), y_tr)
        assert np.array_equal(rows.feature_log_prob_, matrix.feature_log_prob_)
        assert np.array_equal(
            rows.decision_function(X_te), matrix.decision_function(X_te.to_scipy())
        )

    def test_dense_input_keeps_the_matrix_product(self):
        X, y = count_data()
        clf = ComplementNB().fit(X, y)
        assert np.array_equal(clf.decision_function(X), X @ clf.feature_log_prob_.T)
