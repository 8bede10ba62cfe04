"""Unit + property tests for the TF-IDF vectorizer and Table 1 extraction."""

import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from reference_tfidf import reference_idf, reference_transform_analyzed
from repro.core.taxonomy import Category
from repro.ml import ComplementNB
from repro.ml.base import CsrRows
from repro.textproc.tfidf import (
    HashingVectorizer,
    TfidfVectorizer,
    category_top_tokens,
)
from repro.textproc.vocab import Vocabulary

DOCS = [
    "cpu temperature above threshold cpu clock throttled",
    "connection closed by peer port 22 preauth",
    "out of memory killed process 4242",
    "new usb device found on hub",
]


class TestVectorizer:
    def test_shape(self):
        v = TfidfVectorizer()
        X = v.fit_transform(DOCS)
        assert X.shape[0] == len(DOCS)
        assert X.shape[1] == len(v.feature_names())

    def test_sparse_csr_output(self):
        rows = TfidfVectorizer().fit_transform(DOCS)
        assert isinstance(rows, CsrRows)
        X = rows.to_scipy()
        assert sp.issparse(X) and X.format == "csr"

    def test_rows_l2_normalized(self):
        X = TfidfVectorizer().fit_transform(DOCS).to_scipy()
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        assert np.allclose(norms[norms > 0], 1.0)

    def test_no_l2_option(self):
        X = TfidfVectorizer(l2_normalize=False).fit_transform(DOCS).to_scipy()
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        assert not np.allclose(norms, 1.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            TfidfVectorizer().transform(DOCS)

    def test_oov_tokens_ignored(self):
        v = TfidfVectorizer()
        v.fit(DOCS)
        X = v.transform(["zzz completely unseen words qqq"])
        assert X.nnz == 0

    def test_idf_downweights_common_tokens(self):
        docs = ["cpu alpha", "cpu beta", "cpu gamma"]
        v = TfidfVectorizer(lemmatize=False, normalize=False)
        v.fit(docs)
        names = v.feature_names()
        idf = dict(zip(names, v.idf_))
        assert idf["cpu"] < idf["alpha"]

    def test_max_features_cap(self):
        v = TfidfVectorizer(max_features=3)
        v.fit(DOCS)
        assert len(v.feature_names()) <= 3

    def test_sublinear_tf(self):
        doc = ["word word word word other"]
        dense = TfidfVectorizer(l2_normalize=False).fit_transform(doc).toarray()
        sub = TfidfVectorizer(l2_normalize=False, sublinear_tf=True).fit_transform(doc).toarray()
        # sublinear damps the repeated token's weight
        assert sub.max() < dense.max()

    def test_preprocessing_stages_toggle(self):
        raw = "CPU42 failed"
        full = TfidfVectorizer().analyze(raw)
        plain = TfidfVectorizer(normalize=False, lemmatize=False).analyze(raw)
        assert "fail" in full  # lemmatized
        assert "failed" in plain
        assert any("<num>" in t for t in full)  # masked

    def test_fit_transform_equals_fit_then_transform(self):
        v1 = TfidfVectorizer()
        X1 = v1.fit_transform(DOCS)
        v2 = TfidfVectorizer()
        v2.fit(DOCS)
        X2 = v2.transform(DOCS)
        assert np.allclose(X1.toarray(), X2.toarray())


class TestHashingMemo:
    def test_hash_memo_evicts_and_keeps_admitting(self, monkeypatch):
        from repro.textproc import tfidf as mod

        monkeypatch.setattr(mod, "_HASH_MEMO_MAX_ENTRIES", 64)
        vec = HashingVectorizer(n_features=1 << 10)
        memo = vec._hash_memo
        for i in range(40):  # 400 distinct tokens: six caps' worth
            doc = [f"garbage{i}x{j}y" for j in range(10)]
            got = vec.transform_analyzed([doc])
            want = HashingVectorizer(n_features=1 << 10).transform_analyzed([doc])
            assert (got.to_scipy() != want.to_scipy()).nnz == 0
            assert len(memo) <= 64
        # a vocabulary that arrives after the cap was hit is still memoized
        vec.transform_analyzed([["thermal", "throttle"]])
        assert "thermal" in memo and "throttle" in memo
        assert len(memo) <= 64


class TestCategoryTopTokens:
    def test_paper_signature_tokens(self, corpus):
        tops = category_top_tokens(
            corpus.texts, [lab.value for lab in corpus.labels], top_k=5
        )
        thermal = set(tops[Category.THERMAL.value])
        assert thermal & {"temperature", "throttle", "throttled", "cpu", "sensor", "temp"}
        ssh = set(tops[Category.SSH.value])
        assert ssh & {"preauth", "port", "connect", "connection", "closed", "close"}
        usb = set(tops[Category.USB.value])
        assert usb & {"usb", "device", "hub", "new", "number"}

    def test_top_k_respected(self, corpus):
        tops = category_top_tokens(
            corpus.texts, [lab.value for lab in corpus.labels], top_k=3
        )
        assert all(len(v) <= 3 for v in tops.values())

    def test_all_categories_present(self, corpus):
        tops = category_top_tokens(
            corpus.texts, [lab.value for lab in corpus.labels]
        )
        assert len(tops) == len(Category)

    def test_placeholders_filtered(self, corpus):
        tops = category_top_tokens(
            corpus.texts, [lab.value for lab in corpus.labels]
        )
        for toks in tops.values():
            assert all("<" not in t for t in toks)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="lengths differ"):
            category_top_tokens(["a"], ["x", "y"])


_doc = st.lists(
    st.sampled_from(["cpu", "error", "memory", "usb", "port", "fan"]),
    min_size=1, max_size=8,
).map(" ".join)


class TestProperties:
    @given(st.lists(_doc, min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_weights_nonnegative(self, docs):
        X = TfidfVectorizer().fit_transform(docs)
        assert X.nnz == 0 or X.data.min() >= 0.0

    @given(st.lists(_doc, min_size=2, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_transform_is_deterministic(self, docs):
        v = TfidfVectorizer()
        X1 = v.fit_transform(docs)
        X2 = v.transform(docs)
        assert np.allclose(X1.toarray(), X2.toarray())


# -- exactness against the replaced implementation --------------------------
#
# ``transform_analyzed`` weights at array level and builds one CSR; the
# matrix-by-matrix implementation it replaced lives on in
# ``reference_tfidf.py``.  Everything about the two results must agree.

_FIT_DOCS = [
    ["cpu", "temperature", "above", "threshold", "cpu", "clock", "throttled"],
    ["connection", "closed", "by", "peer", "port", "preauth"],
    ["out", "of", "memory", "killed", "process"],
    ["new", "usb", "device", "found", "on", "hub", "port"],
    ["fan", "error", "on", "cpu", "socket"],
]
_IN_VOCAB = sorted({t for doc in _FIT_DOCS for t in doc})
_OUT_OF_VOCAB = ["zzz", "qqq", "never-seen", "<num>", ""]

#: a token document: empty, all out-of-vocabulary, or a mix with repeats
_token_doc = st.one_of(
    st.just([]),
    st.lists(st.sampled_from(_OUT_OF_VOCAB), min_size=1, max_size=4),
    st.lists(st.sampled_from(_IN_VOCAB + _OUT_OF_VOCAB), min_size=1, max_size=24),
)
#: a batch: a few distinct documents cycled out to one of the sizes the
#: spine flushes at (a trickle's 1 and 3, a mid-size 64, a full 500)
_token_batch = st.builds(
    lambda docs, size: [docs[i % len(docs)] for i in range(size)] if docs else [],
    st.lists(_token_doc, min_size=0, max_size=12),
    st.sampled_from([1, 3, 64, 500]),
)

#: the rounding an L2 norm may differ by when its squares are summed in
#: another order: one epsilon per term of the longest row, halved by the
#: square root, plus the reciprocal and the product
_REORDERED_SUM_RTOL = (24 / 2 + 2) * np.finfo(np.float64).eps


def _fitted(cls, **options):
    vec = cls(normalize=False, lemmatize=False, **options)
    if cls is TfidfVectorizer:
        vec.vocabulary = Vocabulary(tuple(_IN_VOCAB))
        vec.idf_ = reference_idf(vec, _FIT_DOCS)
    return vec


def _scorer(vec) -> ComplementNB:
    """A ComplementNB over ``vec``'s columns (what reads the matrix)."""
    X = reference_transform_analyzed(vec, _FIT_DOCS)
    return ComplementNB().fit(X, np.arange(len(_FIT_DOCS)) % 3)


def _assert_same_structure(got, want):
    assert got.shape == want.shape
    assert got.format == want.format == "csr"
    assert (got.data.dtype, got.indices.dtype, got.indptr.dtype) == (
        want.data.dtype, want.indices.dtype, want.indptr.dtype
    )
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.has_sorted_indices == want.has_sorted_indices


def _assert_identical(got, want):
    _assert_same_structure(got, want)
    assert np.array_equal(got.data, want.data)


class TestEqualsReplacedImplementation:
    @given(_token_batch, st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_tfidf_matrix_and_scores_bit_for_bit(self, docs, sublinear_tf, l2_normalize):
        vec = _fitted(TfidfVectorizer, sublinear_tf=sublinear_tf, l2_normalize=l2_normalize)
        got = vec.transform_analyzed(docs).to_scipy()
        want = reference_transform_analyzed(vec, docs)
        _assert_identical(got, want)
        clf = _scorer(vec)
        assert np.array_equal(clf.decision_function(got), clf.decision_function(want))

    @given(_token_batch, st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_hashed_matrix_and_scores(self, docs, sublinear_tf, l2_normalize):
        """First-sight column order kept; every float the reference's,
        but for one cell: with ``sublinear_tf`` *and* ``l2_normalize`` a
        row's squares are now summed in stored order, where scipy's
        elementwise multiply of a matrix with any unsorted row handed
        them to the sum in reverse — same norm up to rounding."""
        vec = _fitted(
            HashingVectorizer, n_features=1 << 7,
            sublinear_tf=sublinear_tf, l2_normalize=l2_normalize,
        )
        got = vec.transform_analyzed(docs).to_scipy()
        want = reference_transform_analyzed(vec, docs)
        clf = _scorer(vec)
        if sublinear_tf and l2_normalize and not want.has_canonical_format:
            _assert_same_structure(got, want)
            np.testing.assert_allclose(got.data, want.data, rtol=_REORDERED_SUM_RTOL, atol=0.0)
            np.testing.assert_allclose(
                clf.decision_function(got), clf.decision_function(want), rtol=1e-12
            )
        else:
            _assert_identical(got, want)
            assert np.array_equal(clf.decision_function(got), clf.decision_function(want))

    @pytest.mark.parametrize("cls", [TfidfVectorizer, HashingVectorizer])
    @pytest.mark.parametrize("docs", [
        [], [[]], [[], []], [["zzz", "qqq"]], [["cpu"] * 7], [["usb", "cpu", "usb", "hub", "cpu"]],
        [["port", "fan"], [], ["zzz"], ["hub", "device", "hub"]],
    ], ids=["no-docs", "empty-row", "empty-rows", "all-oov", "one-token-repeated", "repeats",
            "mixed"])
    def test_named_edge_cases(self, cls, docs):
        vec = _fitted(cls)
        _assert_identical(
            vec.transform_analyzed(docs).to_scipy(), reference_transform_analyzed(vec, docs)
        )

    def test_tfidf_columns_ascend_within_a_row_and_hashed_ones_do_not_move(self):
        doc = ["usb", "cpu", "hub", "above"]  # first sight is not column order
        tfidf = _fitted(TfidfVectorizer).transform_analyzed([doc]).to_scipy()
        assert list(tfidf.indices) == sorted(tfidf.indices) and tfidf.has_sorted_indices
        hashing = _fitted(HashingVectorizer)
        columns = [zlib.crc32(t.encode()) % hashing.n_features for t in doc]
        assert columns != sorted(columns)
        assert list(hashing.transform_analyzed([doc]).indices) == columns

    def test_a_zero_norm_row_stays_zero(self):
        vec = _fitted(TfidfVectorizer)
        vec.idf_ = np.zeros_like(vec.idf_)
        docs = [["cpu", "usb"], ["fan"]]
        got = vec.transform_analyzed(docs).to_scipy()
        _assert_identical(got, reference_transform_analyzed(vec, docs))
        assert got.nnz == 3 and not got.data.any()

    def test_fit_learns_the_same_idf(self, corpus):
        vec = TfidfVectorizer().fit(corpus.texts)
        assert np.array_equal(vec.idf_, reference_idf(vec, vec.analyze_batch(corpus.texts)))

    def test_corpus_lines_at_every_flush_size(self, split, corpus):
        vec = split[4]
        docs = vec.analyze_batch(corpus.texts[:700])
        for size in (1, 3, 64, 500):
            for start in range(0, 192, size):
                chunk = docs[start:start + size]
                _assert_identical(
                    vec.transform_analyzed(chunk).to_scipy(),
                    reference_transform_analyzed(vec, chunk),
                )
