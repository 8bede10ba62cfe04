"""Unit + property tests for the TF-IDF vectorizer and Table 1 extraction."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.taxonomy import Category
from repro.textproc.tfidf import (
    HashingVectorizer,
    TfidfVectorizer,
    category_top_tokens,
)

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
        X = TfidfVectorizer().fit_transform(DOCS)
        assert sp.issparse(X) and X.format == "csr"

    def test_rows_l2_normalized(self):
        X = TfidfVectorizer().fit_transform(DOCS)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        assert np.allclose(norms[norms > 0], 1.0)

    def test_no_l2_option(self):
        X = TfidfVectorizer(l2_normalize=False).fit_transform(DOCS)
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
            assert (got != want).nnz == 0
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
