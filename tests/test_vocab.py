"""Unit tests for vocabulary construction."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.textproc.vocab import Vocabulary, vocabulary_from_df


def build_vocabulary(docs, **options):
    """``vocabulary_from_df`` over the document frequencies of ``docs``."""
    df = Counter(token for doc in docs for token in set(doc))
    return vocabulary_from_df(df, len(docs), **options)


class TestVocabulary:
    def test_index_roundtrip(self):
        v = Vocabulary(("a", "b", "c"))
        assert v["b"] == 1
        assert v.token(1) == "b"

    def test_contains(self):
        v = Vocabulary(("x",))
        assert "x" in v and "y" not in v

    def test_get_default(self):
        v = Vocabulary(("x",))
        assert v.get("y") == -1
        assert v.get("y", default=-7) == -7

    def test_len(self):
        assert len(Vocabulary(("a", "b"))) == 2

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(("a", "a"))


class TestBuildVocabulary:
    DOCS = [["a", "b"], ["a", "c"], ["a", "b", "d"]]

    def test_all_tokens_kept_by_default(self):
        v = build_vocabulary(self.DOCS)
        assert set(v.tokens) == {"a", "b", "c", "d"}

    def test_min_df(self):
        v = build_vocabulary(self.DOCS, min_df=2)
        assert set(v.tokens) == {"a", "b"}

    def test_max_df_ratio_drops_boilerplate(self):
        v = build_vocabulary(self.DOCS, max_df_ratio=0.99)
        assert "a" not in v  # appears in 100% of docs

    def test_max_size_prefers_frequent(self):
        v = build_vocabulary(self.DOCS, max_size=2)
        assert "a" in v and "b" in v

    def test_alphabetical_column_order(self):
        v = build_vocabulary(self.DOCS)
        assert list(v.tokens) == sorted(v.tokens)

    def test_df_counts_documents_not_occurrences(self):
        v = build_vocabulary([["a", "a", "a"], ["b"]], min_df=2)
        assert "a" not in v

    def test_invalid_min_df(self):
        with pytest.raises(ValueError, match="min_df"):
            build_vocabulary(self.DOCS, min_df=0)

    def test_invalid_max_df_ratio(self):
        with pytest.raises(ValueError, match="max_df_ratio"):
            build_vocabulary(self.DOCS, max_df_ratio=0.0)

    def test_empty_corpus(self):
        v = build_vocabulary([])
        assert len(v) == 0

    @given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), max_size=20))
    def test_determinism(self, docs):
        v1 = build_vocabulary(docs)
        v2 = build_vocabulary(docs)
        assert v1.tokens == v2.tokens

    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), max_size=20),
        st.integers(min_value=1, max_value=5),
    )
    def test_max_size_respected(self, docs, k):
        assert len(build_vocabulary(docs, max_size=k)) <= k
