"""Sparse TF-IDF vectorization and per-category top-token extraction.

§4.3.1: TF-IDF turns messages into feature vectors whose weights
highlight tokens that are frequent within a message but rare across the
corpus, and — run per category — surfaces the tokens that characterise
each category (Table 1).  Those per-category token lists double as the
"category hints" injected into LLM prompts (§5.2).

The vectorizer follows the standard smooth formulation:

    tf(t, d)   = count (or 1 + log count with ``sublinear_tf``)
    idf(t)     = log((1 + N) / (1 + df(t))) + 1
    w(t, d)    = tf · idf, rows L2-normalized

which matches scikit-learn's defaults so the classifier comparison
reproduces the paper's setup.
"""

from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import CsrRows
from repro.textproc.lemmatize import Lemmatizer
from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tokenize import Tokenizer
from repro.textproc.vocab import Vocabulary, vocabulary_from_df

__all__ = ["HashingVectorizer", "TfidfVectorizer", "category_top_tokens"]


@dataclass
class TfidfVectorizer:
    """TF-IDF vectorizer over raw syslog messages.

    The full preprocessing chain — masking normalization, tokenization,
    lemmatization — is built in and individually switchable so the
    preprocessing ablation (DESIGN.md) can toggle stages.

    Parameters
    ----------
    normalize, lemmatize:
        Enable the masking normalizer / lemmatizer stages.
    sublinear_tf:
        Use ``1 + log(tf)`` instead of raw counts.
    min_df, max_df_ratio, max_features:
        Vocabulary pruning (see :func:`repro.textproc.vocab.vocabulary_from_df`).
    l2_normalize:
        L2-normalize rows of the output matrix.
    """

    normalize: bool = True
    lemmatize: bool = True
    sublinear_tf: bool = False
    min_df: int = 1
    max_df_ratio: float = 1.0
    max_features: int | None = None
    l2_normalize: bool = True
    #: (min_n, max_n) word n-gram range.  The paper's related work [6]
    #: (Cavnar & Trenkle) categorizes text with n-grams; (1, 2) adds
    #: word bigrams ("clock throttled") to the unigram features.
    ngram_range: tuple[int, int] = (1, 1)

    vocabulary: Vocabulary | None = field(default=None, repr=False)
    idf_: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        lo, hi = self.ngram_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid ngram_range {self.ngram_range}")
        self._tokenizer = Tokenizer()
        self._normalizer = MaskingNormalizer() if self.normalize else None
        self._lemmatizer = Lemmatizer() if self.lemmatize else None

    # -- preprocessing -------------------------------------------------

    def analyze(self, text: str) -> list[str]:
        """Run the preprocessing chain on one message, returning tokens
        (including n-grams when ``ngram_range`` extends past unigrams)."""
        return self.analyze_batch([text])[0]

    def analyze_batch(self, messages: Sequence[str]) -> list[list[str]]:
        """Run the preprocessing chain column-wise over a batch.

        Each stage — masking normalization, tokenization, lemmatization,
        n-gram expansion — runs once over the whole column, which is
        what lets the batch-first pipeline (``repro.runtime``) time the
        stages separately and keep per-call overhead off the hot path.
        """
        texts = list(messages)
        if self._normalizer is not None:
            texts = self._normalizer.normalize_many(texts)
        return self.analyze_masked(texts)

    def analyze_masked(self, masked: Sequence[str]) -> list[list[str]]:
        """The chain after masking — tokenize, lemmatize, n-grams — for a
        caller that holds the masked texts (the template cache's keys;
        with ``normalize=False`` those are the raw texts)."""
        docs = map(self._tokenizer.index_tokens, masked)  # shared with the store
        if self._lemmatizer is not None:
            docs = self._lemmatizer.lemmatize_docs(docs)
        else:
            docs = list(map(list, docs))
        lo, hi = self.ngram_range
        if hi == 1:
            return docs if lo == 1 else [[] for _ in docs]
        return [self._expand_ngrams(tokens) for tokens in docs]

    def _expand_ngrams(self, tokens: list[str]) -> list[str]:
        lo, hi = self.ngram_range
        out: list[str] = []
        for n in range(lo, hi + 1):
            if n == 1:
                out.extend(tokens)
            else:
                out.extend(
                    " ".join(tokens[i : i + n])
                    for i in range(len(tokens) - n + 1)
                )
        return out

    def _analyze_distinct(self, messages: Sequence[str]) -> tuple[list[list[str]], list[int]]:
        """Mask ``messages``, then run the rest of the chain once per
        distinct masked text: the token documents in first-seen order,
        and for each message the index of its document."""
        texts = list(messages)
        if self._normalizer is not None:
            texts = self._normalizer.normalize_many(texts)
        first: dict[str, int] = {}
        inverse = [first.setdefault(text, len(first)) for text in texts]
        return self.analyze_masked(list(first)), inverse

    # -- fitting -------------------------------------------------------

    def fit(self, messages: Sequence[str]) -> "TfidfVectorizer":
        """Learn vocabulary and IDF weights from ``messages``.

        Each distinct masked text is analyzed once and counts in the
        document frequencies as many times as it occurs, so a corpus of
        repeated templates fits the model its rows one by one would."""
        self._fit_distinct(*self._analyze_distinct(messages))
        return self

    def _fit_distinct(self, docs: Sequence[Sequence[str]], inverse: Sequence[int]) -> None:
        """Vocabulary and IDF of the corpus whose row ``i`` is
        ``docs[inverse[i]]``: document frequencies are summed once, in
        exact integers, from each distinct document times its count."""
        repeats = Counter(inverse)
        df: Counter[str] = Counter()
        for i, doc in enumerate(docs):
            repeat = repeats[i]
            for token in set(doc):
                df[token] += repeat
        self.vocabulary = vocabulary_from_df(
            df,
            len(inverse),
            min_df=self.min_df,
            max_df_ratio=self.max_df_ratio,
            max_size=self.max_features,
        )
        df_columns = np.array([df[t] for t in self.vocabulary.tokens], dtype=np.int64)
        self.idf_ = np.log((1.0 + len(inverse)) / (1.0 + df_columns)) + 1.0

    def fit_transform(self, messages: Sequence[str]) -> CsrRows:
        """Fit on ``messages`` and return their TF-IDF matrix, analyzing,
        counting and weighting each distinct masked text once."""
        docs, inverse = self._analyze_distinct(messages)
        self._fit_distinct(docs, inverse)
        return _scatter(self.transform_analyzed(docs), inverse)

    def transform(self, messages: Sequence[str]) -> CsrRows:
        """Vectorize ``messages`` with the fitted vocabulary/IDF.

        Each distinct masked text is analyzed, counted and weighted once;
        its row is then copied to every message that masks to it.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`.
        """
        docs, inverse = self._analyze_distinct(messages)
        return _scatter(self.transform_analyzed(docs), inverse)

    def transform_analyzed(self, docs: Sequence[Sequence[str]]) -> CsrRows:
        """Vectorize pre-analyzed token documents (the weighting half of
        :meth:`transform`, split out so the batch-first pipeline can
        time normalization and vectorization as separate stages).

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`.
        """
        if self.vocabulary is None or self.idf_ is None:
            raise RuntimeError("TfidfVectorizer.transform called before fit")
        counts, indices, indptr = self._count_rows(docs)
        return self._weighted(counts, indices, indptr, len(self.vocabulary), self.idf_)

    def _count_rows(
        self, docs: Sequence[Sequence[str]]
    ) -> tuple[list[int], list[int], list[int]]:
        """Term counts of ``docs`` as flat CSR lists ``(counts, indices,
        indptr)``: in-vocabulary columns only, ascending within a row."""
        assert self.vocabulary is not None
        column = self.vocabulary.index.get
        counts: list[int] = []
        indices: list[int] = []
        indptr = [0]
        for doc in docs:
            row = Counter(map(column, doc))
            row.pop(None, None)  # out-of-vocabulary
            columns = sorted(row)
            indices += columns
            counts += [row[c] for c in columns]
            indptr.append(len(indices))
        return counts, indices, indptr

    def _weighted(
        self,
        counts: list[int],
        indices: list[int],
        indptr: list[int],
        n_columns: int,
        idf: np.ndarray | None = None,
    ) -> CsrRows:
        """Weight flat CSR term counts into the batch's rows.

        Sublinear tf, IDF and the L2 row scale are all applied to the
        flat ``data`` array, so a batch costs one :class:`CsrRows`
        whatever its size — a one-line flush pays for its
        dozen numbers, not for seven intermediate matrices.
        """
        data = np.asarray(counts, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int32)
        indptr = np.asarray(indptr, dtype=np.int32)
        if self.sublinear_tf:
            data = 1.0 + np.log(data)
        if idf is not None:
            data = data * idf[indices]
        if self.l2_normalize:
            lengths = np.diff(indptr)
            rows = np.flatnonzero(lengths)
            if rows.size:
                # per-row sums of squares in stored order, by the
                # reduction scipy's ``sum(axis=1)`` performs
                norms = np.sqrt(np.add.reduceat(data * data, indptr[rows]))
                norms[norms == 0.0] = 1.0
                data *= np.repeat(1.0 / norms, lengths[rows])
        return CsrRows(data, indices, indptr, (len(indptr) - 1, n_columns))

    # -- introspection ---------------------------------------------------

    def feature_names(self) -> tuple[str, ...]:
        """Vocabulary tokens in column order."""
        if self.vocabulary is None:
            raise RuntimeError("TfidfVectorizer not fitted")
        return self.vocabulary.tokens


def _scatter(rows: CsrRows, inverse: Sequence[int]) -> CsrRows:
    """Lay ``rows`` out again, in place, so that row ``i`` is the old
    row ``inverse[i]``: every copy of a row holds its arrays' very
    values, so the batch still costs one :class:`CsrRows`.  An
    ``inverse`` with no repeat is first-seen order, the identity."""
    if len(inverse) == rows.shape[0]:
        return rows
    source = np.asarray(inverse, dtype=np.intp)
    lengths = np.diff(rows.indptr)[source]
    indptr = np.zeros(len(source) + 1, dtype=rows.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    take = np.repeat(rows.indptr[source] - indptr[:-1], lengths) + np.arange(indptr[-1])
    rows.data, rows.indices, rows.indptr = rows.data[take], rows.indices[take], indptr
    rows.shape = (len(source), rows.shape[1])
    return rows


#: bound the token→column memo so adversarial streams (unbounded
#: distinct slot values) cannot grow it without limit; a full memo is
#: cleared, never closed to new entries, so a vocabulary shift cannot
#: leave it permanently cold
_HASH_MEMO_MAX_ENTRIES = 1 << 16
_HASH_MEMO_MAX_TOKEN_LEN = 256


@dataclass
class HashingVectorizer(TfidfVectorizer):
    """Stateless hashed-feature sibling of :class:`TfidfVectorizer`.

    Shares the full ``analyze_batch`` preprocessing chain but maps
    tokens to columns with a hash (CRC-32 mod ``n_features``) instead
    of a learned vocabulary, so :meth:`fit` learns nothing and the
    transform path skips the vocab-dict lookups and IDF multiply — the
    cheap miss path for the template-dedup cache.

    The hash is unsigned (no sign-split like scikit-learn's
    ``HashingVectorizer``) because the naive-Bayes classifiers require
    non-negative features; collisions merely merge token counts, which
    naive Bayes tolerates.

    Parameters
    ----------
    n_features:
        Number of hash buckets (columns).  The default ``2**18`` keeps
        the collision rate negligible for syslog-sized vocabularies.
    """

    n_features: int = 1 << 18

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        self._hash_memo: dict[str, int] = {}

    def fit(self, messages: Sequence[str]) -> "HashingVectorizer":
        """No-op (hashing needs no vocabulary); returns ``self``."""
        return self

    def _fit_distinct(self, docs: Sequence[Sequence[str]], inverse: Sequence[int]) -> None:
        """Nothing to learn."""

    def transform_analyzed(self, docs: Sequence[Sequence[str]]) -> CsrRows:
        """Vectorize pre-analyzed token documents via hashed columns."""
        memo = self._hash_memo
        n_features = self.n_features
        indptr = [0]
        indices: list[int] = []
        data: list[int] = []
        for doc in docs:
            row: Counter[int] = Counter()
            for t in doc:
                col = memo.get(t)
                if col is None:
                    col = zlib.crc32(t.encode("utf-8", "surrogatepass")) % n_features
                    if len(t) <= _HASH_MEMO_MAX_TOKEN_LEN:
                        if len(memo) >= _HASH_MEMO_MAX_ENTRIES:
                            memo.clear()
                        memo[t] = col
                row[col] += 1
            indices.extend(row.keys())
            data.extend(row.values())
            indptr.append(len(indices))
        return self._weighted(data, indices, indptr, n_features)

    def feature_names(self) -> tuple[str, ...]:
        """Unavailable: hashed columns have no token names."""
        raise RuntimeError("HashingVectorizer has no feature names")


# Function words and masking placeholders carry no category signal and
# are excluded from the Table 1 style report (the paper's table lists
# content words only).
_TOP_TOKEN_STOPWORDS = frozenset({
    "the", "a", "an", "of", "on", "in", "for", "to", "by", "from",
    "with", "at", "is", "be", "was", "and", "or", "not", "no", "too",
})


def _is_reportable(token: str) -> bool:
    return (
        token not in _TOP_TOKEN_STOPWORDS
        and "<" not in token
        and ">" not in token
        and any(c.isalpha() for c in token)
    )


def category_top_tokens(
    messages: Sequence[str],
    labels: Sequence[str],
    *,
    top_k: int = 5,
    vectorizer: TfidfVectorizer | None = None,
    filter_placeholders: bool = True,
) -> dict[str, list[str]]:
    """Top-``k`` TF-IDF tokens per category (reproduces Table 1).

    Treats the concatenation of each category's messages as one
    "document" and the set of categories as the corpus, exactly the
    framing of §4.3.1 ("the particular set of text [is] all of the
    messages within a certain category ... the corpus is the combined
    set of messages in all of the categories").

    Parameters
    ----------
    messages, labels:
        Parallel sequences of raw messages and category names.
    top_k:
        Tokens to report per category.
    vectorizer:
        Preprocessing configuration to reuse; defaults to the standard
        chain.  Only its ``analyze`` method is used.
    filter_placeholders:
        Exclude masking placeholders (``<num>``...) and function words
        from the report, as the paper's table lists content words only.

    Returns
    -------
    dict
        ``category → [token, ...]`` ordered by descending TF-IDF weight.
    """
    if len(messages) != len(labels):
        raise ValueError(
            f"messages and labels lengths differ: {len(messages)} vs {len(labels)}"
        )
    vec = vectorizer or TfidfVectorizer()
    per_cat: dict[str, Counter[str]] = {}
    for msg, lab in zip(messages, labels):
        per_cat.setdefault(lab, Counter()).update(vec.analyze(msg))
    cats = sorted(per_cat)
    n = len(cats)
    # document frequency across category-documents
    df: Counter[str] = Counter()
    for c in cats:
        df.update(per_cat[c].keys())
    out: dict[str, list[str]] = {}
    for c in cats:
        counts = per_cat[c]
        total = sum(counts.values()) or 1
        scored = []
        for tok, cnt in counts.items():
            if filter_placeholders and not _is_reportable(tok):
                continue
            tf = cnt / total
            idf = np.log((1.0 + n) / (1.0 + df[tok])) + 1.0
            scored.append((tf * idf, tok))
        scored.sort(key=lambda st: (-st[0], st[1]))
        out[c] = [tok for _score, tok in scored[:top_k]]
    return out
