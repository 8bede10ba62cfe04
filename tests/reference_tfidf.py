"""TF-IDF weighting as it was, kept as the oracle for what replaced it.

Before ``TfidfVectorizer._weighted`` applied sublinear tf, IDF and the
L2 row scale to one flat ``data`` array, ``transform_analyzed`` went
through scipy matrix by matrix: an integer count CSR, ``astype``, a
broadcast ``multiply`` (a COO), ``tocsr`` (which sorts each row's
columns), then ``x.multiply(x).sum(axis=1)`` for the norms — seven
``csr_matrix`` constructions to weight a dozen numbers.  The bodies
below are those routines verbatim, with ``self`` spelled ``vec`` (the
hashing loop reads the hash itself rather than through the vectorizer's
token memo, a pure cache of it); nothing here calls ``_count_rows`` or
``_weighted``.

Used by ``test_tfidf.py`` (every array of the new matrix equal to the
old one's, ``decision_function`` bit for bit), by
``test_perf_smoke.py::TestSmallBatchFloors`` and by
``benchmarks/bench_runtime_scaling.py`` (the cost beside it).

``reference_fit``, ``reference_transform`` and ``reference_fit_transform``
are the per-row ``fit``/``transform``/``fit_transform`` that analysed,
counted and weighted every message, repeats included, and computed each
token's document frequency twice (``build_vocabulary``, kept here whole,
then a ``bincount`` over the counted rows): the oracle for the
vectorizer that analyses each distinct masked text once.
"""

from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.textproc.tfidf import HashingVectorizer, TfidfVectorizer
from repro.textproc.vocab import Vocabulary


def build_vocabulary(
    documents: Iterable[Sequence[str]],
    *,
    min_df: int = 1,
    max_df_ratio: float = 1.0,
    max_size: int | None = None,
) -> Vocabulary:
    """The vocabulary ``fit`` built from every analysed row, counting
    each token's document frequency itself."""
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    df: Counter[str] = Counter()
    n_docs = 0
    for doc in documents:
        n_docs += 1
        df.update(set(doc))
    max_df = max_df_ratio * n_docs
    kept = [(t, c) for t, c in df.items() if c >= min_df and c <= max_df]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_size is not None:
        kept = kept[:max_size]
    # Final ordering alphabetical for stable column layout.
    tokens = tuple(sorted(t for t, _ in kept))
    return Vocabulary(tokens)


def reference_fit(vec: TfidfVectorizer, messages: Sequence[str]) -> TfidfVectorizer:
    """``vec.fit(messages)`` by the per-row implementation."""
    if isinstance(vec, HashingVectorizer):
        return vec  # hashing learns nothing
    docs = vec.analyze_batch(messages)
    vec.vocabulary = build_vocabulary(
        docs,
        min_df=vec.min_df,
        max_df_ratio=vec.max_df_ratio,
        max_size=vec.max_features,
    )
    # a row lists each of its columns once, so a column's document
    # frequency is the number of times it is listed
    _counts, indices, _indptr = vec._count_rows(docs)
    df = np.bincount(np.asarray(indices, dtype=np.intp), minlength=len(vec.vocabulary))
    vec.idf_ = np.log((1.0 + len(docs)) / (1.0 + df)) + 1.0
    return vec


def reference_fit_transform(vec: TfidfVectorizer, messages: Sequence[str]):
    """``vec.fit_transform(messages)`` by the per-row implementation."""
    reference_fit(vec, messages)
    return reference_transform(vec, messages)


def reference_transform(vec: TfidfVectorizer, messages: Sequence[str]):
    """``vec.transform(messages)`` by the per-row implementation."""
    return vec.transform_analyzed(vec.analyze_batch(messages))


def reference_transform_analyzed(
    vec: TfidfVectorizer, docs: Sequence[Sequence[str]]
) -> sp.csr_matrix:
    """``vec.transform_analyzed(docs)`` by the replaced implementation."""
    if isinstance(vec, HashingVectorizer):
        return _hashing_transform_analyzed(vec, docs)
    return _tfidf_transform_analyzed(vec, docs)


def _tfidf_transform_analyzed(vec, docs):
    if vec.vocabulary is None or vec.idf_ is None:
        raise RuntimeError("TfidfVectorizer.transform called before fit")
    counts = _count_matrix(vec, docs).astype(np.float64)
    if vec.sublinear_tf:
        counts.data = 1.0 + np.log(counts.data)
    x = counts.multiply(vec.idf_[np.newaxis, :]).tocsr()
    if vec.l2_normalize:
        _l2_normalize_rows(x)
    return x


def _count_matrix(vec, docs):
    assert vec.vocabulary is not None
    vocab = vec.vocabulary
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for doc in docs:
        row = Counter(vocab.get(t) for t in doc)
        row.pop(-1, None)  # out-of-vocabulary
        indices.extend(row.keys())
        data.extend(row.values())
        indptr.append(len(indices))
    return sp.csr_matrix(
        (
            np.asarray(data, dtype=np.int64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(docs), len(vocab)),
    )


def reference_idf(vec: TfidfVectorizer, docs: Sequence[Sequence[str]]) -> np.ndarray:
    """The IDF weights ``fit`` derived from the count matrix."""
    counts = _count_matrix(vec, docs)
    df = np.asarray((counts > 0).sum(axis=0)).ravel()
    n = counts.shape[0]
    return np.log((1.0 + n) / (1.0 + df)) + 1.0


def _hashing_transform_analyzed(vec, docs):
    n_features = vec.n_features
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for doc in docs:
        row: Counter[int] = Counter()
        for t in doc:
            # the memo is a pure cache of this expression
            row[zlib.crc32(t.encode("utf-8", "surrogatepass")) % n_features] += 1
        indices.extend(row.keys())
        data.extend(row.values())
        indptr.append(len(indices))
    x = sp.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(docs), n_features),
    )
    if vec.sublinear_tf:
        x.data = 1.0 + np.log(x.data)
    if vec.l2_normalize:
        _l2_normalize_rows(x)
    return x


def _l2_normalize_rows(x: sp.csr_matrix) -> None:
    """In-place L2 row normalization of a CSR matrix."""
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    scale = np.repeat(1.0 / norms, np.diff(x.indptr))
    x.data *= scale
