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
"""

from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.textproc.tfidf import HashingVectorizer, TfidfVectorizer


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
