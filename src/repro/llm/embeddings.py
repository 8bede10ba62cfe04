"""Corpus-trained word embeddings (PPMI + truncated SVD).

The LLM simulator needs a genuine notion of lexical semantics — enough
that "throttling" is near "temperature" and far from "preauth" — so
the simulated models actually *read* messages instead of cheating off
ground-truth labels.  We use the classic count-based recipe (Levy &
Goldberg 2014 showed it approximates word2vec): a positive pointwise
mutual information matrix over a ±``window`` token co-occurrence count,
factored with sparse truncated SVD.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.textproc.tfidf import TfidfVectorizer

__all__ = ["CorpusEmbeddings"]


@dataclass
class CorpusEmbeddings:
    """Word vectors learned from a message corpus.

    Parameters
    ----------
    dim:
        Embedding dimensionality (SVD rank).
    window:
        Co-occurrence half-window in tokens.
    min_count:
        Tokens rarer than this are dropped.
    seed:
        SVD restart seed (svds is deterministic given v0).
    """

    dim: int = 64
    window: int = 3
    min_count: int = 2
    seed: int = 0

    vocab_: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    vectors_: np.ndarray | None = field(default=None, init=False, repr=False)
    _analyzer: TfidfVectorizer = field(
        default_factory=lambda: TfidfVectorizer(), init=False, repr=False
    )

    def fit(self, messages: Sequence[str]) -> "CorpusEmbeddings":
        """Learn embeddings from raw messages.

        Raises
        ------
        ValueError
            If the corpus yields fewer than ``dim + 1`` vocabulary
            tokens (SVD rank would exceed the matrix size).
        """
        docs = [self._analyzer.analyze(m) for m in messages]
        counts = Counter(t for doc in docs for t in doc)
        vocab = sorted(t for t, c in counts.items() if c >= self.min_count)
        if len(vocab) <= self.dim:
            raise ValueError(
                f"vocabulary of {len(vocab)} tokens cannot support "
                f"{self.dim}-dimensional embeddings; lower dim or min_count"
            )
        self.vocab_ = {t: i for i, t in enumerate(vocab)}
        n = len(vocab)
        cooc: Counter[tuple[int, int]] = Counter()
        for doc in docs:
            ids = [self.vocab_[t] for t in doc if t in self.vocab_]
            for i, a in enumerate(ids):
                for b in ids[max(0, i - self.window) : i]:
                    cooc[(a, b)] += 1
                    cooc[(b, a)] += 1
        if not cooc:
            raise ValueError("no co-occurrences found; corpus too small")
        rows, cols, vals = zip(*((a, b, v) for (a, b), v in cooc.items()))
        C = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        ).tocsr()
        total = C.sum()
        row_sum = np.asarray(C.sum(axis=1)).ravel()
        col_sum = np.asarray(C.sum(axis=0)).ravel()
        # PPMI: log(p(a,b) / (p(a) p(b))), clipped at 0, computed only
        # on the nonzero entries.
        C = C.tocoo()
        pmi = np.log(
            (C.data * total) / (row_sum[C.row] * col_sum[C.col])
        )
        keep = pmi > 0
        P = sp.coo_matrix(
            (pmi[keep], (C.row[keep], C.col[keep])), shape=(n, n)
        ).tocsr()
        k = min(self.dim, min(P.shape) - 1)
        rng = np.random.default_rng(self.seed)
        from scipy.sparse.linalg import svds  # loads scipy.linalg: only training needs it

        u, s, _vt = svds(P, k=k, v0=rng.random(n))
        # svds returns ascending singular values; order is irrelevant
        # for the dot products we use, but weight by sqrt(s) as usual.
        vecs = u * np.sqrt(np.maximum(s, 0.0))[np.newaxis, :]
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self.vectors_ = vecs / norms
        return self

    def __contains__(self, token: str) -> bool:
        return token in self.vocab_

    def vector(self, token: str) -> np.ndarray | None:
        """Unit vector for ``token``, or None if out of vocabulary."""
        if self.vectors_ is None:
            raise RuntimeError("CorpusEmbeddings used before fit")
        idx = self.vocab_.get(token)
        return None if idx is None else self.vectors_[idx]

    def embed_text(self, text: str) -> np.ndarray:
        """Mean-of-token-vectors embedding of a raw message (unit norm).

        Out-of-vocabulary tokens are skipped; an all-OOV text embeds to
        the zero vector.
        """
        if self.vectors_ is None:
            raise RuntimeError("CorpusEmbeddings used before fit")
        acc = np.zeros(self.vectors_.shape[1])
        hit = 0
        for tok in self._analyzer.analyze(text):
            idx = self.vocab_.get(tok)
            if idx is not None:
                acc += self.vectors_[idx]
                hit += 1
        if hit:
            norm = np.linalg.norm(acc)
            if norm > 0:
                acc /= norm
        return acc

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two texts' embeddings."""
        return float(self.embed_text(a) @ self.embed_text(b))
