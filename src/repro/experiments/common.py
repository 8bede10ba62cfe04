"""Shared experiment plumbing: dataset preparation and table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.taxonomy import Category
from repro.datagen.generator import CorpusGenerator, LabeledCorpus
from repro.ml.base import CsrRows
from repro.ml.model_selection import train_test_split
from repro.textproc.tfidf import TfidfVectorizer

__all__ = ["ExperimentData", "format_table"]


@dataclass
class ExperimentData:
    """A generated corpus with a stratified split and TF-IDF features.

    Built once and shared across experiments so every classifier sees
    the identical split (the paper evaluates all models on one
    train/test partition).

    Parameters
    ----------
    scale:
        Fraction of the paper's Table 2 counts to generate.
    seed:
        Corpus + split seed.
    max_features:
        TF-IDF vocabulary cap.
    drop_unimportant:
        Remove the Unimportant class before splitting (the §5.1
        ablation).
    """

    scale: float = 0.02
    seed: int = 0
    test_size: float = 0.25
    max_features: int | None = 2000
    drop_unimportant: bool = False

    corpus: LabeledCorpus = field(default=None, init=False, repr=False)
    vectorizer: TfidfVectorizer = field(default=None, init=False, repr=False)
    X_train: CsrRows = field(default=None, init=False, repr=False)
    X_test: CsrRows = field(default=None, init=False, repr=False)
    y_train: np.ndarray = field(default=None, init=False, repr=False)
    y_test: np.ndarray = field(default=None, init=False, repr=False)
    train_texts: list = field(default=None, init=False, repr=False)
    test_texts: list = field(default=None, init=False, repr=False)
    vectorize_train_s: float = field(default=0.0, init=False)

    def prepare(self) -> "ExperimentData":
        """Generate, split, and vectorize (idempotent)."""
        if self.X_train is not None:
            return self
        import time

        corpus = CorpusGenerator(scale=self.scale, seed=self.seed).generate()
        if self.drop_unimportant:
            corpus = corpus.without(Category.UNIMPORTANT)
        self.corpus = corpus
        labels = np.asarray([lab.value for lab in corpus.labels])
        tr_txt, te_txt, y_tr, y_te = train_test_split(
            corpus.texts, labels, test_size=self.test_size, seed=self.seed
        )
        self.train_texts, self.test_texts = list(tr_txt), list(te_txt)
        self.y_train, self.y_test = y_tr, y_te
        self.vectorizer = TfidfVectorizer(max_features=self.max_features)
        t0 = time.perf_counter()
        self.X_train = self.vectorizer.fit_transform(self.train_texts)
        self.vectorize_train_s = time.perf_counter() - t0
        self.X_test = self.vectorizer.transform(self.test_texts)
        return self


def format_table(
    headers: list[str], rows: list[list], *, floatfmt: str = ".4f"
) -> str:
    """Render an aligned plain-text table."""
    def cell(v) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
