"""EXP-T1: Table 1 — top-5 TF-IDF tokens per category."""

from __future__ import annotations

from repro.datagen.generator import CorpusGenerator
from repro.textproc.tfidf import category_top_tokens

__all__ = ["run_table1", "table1_layout"]


def run_table1(
    *, scale: float = 0.02, seed: int = 0, top_k: int = 5
) -> dict[str, list[str]]:
    """Generate a corpus and extract per-category top TF-IDF tokens.

    Returns ``category name → top tokens`` in Table 1's format.  The
    paper's table is data-dependent; the reproduction check is that the
    characteristic tokens appear for the right categories ("throttled"/
    "temperature" under Thermal, "preauth"/"port" under SSH, the
    application identifiers under Unimportant, ...).
    """
    corpus = CorpusGenerator(scale=scale, seed=seed).generate()
    return category_top_tokens(
        corpus.texts, [lab.value for lab in corpus.labels], top_k=top_k
    )


def table1_layout(tops: dict[str, list[str]]) -> tuple[list[str], list[list]]:
    """Table 1 as ``(headers, rows)`` for ``format_table``: the one layout."""
    return (
        ["Category", "Top tokens"],
        [[c, ", ".join(t)] for c, t in sorted(tops.items())],
    )
