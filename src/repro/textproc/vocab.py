"""Vocabulary construction with document-frequency pruning."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = ["Vocabulary", "vocabulary_from_df"]


@dataclass
class Vocabulary:
    """An immutable token → column-index mapping.

    Built by :func:`vocabulary_from_df` or from an explicit token list.
    Iteration order is the index order.
    """

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            dupes = [t for t, c in Counter(self.tokens).items() if c > 1]
            raise ValueError(f"duplicate vocabulary tokens: {dupes[:5]}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __getitem__(self, token: str) -> int:
        return self.index[token]

    def get(self, token: str, default: int = -1) -> int:
        """Index of ``token``, or ``default`` when out of vocabulary."""
        return self.index.get(token, default)

    def token(self, idx: int) -> str:
        """Token at column ``idx``."""
        return self.tokens[idx]


def vocabulary_from_df(
    df: Mapping[str, int],
    n_docs: int,
    *,
    min_df: int = 1,
    max_df_ratio: float = 1.0,
    max_size: int | None = None,
) -> Vocabulary:
    """Build a vocabulary from document frequencies.

    Parameters
    ----------
    df:
        Token → number of documents holding it.
    n_docs:
        Documents in the corpus ``df`` was counted over.
    min_df:
        Keep tokens appearing in at least this many documents.
    max_df_ratio:
        Drop tokens appearing in more than this fraction of documents
        (corpus-wide boilerplate carries no category signal).
    max_size:
        Keep at most this many tokens, preferring higher document
        frequency (ties broken alphabetically for determinism).
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    max_df = max_df_ratio * n_docs
    kept = [(t, c) for t, c in df.items() if c >= min_df and c <= max_df]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_size is not None:
        kept = kept[:max_size]
    # Final ordering alphabetical for stable column layout.
    tokens = tuple(sorted(t for t, _ in kept))
    return Vocabulary(tokens)
