"""EXP-T2: Table 2 — unique messages per category."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.taxonomy import Category
from repro.datagen.generator import TABLE2_COUNTS, CorpusGenerator

__all__ = ["run_table2", "table2_layout", "Table2Result"]


@dataclass(frozen=True)
class Table2Result:
    """Generated vs paper dataset shape."""

    generated: dict[Category, int]
    paper: dict[Category, int]
    scale: float
    all_unique: bool

    def ratio(self, cat: Category) -> float:
        """Generated count relative to the scaled paper target."""
        target = max(1, round(self.paper[cat] * self.scale))
        return self.generated.get(cat, 0) / target


def run_table2(*, scale: float = 0.02, seed: int = 0) -> Table2Result:
    """Generate the dataset and compare its shape with Table 2."""
    gen = CorpusGenerator(scale=scale, seed=seed)
    corpus = gen.generate()
    texts = corpus.texts
    return Table2Result(
        generated=corpus.counts(),
        paper=dict(TABLE2_COUNTS),
        scale=scale,
        all_unique=len(set(texts)) == len(texts),
    )


def table2_layout(result: Table2Result) -> tuple[list[str], list[list]]:
    """Table 2 as ``(headers, rows)``, one row per :class:`Category` in order."""
    return (
        ["Category", "generated", "paper"],
        [[c.value, result.generated.get(c, 0), result.paper[c]] for c in Category],
    )
