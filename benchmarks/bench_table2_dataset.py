"""EXP-T2 — Table 2: unique messages per category.

Regenerates the dataset at the bench scale and prints generated counts
next to the paper's, verifying the imbalance shape and uniqueness.
Times full corpus generation.
"""

from conftest import BENCH_SCALE, BENCH_SEED, emit

from repro.core.taxonomy import Category
from repro.datagen.generator import CorpusGenerator
from repro.experiments.common import format_table
from repro.experiments.table2 import run_table2, table2_layout


def test_table2_dataset_shape(benchmark):
    benchmark.pedantic(
        lambda: CorpusGenerator(scale=BENCH_SCALE, seed=BENCH_SEED).generate(),
        rounds=3, iterations=1,
    )
    result = run_table2(scale=BENCH_SCALE, seed=BENCH_SEED)

    headers, rows = table2_layout(result)
    emit(
        f"Table 2 — unique messages per category (scale={BENCH_SCALE})",
        format_table(
            # the ratio to the scaled target is what this bench asserts on
            headers + ["ratio"],
            [row + [f"{result.ratio(cat):.2f}"] for row, cat in zip(rows, Category)],
        ),
    )

    assert result.all_unique
    g = result.generated
    # the imbalance ordering of Table 2 is preserved
    assert (
        g[Category.UNIMPORTANT] > g[Category.THERMAL] > g[Category.MEMORY]
        > g[Category.INTRUSION] > g[Category.SLURM]
    )
    # each non-floored category lands within 5% of its scaled target
    for cat in (Category.UNIMPORTANT, Category.THERMAL, Category.MEMORY,
                Category.INTRUSION, Category.USB, Category.SSH, Category.HARDWARE):
        assert abs(result.ratio(cat) - 1.0) < 0.05
