"""EXP-T1 — Table 1: top-5 TF-IDF tokens per category.

Regenerates the paper's Table 1 on the synthetic corpus and times the
per-category TF-IDF extraction.  The check is content-level: the
category-defining tokens the paper lists must surface for the right
categories.
"""

from conftest import BENCH_SCALE, BENCH_SEED, emit

from repro.core.taxonomy import Category
from repro.datagen.generator import CorpusGenerator
from repro.experiments.common import format_table
from repro.experiments.table1 import table1_layout
from repro.textproc.tfidf import category_top_tokens


def test_table1_top_tokens(benchmark):
    corpus = CorpusGenerator(scale=BENCH_SCALE, seed=BENCH_SEED).generate()
    labels = [lab.value for lab in corpus.labels]

    tops = benchmark.pedantic(
        lambda: category_top_tokens(corpus.texts, labels, top_k=5),
        rounds=3, iterations=1,
    )

    emit(
        "Table 1 — top 5 TF-IDF tokens per category",
        format_table(*table1_layout(tops)),
    )

    # paper-shape assertions: signature tokens land in the right rows
    assert set(tops[Category.THERMAL.value]) & {
        "temperature", "temp", "throttle", "throttled", "cpu", "sensor", "processor"
    }
    assert set(tops[Category.SSH.value]) & {
        "preauth", "port", "connection", "connect", "closed", "close", "user"
    }
    assert set(tops[Category.USB.value]) & {"usb", "device", "hub", "new", "number"}
    assert set(tops[Category.UNIMPORTANT.value]) & {
        "lpi_hbm_nn", "job_argument", "slurm_rpc_node_registration", "error", "iteration"
    }
    assert set(tops[Category.MEMORY.value]) & {
        "size", "real_memory", "memory", "dimm", "node", "low"
    }
