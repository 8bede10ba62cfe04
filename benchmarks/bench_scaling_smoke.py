"""SCALING SMOKE — the five wall-clock budgets tier-1 used to hold.

``tests/test_perf_smoke.py::TestScalingSmoke`` now counts the work these
timed:

- the banded Levenshtein reads at most ``(2k+1)·len(a)`` characters of
  ``b`` where the full table reads ``len(a)·len(b)``;
- a shuffled 20,000-document bulk load sorts the store's time index
  once, at the first ranged query, never per insert;
- Drain visits at most ``depth + 1`` routing nodes a line and calls
  ``_similarity`` under 1.8 times a line over the corpus;
- a TF-IDF ``fit_transform`` builds one ``csr_matrix`` and analyses
  each text at most twice;
- the event engine makes one ``heappush`` and one ``heappop`` an event
  and at most 2·log2(n) + 2 ``Event`` comparisons.

The bodies below are the wall-clock versions, kept as they were: a
generous budget on a shuffled bulk index and its two range queries, the
banded distance against the full table on two far strings, Drain over
the corpus (5 s), TF-IDF ``fit_transform`` over it (15 s) and 50k
event-engine events (8 s).  Each reading is a ledger row in
``BENCH_scaling_smoke.json`` whether or not its bound held.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import emit, write_artifact

from repro.core.message import Severity, SyslogMessage
from repro.datagen.generator import CorpusGenerator
from repro.experiments.common import format_table
from repro.stream.opensearch import LogStore
from repro.textproc.drain import DrainTemplateMiner
from repro.textproc.tfidf import TfidfVectorizer

#: label → seconds, every reading of this module
_ROWS: dict[str, float] = {}


@pytest.fixture(autouse=True)
def _ledger_row():
    yield
    if _ROWS:
        emit(
            "Scaling smoke: wall-clock readings",
            format_table(["reading", "seconds"], [[k, f"{v:.4f}"] for k, v in _ROWS.items()]),
        )
        write_artifact("scaling_smoke", {"seconds": _ROWS})


@pytest.fixture(scope="module")
def corpus():
    """The corpus tier-1's ``corpus`` fixture builds (~1000 messages)."""
    return CorpusGenerator(scale=0.005, seed=42).generate()


def _clocked(fn, budget_s: float, label: str):
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    _ROWS[label] = dt
    assert dt < budget_s, f"{label} took {dt:.2f}s (budget {budget_s}s)"
    return result


def test_bulk_random_order_indexing_is_linearish():
    """LogStore must not degrade to O(n²) on shuffled bulk loads."""
    rng = np.random.default_rng(0)
    msgs = [
        SyslogMessage(timestamp=float(t), hostname=f"cn{i % 20:03d}",
                      app="kernel", text=f"event {i} code {i * 3}",
                      severity=Severity.INFO)
        for i, t in enumerate(rng.uniform(0, 1e6, size=20_000))
    ]
    store = LogStore()
    _clocked(lambda: store.bulk_index(msgs), 10.0, "bulk index 20k shuffled")
    _clocked(lambda: store.time_range(0, 5e5), 2.0, "time_range")
    _clocked(lambda: store.date_histogram(interval_s=1000.0), 2.0,
             "date_histogram")


def test_banded_levenshtein_faster_than_full():
    """The threshold cutoff must actually cut work on far strings."""
    from repro.textproc.distance import levenshtein, levenshtein_within

    a = "x" * 400
    b = "y" * 400
    t0 = time.perf_counter()
    for _ in range(200):
        levenshtein_within(a, b, 5)
    banded = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(200):
        levenshtein(a, b)
    full = time.perf_counter() - t0
    _ROWS["levenshtein_within x200 (banded)"] = banded
    _ROWS["levenshtein x200 (full)"] = full
    assert banded < full


def test_drain_scales_to_thousands(corpus):
    miner = DrainTemplateMiner()
    _clocked(lambda: miner.fit(corpus.texts), 5.0, "drain over corpus")


def test_tfidf_vectorize_thousands(corpus):
    vec = TfidfVectorizer(max_features=2000)
    _clocked(lambda: vec.fit_transform(corpus.texts), 15.0,
             "tfidf fit_transform")


def test_event_engine_throughput():
    from repro.stream.events import EventEngine

    eng = EventEngine()
    counter = [0]

    def bump():
        counter[0] += 1

    for i in range(50_000):
        eng.schedule(float(i % 100), bump)
    _clocked(lambda: eng.run(), 8.0, "50k events")
    assert counter[0] == 50_000
