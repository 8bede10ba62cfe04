"""REPLICATION — quorum-write cost versus a bare LogStore, and versus
the per-document write both replaced; query cost beside it, versus the
scan-every-copy aggregations the shared engine replaced.

The replicated store at the paper's deployment shape (3 nodes, RF=3,
W=2) pays for durability with extra copies: every batch is analyzed
once at the coordinator, then handed to each reachable owner in one
call, with only acting primaries maintaining a search index.  The
design budget is <35% wall-clock cost on bulk indexing versus a bare
:class:`~repro.stream.opensearch.LogStore` ingesting the identical
messages — the replica map is a dict write, not a second index build,
so the overhead should stay far below naive 3x.

The budget's premise is that text analysis, paid once on either side,
dominates the write.  That holds for text not seen before and is where
the budget is asserted: never-repeating templates in full batches.  For
repeated templates the analysis memo turns it into a lookup on both
sides, what is left to compare is index maintenance against index
maintenance plus three replica maps, and the ratio is a different
quantity: those cells are reported, not asserted, each with the reading
of the per-document write (the parent of the columnar one, kept as the
test oracle in ``tests/perdoc_store.py``) beside it.

The matrix is store (bare / replicated at 3 nodes RF 3, where every
node owns every shard / replicated at 6 nodes RF 2, where a node owns
a third of a batch and its run is cut out of the batch's columns) ×
templates (repeated: eight templates that mask to the same text on
every line / unique: a fresh word per line, so no template plan is ever
earned) × batch (3, the paced regime's handful of lines / 500, a
saturated flush).  Rounds are interleaved and min-of-rounds is
compared, so a background hiccup lands on every lane instead of biasing
one.  Written to ``BENCH_replication_overhead.json``.

The read lane asks the spine benchmark's five dashboard queries
(``benchmarks/spine/dashboard.py``: two message-rate histograms, the
busiest hosts, the severity mix over the recent tenth, a term search) of
three stores holding the same documents — bare, replicated, and the
replicated store as it read before (``PerDocStore``: ``term_query`` from
the acting primaries, the aggregations from a walk over every copy of
every shard) — at two sizes.  What it shows is the shape: a ranged
query costs its window on the engine and the whole store on the scan.
Two rows more ask ``all_terms_query`` and ``phrase_query``, which only
the bare store had before: there the engine on the bare store is read
against the bare store's former bodies (``PerDocLogStore``).  Reported
under ``reads`` in the same artifact, min of rounds, not asserted beyond
the stores of a row agreeing on its answer.

The heap lane (``test_store_heap_lane``, ``BENCH_store_heap.json``) reads
what a stored line leaves behind and what the cyclic collector pays for
it, on the replicated store and on ``PerDocStore`` — which keeps the
object per copy and per line both stores kept before their documents
went columnar.  Lines go through ``classifying_sink`` (quorum write,
then one ``set_category`` a line) with a pipeline that allocates
nothing, so every reading is the store's own: collector-tracked objects
per line (``gc.get_objects()``, the lines' own ``SyslogMessage``
included), collections per generation per 10k lines (``gc.get_stats()``),
seconds inside the collector (``gc.callbacks``), ``tracemalloc`` bytes
per stored document (the messages allocated beforehand), µs per document
through the sink in full and 3-document batches at both placements, and
the five dashboard queries at 30k documents.  It asserts that the two
stores hold and answer the same; no reading has a floor — the counted
floor is ``tests/test_perf_smoke.py::TestStoreHeapFloors``.

``TestStoreQueryFloors`` keeps the two wall-clock query ratios tier-1
used to gate on (a 1,000-document window in a 10x store; the unranged
``terms_aggregation`` against the scan), now counted in rows by
``tests/test_perf_smoke.py::TestStoreQueryFloors``; each ratio is
written to ``BENCH_store_query_floors.json`` whether or not its bound
held.  ``TestStoreWriteFloors`` does the same for the five write ratios
(the columnar quorum write against the per-document one, at both
placements, in batches of 500 and 3), now counted in owner and index
calls by ``tests/test_perf_smoke.py::TestStoreWriteFloors``; they land
in ``BENCH_store_write_floors.json``.

Environment knobs: ``REPRO_BENCH_REPL_MESSAGES`` (messages per round,
default 6000), ``REPRO_BENCH_REPL_ROUNDS`` (rounds, default 5).
"""

from __future__ import annotations

import gc
import os
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core.message import SyslogMessage
from repro.experiments.common import format_table
from repro.obs import MetricsRegistry, use_registry
from repro.replication import ReplicatedLogStore
from repro.stream.fluentd import classifying_sink
from repro.stream.opensearch import LogStore

from conftest import BENCH_SEED, emit, write_artifact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "spine"))
import dashboard  # noqa: E402
from perdoc_store import OneVerdict, PerDocLogStore, PerDocStore  # noqa: E402
from test_perf_smoke import (  # noqa: E402
    _A_NODE_OWNS_A_THIRD,
    _EVERY_NODE_OWNS_ALL,
    _write_lines,
)

N_MESSAGES = int(os.environ.get("REPRO_BENCH_REPL_MESSAGES", "6000"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_REPL_ROUNDS", "5"))
READ_DOCS = (3000, 30000)
BATCHES = (3, 500)
OVERHEAD_BUDGET_PCT = 35.0
_REPLICATED = dict(n_nodes=3, n_shards=6, n_replicas=2, write_quorum=2, read_quorum=2)
_SPREAD = dict(n_nodes=6, n_shards=6, n_replicas=1, write_quorum=1, read_quorum=1)

_TEMPLATES = [
    "kernel: usb {i}-1: new high-speed USB device number {i} using xhci_hcd",
    "sshd[{i}]: Accepted publickey for user{i} from 10.0.{i}.9 port 4{i}",
    "slurmd[{i}]: launch task {i}.0 request from UID {i}",
    "mce: [Hardware Error]: Machine check events logged on CPU {i}",
    "thermal thermal_zone{i}: critical temperature reached ({i} C)",
    "slurmctld: job {i} started on partition batch with {i} tasks",
    "kernel: link eth{i} is up at {i} Mbps full duplex",
    "kernel: mounted filesystem with ordered data mode on nvme{i}",
]

#: lane -> store factory
LANES = {
    "bare": lambda: LogStore(n_shards=6),
    "bare per-doc": lambda: PerDocLogStore(n_shards=6),
    "replicated": lambda: ReplicatedLogStore(**_REPLICATED),
    "replicated per-doc": lambda: PerDocStore(**_REPLICATED),
    "6 nodes RF 2": lambda: ReplicatedLogStore(**_SPREAD),
    "6 nodes RF 2 per-doc": lambda: PerDocStore(**_SPREAD),
}


def _fresh_word(i: int) -> str:
    return "".join(chr(97 + (i * 7919 + BENCH_SEED >> s) % 26) for s in range(0, 36, 4))


def _messages(*, repeated: bool, n: int = N_MESSAGES) -> list[SyslogMessage]:
    return [
        SyslogMessage(
            timestamp=float(i),
            hostname=f"cn{(BENCH_SEED + i) % 24:03d}",
            app="kernel",
            text=_TEMPLATES[i % len(_TEMPLATES)].format(i=i % 97)
            + ("" if repeated else " " + _fresh_word(i)),
        )
        for i in range(n)
    ]


def _run(make, batches) -> float:
    with use_registry(MetricsRegistry()):
        store = make()
        t0 = time.perf_counter()
        for batch in batches:
            store.bulk_index(batch)
        elapsed = time.perf_counter() - t0
        assert len(store) == N_MESSAGES
    return elapsed


def _overhead_pct(us: dict[str, float], lane: str, bare: str) -> float:
    return round((us[lane] - us[bare]) / us[bare] * 100.0, 2)


#: read lane -> store factory
READ_LANES = {
    "bare": LANES["bare"],
    "replicated": LANES["replicated"],
    "replicated scan": LANES["replicated per-doc"],
    "bare before": LANES["bare per-doc"],
}

#: The document queries no dashboard asks.  The replicated store had
#: neither before the engine, so what they are read against is the body
#: each had on the bare store (``PerDocLogStore``), not the scan.
DOC_QUERIES = {
    "all_terms_query": lambda store: store.all_terms_query(["kernel", "usb"]),
    "phrase_query": lambda store: store.phrase_query("new high-speed USB device"),
}


def _answer(kind: str, result):
    """An answer in a form the stores can be compared on: of the busiest
    hosts the counts only — the 24 hosts tie, and among equal counts the
    engine cuts by value, the scan by first sight."""
    if kind == "terms_aggregation":
        return sorted(n for _host, n in result)
    if kind == "term_query" or kind in DOC_QUERIES:
        return [d.doc_id for d in result.docs], result.total
    return result


def _read_lane() -> tuple[list[dict], list[list[str]]]:
    rows, table = [], []
    for n_docs in READ_DOCS:
        msgs = _messages(repeated=True, n=n_docs)
        with use_registry(MetricsRegistry()):
            stores = {lane: make() for lane, make in READ_LANES.items()}
            for store in stores.values():
                for i in range(0, n_docs, 500):
                    store.bulk_index(msgs[i:i + 500])
        window = (msgs[0].timestamp, msgs[-1].timestamp)
        for kind in (*dashboard.KINDS, *DOC_QUERIES):
            # engine / before: the lane the shared engine is read on, and
            # the lane holding the body that query had there before it
            if kind in DOC_QUERIES:
                ask, engine, before = DOC_QUERIES[kind], "bare", "bare before"
            else:
                def ask(store, kind=kind):
                    return dashboard.run(store, kind, *window)
                engine, before = "replicated", "replicated scan"
            lanes = ("bare", "replicated", before)
            answers = [_answer(kind, ask(stores[lane])) for lane in lanes]
            assert answers[0] == answers[1] == answers[2], f"{kind} at {n_docs} documents"
            best = dict.fromkeys(lanes, float("inf"))
            for _ in range(N_ROUNDS):
                for lane in lanes:
                    t0 = time.perf_counter()
                    ask(stores[lane])
                    best[lane] = min(best[lane], time.perf_counter() - t0)
            ms = {lane: round(s * 1e3, 3) for lane, s in best.items()}
            rows.append({
                "docs": n_docs, "query": kind, "ms": ms,
                "replicated_vs_bare": round(best["replicated"] / best["bare"], 3),
                "engine": engine, "before": before,
                "engine_vs_before": round(best[engine] / best[before], 3),
            })
            table.append([
                str(n_docs), kind,
                *(f"{ms[lane]:.3f}" if lane in ms else "-" for lane in READ_LANES),
                f"{rows[-1]['engine_vs_before']:.2f}x",
            ])
    return rows, table


def test_replication_overhead(benchmark):
    rows, table = [], []
    for templates in ("repeated", "unique"):
        msgs = _messages(repeated=templates == "repeated")
        for batch in BATCHES:
            batches = [msgs[i:i + batch] for i in range(0, len(msgs), batch)]
            for make in LANES.values():  # imports, tokenizer tables, memos
                _run(make, batches)
            best = dict.fromkeys(LANES, float("inf"))
            for _ in range(N_ROUNDS):
                for lane, make in LANES.items():
                    best[lane] = min(best[lane], _run(make, batches))
            us = {lane: s / N_MESSAGES * 1e6 for lane, s in best.items()}
            row = {
                "templates": templates, "batch": batch,
                "us_per_doc": {lane: round(v, 3) for lane, v in us.items()},
                "replication_overhead_pct": _overhead_pct(us, "replicated", "bare"),
                "per_doc_replication_overhead_pct": _overhead_pct(
                    us, "replicated per-doc", "bare per-doc"
                ),
                "bare_vs_per_doc": round(us["bare"] / us["bare per-doc"], 3),
                "replicated_vs_per_doc": round(
                    us["replicated"] / us["replicated per-doc"], 3
                ),
                "spread_vs_per_doc": round(
                    us["6 nodes RF 2"] / us["6 nodes RF 2 per-doc"], 3
                ),
            }
            rows.append(row)
            table.append([
                templates, str(batch), *(f"{us[lane]:.2f}" for lane in LANES),
                f"{row['replication_overhead_pct']:+.1f}%",
                f"{row['per_doc_replication_overhead_pct']:+.1f}%",
            ])

    reads, read_table = _read_lane()
    budgeted = next(r for r in rows if r["templates"] == "unique" and r["batch"] == 500)
    overhead_pct = budgeted["replication_overhead_pct"]
    benchmark.pedantic(
        lambda: _run(LANES["replicated"], [_messages(repeated=True)]),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["messages"] = N_MESSAGES
    benchmark.extra_info["overhead_pct"] = overhead_pct
    benchmark.extra_info["replicated_vs_per_doc"] = budgeted["replicated_vs_per_doc"]

    write_artifact("replication_overhead", {
        "messages": N_MESSAGES, "rounds": N_ROUNDS, "seed": BENCH_SEED,
        "placements": {"replicated": _REPLICATED, "6 nodes RF 2": _SPREAD},
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "budget_asserted_on": {"templates": "unique", "batch": 500},
        "rows": rows,
        "read_docs": list(READ_DOCS),
        "reads": reads,
    })
    emit(
        f"Replication overhead — {N_MESSAGES:,} messages × {N_ROUNDS} rounds "
        "(min), µs per document; overhead = replicated (3 nodes RF 3) over bare",
        format_table(
            ["templates", "batch", *LANES, "overhead", "per-doc overhead"], table
        )
        + f"\nbudget (unique templates, batch 500): <{OVERHEAD_BUDGET_PCT:.0f}%  "
        + ("PASS" if overhead_pct < OVERHEAD_BUDGET_PCT else "FAIL"),
    )

    emit(
        f"Queries — {N_ROUNDS} rounds (min), ms per query; scan = the replicated "
        "store's read path before the shared engine, bare before = the bare store's",
        format_table(["docs", "query", *READ_LANES, "engine/before"], read_table),
    )

    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"replication overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
    )


# -- the heap lane -------------------------------------------------------------

HEAP_LINES = 20_000
#: heap lane -> (store class, placement name)
HEAP_STORES = {"columns": ReplicatedLogStore, "per-doc": PerDocStore}
HEAP_PLACEMENTS = {"3 nodes RF 3": _REPLICATED, "6 nodes RF 2": _SPREAD}


def _sink_all(make, msgs, batch: int):
    """``msgs`` through ``classifying_sink`` in ``batch``-sized flushes;
    returns the store and the seconds the flushes took."""
    with use_registry(MetricsRegistry()):
        store = make()
        sink = classifying_sink(store, OneVerdict())
        t0 = time.perf_counter()
        for i in range(0, len(msgs), batch):
            sink(msgs[i:i + batch])
        return store, time.perf_counter() - t0


def _heap_census(cls) -> dict:
    """One store of ``cls`` at 3 nodes RF 3 filled with ``HEAP_LINES``
    fresh lines: what they leave tracked, and what collecting cost."""
    pauses, started = [], []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            pauses.append(time.perf_counter() - started.pop())

    _sink_all(lambda: cls(**_REPLICATED), _messages(repeated=True, n=2_000), 500)  # memos, plans
    gc.collect()
    tracked0 = len(gc.get_objects())
    stats0 = [g["collections"] for g in gc.get_stats()]
    gc.callbacks.append(on_gc)
    try:
        store, seconds = _sink_all(
            lambda: cls(**_REPLICATED), _messages(repeated=True, n=HEAP_LINES), 500
        )
    finally:
        gc.callbacks.remove(on_gc)
    collections = [g["collections"] - c0 for g, c0 in zip(gc.get_stats(), stats0)]
    gc.collect()
    tracked = len(gc.get_objects()) - tracked0
    assert len(store) == HEAP_LINES
    return {
        "tracked_objects_per_line": round(tracked / HEAP_LINES, 3),
        "collections_per_10k_lines": [round(c * 1e4 / HEAP_LINES, 1) for c in collections],
        "collector_seconds": round(sum(pauses), 4),
        "collector_us_per_line": round(sum(pauses) / HEAP_LINES * 1e6, 3),
        "sink_us_per_line": round(seconds / HEAP_LINES * 1e6, 3),
    }


def _heap_bytes(cls) -> float:
    """``tracemalloc`` bytes the store holds per document, the messages
    themselves allocated before tracing starts."""
    msgs = _messages(repeated=True, n=HEAP_LINES)
    _sink_all(lambda: cls(**_REPLICATED), msgs[:2_000], 500)
    gc.collect()
    tracemalloc.start()
    try:
        store, _seconds = _sink_all(lambda: cls(**_REPLICATED), msgs, 500)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store) == HEAP_LINES
    return round(held / HEAP_LINES, 1)


def test_store_heap_lane(benchmark):
    census = {lane: _heap_census(cls) for lane, cls in HEAP_STORES.items()}
    for lane, cls in HEAP_STORES.items():
        census[lane]["tracemalloc_bytes_per_doc"] = _heap_bytes(cls)

    # µs per document through the sink (quorum write + a label a line),
    # collector on as it is in a live process: interleaved, min of rounds
    writes, msgs = [], _messages(repeated=True)
    for placement, kwargs in HEAP_PLACEMENTS.items():
        for batch in BATCHES:
            best = dict.fromkeys(HEAP_STORES, float("inf"))
            for _ in range(N_ROUNDS):
                for lane, cls in HEAP_STORES.items():
                    _store, seconds = _sink_all(lambda: cls(**kwargs), msgs, batch)
                    best[lane] = min(best[lane], seconds)
            writes.append({
                "placement": placement, "batch": batch,
                "us_per_doc": {k: round(v / len(msgs) * 1e6, 3) for k, v in best.items()},
                "columns_vs_per_doc": round(best["columns"] / best["per-doc"], 3),
            })

    # the same lines on both stores: equal holdings, equal answers
    msgs = _messages(repeated=True, n=READ_DOCS[-1])
    stores = {
        lane: _sink_all(lambda: cls(**_REPLICATED), msgs, 500)[0]
        for lane, cls in HEAP_STORES.items()
    }
    held = [
        (s.seq_digests(), [(d.doc_id, d.message, d.category) for d in s.iter_documents()])
        for s in stores.values()
    ]
    assert held[0] == held[1]
    window, reads = (msgs[0].timestamp, msgs[-1].timestamp), []
    for kind in dashboard.KINDS:
        answers = [_answer(kind, dashboard.run(s, kind, *window)) for s in stores.values()]
        assert answers[0] == answers[1], kind
        best = dict.fromkeys(stores, float("inf"))
        for _ in range(N_ROUNDS):
            for lane, store in stores.items():
                t0 = time.perf_counter()
                dashboard.run(store, kind, *window)
                best[lane] = min(best[lane], time.perf_counter() - t0)
        reads.append({"query": kind, "ms": {k: round(v * 1e3, 3) for k, v in best.items()}})

    benchmark.pedantic(lambda: _heap_census(ReplicatedLogStore), rounds=1, iterations=1)
    benchmark.extra_info.update(census["columns"])
    write_artifact("store_heap", {
        "lines": HEAP_LINES, "rounds": N_ROUNDS, "seed": BENCH_SEED,
        "census": census, "writes": writes,
        "read_docs": READ_DOCS[-1], "reads": reads,
    })
    keys = list(census["columns"])
    emit(
        f"What a stored line leaves on the heap — {HEAP_LINES:,} lines through "
        "classifying_sink, 3 nodes RF 3; per-doc = an object per copy and per line",
        format_table(
            ["reading", *HEAP_STORES],
            [[k, *(str(census[lane][k]) for lane in HEAP_STORES)] for k in keys],
        )
        + "\n\n"
        + format_table(
            ["placement", "batch", *(f"{lane} us/doc" for lane in HEAP_STORES), "ratio"],
            [
                [w["placement"], str(w["batch"]),
                 *(f"{w['us_per_doc'][lane]:.2f}" for lane in HEAP_STORES),
                 f"{w['columns_vs_per_doc']:.2f}x"]
                for w in writes
            ],
        )
        + "\n\n"
        + format_table(
            [f"query at {READ_DOCS[-1]:,} docs", *(f"{lane} ms" for lane in HEAP_STORES)],
            [[r["query"], *(f"{r['ms'][lane]:.3f}" for lane in HEAP_STORES)] for r in reads],
        ),
    )


# -- the query floors ----------------------------------------------------------

_QUERY_FLOOR_ROWS: dict[str, float] = {}
_RATIOS: list[float] = []


def _filled(cls, n: int):
    """A 3-node RF-3 store of class ``cls`` holding ``n`` documents, one
    per second of log time, written 500 at a time."""
    store = cls(registry=MetricsRegistry(), **_REPLICATED)
    lines = _messages(repeated=True, n=n)
    for i in range(0, n, 500):
        store.bulk_index(lines[i:i + 500])
    return store


def _query_cost_ratio(ask, baseline, rounds: int = 7) -> float:
    """Cost of ``ask()`` over ``baseline()``: alternating rounds, best
    round of each side; recorded for the ledger row."""
    def clock(call) -> float:
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    passes = [(clock(ask), clock(baseline)) for _ in range(rounds)]
    _RATIOS.append(min(p[0] for p in passes) / min(p[1] for p in passes))
    return _RATIOS[-1]


class TestStoreQueryFloors:
    """One query engine: a ranged dashboard query on the replicated store
    costs its window, not the store, and an un-ranged one costs no more
    than the scan of every copy it replaced.  Ratios only."""

    @pytest.fixture(autouse=True)
    def _ledger_row(self, request):
        _RATIOS.clear()
        yield
        if _RATIOS:
            _QUERY_FLOOR_ROWS[request.node.name] = round(_RATIOS[-1], 3)
            write_artifact("store_query_floors", {"ratios": _QUERY_FLOOR_ROWS})

    def test_a_ranged_aggregation_is_blind_to_the_documents_outside_it(self):
        """The newest 1,000 documents of 30,000 against the newest 1,000
        of 3,000.  Measured 1.0; the scan-every-copy read path this
        replaced (``PerDocStore.severity_histogram``) reads 8.7-9.8x."""
        from repro.replication import ReplicatedLogStore

        big, small = _filled(ReplicatedLogStore, 30_000), _filled(ReplicatedLogStore, 3_000)
        assert sum(big.severity_histogram(t0=29_000.0).values()) == 1_000
        assert sum(small.severity_histogram(t0=2_000.0).values()) == 1_000
        ratio = _query_cost_ratio(
            lambda: big.severity_histogram(t0=29_000.0),
            lambda: small.severity_histogram(t0=2_000.0),
            rounds=15,
        )
        assert ratio <= 3.0, f"the same 1,000-document window costs {ratio:.1f}x in a 10x store"

    def test_an_unranged_aggregation_costs_no_more_than_the_scan(self):
        """Every document is read either way.  Measured 0.48-0.59."""
        from perdoc_store import PerDocStore
        from repro.replication import ReplicatedLogStore

        engine, scan = _filled(ReplicatedLogStore, 10_000), _filled(PerDocStore, 10_000)
        assert sorted(engine.terms_aggregation("hostname", top=24)) == sorted(
            scan.terms_aggregation("hostname", top=24)  # all 24 hosts: no cut among ties
        )
        ratio = _query_cost_ratio(
            lambda: engine.terms_aggregation("hostname"),
            lambda: scan.terms_aggregation("hostname"),
        )
        assert ratio <= 1.15, f"terms_aggregation costs {ratio:.2f}x the scan of every copy"


# -- the write floors ----------------------------------------------------------

_WRITE_FLOOR_ROWS: dict[str, float] = {}


def _write_cost_ratio(
    messages, batch: int, rounds: int = 7, placement=_EVERY_NODE_OWNS_ALL
) -> float:
    """Cost of ``ReplicatedLogStore.bulk_index`` over the per-document
    write it replaced (``perdoc_store.PerDocStore``) at one placement:
    alternating rounds on fresh stores, best round of each side;
    recorded for the ledger row."""
    batches = [messages[i:i + batch] for i in range(0, len(messages), batch)]

    def one_round(cls) -> float:
        store = cls(registry=MetricsRegistry(), **placement)
        t0 = time.perf_counter()
        for b in batches:
            store.bulk_index(b)
        dt = time.perf_counter() - t0
        assert len(store) == len(messages)
        return dt

    passes = [(one_round(ReplicatedLogStore), one_round(PerDocStore)) for _ in range(rounds)]
    _RATIOS.append(min(p[0] for p in passes) / min(p[1] for p in passes))
    return _RATIOS[-1]


class TestStoreWriteFloors:
    """One write per owner: the columnar quorum write against the
    per-document one, same process, same messages.  Ratios only."""

    @pytest.fixture(autouse=True)
    def _ledger_row(self, request):
        _RATIOS.clear()
        yield
        if _RATIOS:
            _WRITE_FLOOR_ROWS[request.node.name] = round(_RATIOS[-1], 3)
            write_artifact("store_write_floors", {"ratios": _WRITE_FLOOR_ROWS})

    def test_repeated_templates_in_full_batches_are_a_fifth_faster(self):
        ratio = _write_cost_ratio(_write_lines(4_000, repeated=True), 500)
        assert ratio <= 1 / 1.2, f"columnar bulk_index costs {ratio:.2f}x the per-doc write"

    def test_never_repeating_templates_cost_no_more(self):
        """Text that never repeats earns no plan: a first sight is one
        lookup, so the bypass costs at most timer noise."""
        ratio = _write_cost_ratio(_write_lines(4_000, repeated=False), 500)
        assert ratio <= 1.05, f"columnar bulk_index costs {ratio:.2f}x the per-doc write"

    def test_a_three_document_batch_is_no_slower(self):
        """The paced regime flushes a handful of lines at a time; the
        per-owner call must not cost what it saves.  Measured 0.91-0.97
        here (1.00 on the spine benchmark's own lines); the allowance is
        for the timer."""
        ratio = _write_cost_ratio(_write_lines(2_400, repeated=True), 3, rounds=9)
        assert ratio <= 1.05, f"a 3-doc bulk_index costs {ratio:.2f}x the per-doc write"

    def test_cut_out_runs_in_full_batches_are_a_fifth_faster(self):
        """The other side of ``bulk_index``'s per-owner branch: where a
        node owns only some shards its run is compressed out of the
        batch's columns.  Measured 0.55-0.58."""
        ratio = _write_cost_ratio(
            _write_lines(4_000, repeated=True), 500, placement=_A_NODE_OWNS_A_THIRD
        )
        assert ratio <= 1 / 1.2, f"columnar bulk_index costs {ratio:.2f}x the per-doc write"

    def test_cut_out_runs_of_a_three_document_batch_have_a_bounded_cost(self):
        """Three documents over six nodes reach four owners with one or
        two rows each: a call per owner has nothing to amortise, and
        cutting the runs out costs more than the per-document write's
        six ``put``s did.  Measured 1.25-1.36 (about 3 us per document
        of a paced phase that costs 340 per line); this pins it there."""
        ratio = _write_cost_ratio(
            _write_lines(2_400, repeated=True), 3, rounds=9,
            placement=_A_NODE_OWNS_A_THIRD,
        )
        assert ratio <= 1.5, f"a 3-doc bulk_index costs {ratio:.2f}x the per-doc write"
