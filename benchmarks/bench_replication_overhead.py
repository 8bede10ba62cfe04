"""REPLICATION — quorum-write cost versus a bare LogStore, and versus
the per-document write both replaced.

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

Environment knobs: ``REPRO_BENCH_REPL_MESSAGES`` (messages per round,
default 6000), ``REPRO_BENCH_REPL_ROUNDS`` (rounds, default 5).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.core.message import SyslogMessage
from repro.experiments.common import format_table
from repro.obs import MetricsRegistry, use_registry
from repro.replication import ReplicatedLogStore
from repro.stream.opensearch import LogStore

from conftest import BENCH_SEED, emit, write_artifact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from perdoc_store import PerDocLogStore, PerDocStore  # noqa: E402

N_MESSAGES = int(os.environ.get("REPRO_BENCH_REPL_MESSAGES", "6000"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_REPL_ROUNDS", "5"))
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


def _messages(*, repeated: bool) -> list[SyslogMessage]:
    return [
        SyslogMessage(
            timestamp=float(i),
            hostname=f"cn{(BENCH_SEED + i) % 24:03d}",
            app="kernel",
            text=_TEMPLATES[i % len(_TEMPLATES)].format(i=i % 97)
            + ("" if repeated else " " + _fresh_word(i)),
        )
        for i in range(N_MESSAGES)
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

    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"replication overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
    )
