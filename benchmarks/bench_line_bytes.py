"""LINE BYTES — what a stored line costs on the heap, and what a replay peaks at.

ROADMAP item 9 asks that a month of lines fit in flat memory, so a
stored line's bytes are a ledger row.  This row runs hot-shaped lines
(Zipf over the 64 stable templates) through the spine's round as
``tests/flush_toll.py`` assembles it — ``classifying_sink`` over a
three-node RF-3 store, a ``StreamJournal`` on an ``fsync="off"`` WAL, a
live registry — in 100-line rounds, after 1,000 warm-up lines, and
reports:

* **bytes a line by layer** at 10,000 and 50,000 lines — what the rounds
  leave on the heap (``tracemalloc``, after a collection), by the layer
  of the ``src/repro`` frame that allocated it (store, telemetry,
  broker, journal, forwarder, pipeline).  The lines are built before
  the count, so their messages are not in it.  Flat across the two
  sizes means a line costs a fixed number of bytes;
* **objects a line at the worst site** — the most objects any one
  ``src/repro`` allocation site keeps a line (an ``int`` per doc id
  reads 1.0);
* **replay peak** — the ``tracemalloc`` peak of one ``replay_wal`` pass
  over the log of one 50,000-line poll of the live listener's shape
  (every identity synthetic, its body embedded) and its 500-line
  flushes: a replay decodes one accept record at a time, so this is
  the size of one record's batch, not of the poll.

Deterministic (no clock).  ``tests/test_perf_smoke.py::TestLineBytes``
gates the 20,000-line store, journal and broker bytes and the
object-a-line sites; ``tests/test_durability.py::TestAcceptRecordCap``
the replay peak of a 5,000-line poll.  Both land in
``BENCH_line_bytes.json`` (the ingest-chaos job's seed-0 leg uploads it
with the ``ingest-broker-bench`` artifact).
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

from conftest import emit, write_artifact

from repro.core.message import SyslogMessage
from repro.durability import StreamJournal, WriteAheadLog, replay_wal
from repro.experiments.common import format_table
from repro.obs import MetricsRegistry, use_registry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import flush_toll  # noqa: E402

SIZES = (10_000, 50_000)
POLL, FLUSH = 50_000, 500


def _bytes_a_line(workdir: Path, n: int) -> dict:
    registry = MetricsRegistry()
    with use_registry(registry):
        spine = flush_toll.Spine(workdir / f"lines{n}", registry)
        spine.rounds(flush_toll.hot_messages(1_000, seed=1), 100)  # first sights
        lines = flush_toll.hot_messages(n, seed=2)
        by_layer, by_site = flush_toll.retained(lambda: spine.rounds(lines, 100))
        spine.close()
    row = {layer: by_layer[layer] / n for layer in flush_toll.LAYER_NAMES}
    row["total"] = sum(row.values())
    site, count = max(by_site.items(), key=lambda kv: kv[1])
    row["worst_site"], row["worst_site_objects_per_line"] = site, count / n
    return row


def _replay_peak_mib(directory: Path) -> tuple[float, int, int]:
    """The replay peak over one ``POLL``-line poll's log, in MiB; the
    accept records it holds, and the most events any of them carries."""
    wal = WriteAheadLog(directory, fsync="off", registry=MetricsRegistry())
    journal = StreamJournal(wal)
    journal.accept_many([None] * POLL, [
        SyslogMessage(timestamp=float(i), hostname=f"cn{i % 50:03d}", app="kernel",
                      text=f"event {i} on link eth{i % 8} code {i * 7}")
        for i in range(POLL)
    ])
    for _ in range(POLL // FLUSH):
        journal.flushed(FLUSH)
    wal.close()
    del journal
    sizes = [len(r.data["events"]) for r in replay_wal(directory)[0] if r.kind == "accept"]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _record in replay_wal(directory)[0]:
            pass
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / 2**20, len(sizes), max(sizes)


def test_line_bytes():
    workdir = Path(tempfile.mkdtemp())
    try:
        rows = {f"hot_{n}": _bytes_a_line(workdir, n) for n in SIZES}
        peak, records, largest = _replay_peak_mib(workdir / "poll")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    header = ["lines", *flush_toll.LAYER_NAMES, "total", "worst site", "objects/line"]
    table = [
        [name, *(f"{r[layer]:.1f}" for layer in flush_toll.LAYER_NAMES), f"{r['total']:.1f}",
         r["worst_site"], f"{r['worst_site_objects_per_line']:.2f}"]
        for name, r in rows.items()
    ]
    emit("Line bytes — retained bytes a line by layer (tracemalloc)", format_table(header, table))
    emit("Replay peak — one replay_wal pass over one 50,000-line poll",
         f"{peak:.2f} MiB over {records} accept records of at most {largest} events")
    rows["replay_peak_mib"] = peak
    rows["replay_accept_records"] = records
    rows["replay_largest_accept_events"] = largest
    write_artifact("line_bytes", rows)
    # a line costs a fixed number of bytes: no layer grows with history
    for layer in ("store", "journal", "broker"):
        small, large = (rows[f"hot_{n}"][layer] for n in SIZES)
        assert large <= 1.1 * small + 1.0, (layer, small, large)
