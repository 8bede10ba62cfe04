"""FLUSH TOLL — what one publish → poll → sink → journal → commit round costs.

The spine's paced phase flushes one to three lines at a time, so a line
there pays the round's fixed cost — the toll — nearly alone.  This row
runs the round as ``benchmarks/spine/spine.py`` wires it (the
``classifying_sink`` over a three-node RF-3 store, a ``StreamJournal``
on an ``fsync="off"`` WAL, a live registry; ``tests/flush_toll.py``
assembles it) on hot-shaped lines (Zipf over the 64 stable templates,
every line a template-cache hit) and cold-shaped ones (every line a
never-seen template), at 1, 3, 100 and 500 lines a round, and reports
per round:

* **src opcodes by layer** — bytecodes executed in ``src/repro``
  frames (``sys.settrace`` with ``f_trace_opcodes``), split into store,
  telemetry, broker, journal, forwarder and pipeline.  Deterministic;
  ``tests/test_perf_smoke.py::TestFlushToll`` gates the one-line round
  against the 100-line one on these counts;
* **metric writes per round** — calls of a metric child's ``inc``,
  ``set``, ``observe`` or ``observe_held`` (``count_metric_writes``):
  counters and gauges are views of what their layers own, so a round
  writes only its histograms;
* **µs per round** — wall time, the fastest of
  ``REPRO_BENCH_TOLL_ROUNDS`` (default 5) repetitions, each over fresh
  lines of the same shape.

Both land in ``BENCH_flush_toll.json`` (the ingest-chaos job's seed-0
leg uploads it with the ``ingest-broker-bench`` artifact).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from conftest import emit, write_artifact

from repro.experiments.common import format_table
from repro.obs import MetricsRegistry, use_registry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import flush_toll  # noqa: E402

N_ROUNDS = int(os.environ.get("REPRO_BENCH_TOLL_ROUNDS", "5"))
SIZES = (1, 3, 100, 500)
#: lines per timed pass and per counted pass: every size runs whole rounds
LINES, COUNTED = 1500, 500


#: cold lines drawn so far: no cold line is ever drawn twice
_cold_drawn = 0


def _lines(shape: str, n: int, k: int) -> list:
    """The ``k``-th batch of ``n`` fresh ``shape`` lines."""
    global _cold_drawn
    if shape == "hot":
        return flush_toll.hot_messages(n, seed=100 + k)
    _cold_drawn += n
    return flush_toll.cold_messages(n, start=_cold_drawn - n)


def _row(spine: flush_toll.Spine, shape: str, size: int) -> dict:
    count = LINES // size * size
    spine.rounds(_lines(shape, count, 0), size)  # the shape's first sight
    counted = _lines(shape, COUNTED // size * size, 1)
    opcodes = flush_toll.count_opcodes(lambda: spine.rounds(counted, size))
    n_rounds = len(counted) // size
    opcodes = {name: round(opcodes[name] / n_rounds) for name in opcodes}
    again = _lines(shape, len(counted), 1)
    writes = flush_toll.count_metric_writes(lambda: spine.rounds(again, size)) / n_rounds
    best = float("inf")
    for k in range(N_ROUNDS):
        lines = _lines(shape, count, 2 + k)
        t0 = time.perf_counter()
        spine.rounds(lines, size)
        best = min(best, time.perf_counter() - t0)
    return {
        "opcodes_per_round": {name: opcodes[name] for name in (*flush_toll.LAYER_NAMES, "total")},
        "opcodes_per_line": opcodes["total"] / size,
        "metric_writes_per_round": writes,
        "us_per_round": best / (count // size) * 1e6,
        "us_per_line": best / count * 1e6,
    }


def test_flush_toll():
    rows: dict = {}
    workdir = Path(tempfile.mkdtemp())
    try:
        for shape in ("hot", "cold"):
            registry = MetricsRegistry()
            with use_registry(registry):
                spine = flush_toll.Spine(workdir / shape, registry, corpus_scale=0.05)
                spine.rounds(flush_toll.hot_messages(600, seed=1), 100)  # warm-up
                for size in SIZES:
                    rows[f"{shape}_{size}"] = _row(spine, shape, size)
                spine.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    header = [
        "round", *flush_toll.LAYER_NAMES, "opcodes", "opcodes/line", "writes", "µs/round",
        "µs/line",
    ]
    table = [
        [name, *(r["opcodes_per_round"][layer] for layer in flush_toll.LAYER_NAMES),
         r["opcodes_per_round"]["total"], f"{r['opcodes_per_line']:.0f}",
         f"{r['metric_writes_per_round']:.1f}", f"{r['us_per_round']:.1f}",
         f"{r['us_per_line']:.1f}"]
        for name, r in rows.items()
    ]
    emit(f"Flush toll — src opcodes, metric writes and µs per round (min of {N_ROUNDS})",
         format_table(header, table))
    for shape in ("hot", "cold"):
        rows[f"{shape}_toll_ratio"] = (
            rows[f"{shape}_1"]["opcodes_per_line"] / rows[f"{shape}_100"]["opcodes_per_line"]
        )
    write_artifact("flush_toll", rows)
    # a bigger round never costs more a line than a smaller one
    for shape in ("hot", "cold"):
        per_line = [rows[f"{shape}_{size}"]["opcodes_per_line"] for size in SIZES]
        assert per_line == sorted(per_line, reverse=True), (shape, per_line)
