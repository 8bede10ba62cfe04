"""DURABILITY — write-ahead-log overhead on `simulate` throughput.

Durable ingest journals every buffer transition (accept, flush, evict,
reject, dead-letter) to a segmented WAL before mutating state, plus a
periodic checkpoint.  The design budget is <10% wall-clock cost at the
default ``--fsync batch`` policy versus the identical simulation with
no WAL: same deterministic trace, same trained model (``simulate``
always classifies with a real pipeline), same stage and forwarder
knobs — the durable side differs only in the journal and checkpoints.

Rounds are interleaved plain/durable and min-of-rounds is compared, so
a background hiccup lands on both sides instead of biasing one.

The barrier lane (``test_barrier_cost``) times the journal's unit of
work directly — k accepts and the flush record that moves them, at
1/3/500 accepts — with the barrier's two records going out in one
write and, ``WriteAheadLog.hold`` disabled, one by one as they did
before.  Both tests write their rows to ``BENCH_wal_overhead.json``.

Environment knobs: ``REPRO_BENCH_WAL_DURATION`` (simulated seconds,
default 60), ``REPRO_BENCH_WAL_RATE`` (messages/s, default 50),
``REPRO_BENCH_WAL_ROUNDS`` (round pairs, default 5).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.message import SyslogMessage
from repro.core.pipeline import ClassificationPipeline
from repro.core.serialize import save_pipeline
from repro.datagen.generator import CorpusGenerator
from repro.durability import (
    SimConfig,
    StreamJournal,
    WriteAheadLog,
    build_cluster,
    reconcile,
    resume_simulation,
)
from repro.experiments.common import format_table
from repro.ml import ComplementNB
from repro.obs import MetricsRegistry, use_registry

from conftest import BENCH_SEED, emit, write_artifact

DURATION_S = float(os.environ.get("REPRO_BENCH_WAL_DURATION", "60"))
RATE = float(os.environ.get("REPRO_BENCH_WAL_RATE", "50"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_WAL_ROUNDS", "5"))
OVERHEAD_BUDGET_PCT = 10.0
#: accepts per barrier: the trickle's flush (1, 3) and a full batch
BARRIER_ACCEPTS = (1, 3, 500)
#: both tests add their rows here; each writes the artifact as it stands
_ARTIFACT: dict = {}


def _config(model_dir: Path) -> SimConfig:
    # CLI defaults: --fsync batch, --checkpoint-every 60
    return SimConfig(
        duration_s=DURATION_S, rate=RATE, seed=BENCH_SEED,
        incident=True, fsync="batch",
        model_dir=str(model_dir),
    )


def _train_model(directory: Path) -> None:
    corpus = CorpusGenerator(scale=0.02, seed=BENCH_SEED).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    save_pipeline(pipe, directory)


def _run_volatile(model_dir: Path) -> tuple[float, int]:
    config = _config(model_dir)
    events = config.events()
    with use_registry(MetricsRegistry()):
        cluster = build_cluster(config)
        cluster.load_events(events)
        t0 = time.perf_counter()
        report = cluster.run(DURATION_S + 30.0)
        elapsed = time.perf_counter() - t0
    return elapsed, report.produced


def _run_durable(model_dir: Path) -> tuple[float, int]:
    wal_dir = Path(tempfile.mkdtemp(prefix="bench-wal-"))
    try:
        with use_registry(MetricsRegistry()):
            _config(model_dir).save(wal_dir)
            cluster, config, journal = resume_simulation(wal_dir)
            t0 = time.perf_counter()
            report = cluster.run(config.duration_s + 30.0)
            elapsed = time.perf_counter() - t0
            journal.wal.close()
            rep = reconcile(journal.state, report.produced)
            assert rep.ok, rep.render()
        return elapsed, report.produced
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def test_wal_overhead(benchmark, tmp_path):
    model_dir = tmp_path / "model"
    _train_model(model_dir)

    # warm both paths (imports, trace generation, registry setup)
    _run_volatile(model_dir)
    _run_durable(model_dir)

    plain_times: list[float] = []
    durable_times: list[float] = []
    produced = 0
    for _ in range(N_ROUNDS):
        t, produced = _run_volatile(model_dir)
        plain_times.append(t)
        t, produced_d = _run_durable(model_dir)
        durable_times.append(t)
        assert produced_d == produced  # identical deterministic trace

    plain_s, durable_s = min(plain_times), min(durable_times)
    overhead_pct = (durable_s - plain_s) / plain_s * 100.0
    plain_rate, durable_rate = produced / plain_s, produced / durable_s

    benchmark.pedantic(
        lambda: _run_durable(model_dir), rounds=1, iterations=1
    )
    benchmark.extra_info["produced"] = produced
    benchmark.extra_info["plain_msg_per_s"] = round(plain_rate)
    benchmark.extra_info["durable_msg_per_s"] = round(durable_rate)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 3)

    rows = [
        ["no WAL", f"{plain_s * 1e3:.1f}", f"{plain_rate:,.0f}", "-"],
        ["WAL (--fsync batch)", f"{durable_s * 1e3:.1f}",
         f"{durable_rate:,.0f}", f"{overhead_pct:+.2f}%"],
    ]
    emit(
        f"WAL overhead — {produced:,} messages over {DURATION_S:.0f}s sim "
        f"× {N_ROUNDS} rounds (min)",
        format_table(["mode", "ms/run", "msg/s", "overhead"], rows)
        + f"\nbudget: <{OVERHEAD_BUDGET_PCT:.0f}%  "
        + ("PASS" if overhead_pct < OVERHEAD_BUDGET_PCT else "FAIL"),
    )

    _ARTIFACT["simulate"] = {
        "produced": produced, "duration_s": DURATION_S, "rate": RATE, "rounds": N_ROUNDS,
        "plain_ms": plain_s * 1e3, "durable_ms": durable_s * 1e3,
        "plain_msg_per_s": plain_rate, "durable_msg_per_s": durable_rate,
        "overhead_pct": overhead_pct, "budget_pct": OVERHEAD_BUDGET_PCT,
    }
    write_artifact("wal_overhead", _ARTIFACT)

    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"WAL overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
    )



def _barrier_us(accepts: int, *, one_write: bool, barriers: int) -> float:
    """µs per barrier — ``accepts`` accepts, then the flush that moves them."""
    wal_dir = Path(tempfile.mkdtemp(prefix="bench-wal-barrier-"))
    message = SyslogMessage(timestamp=0.0, hostname="cn001", app="kernel", text="link up")
    try:
        wal = WriteAheadLog(wal_dir, fsync="batch", registry=MetricsRegistry())
        if not one_write:
            wal.hold = lambda: None  # every record flushed on its own, as before
        journal = StreamJournal(wal)
        event = 0
        t0 = time.perf_counter()
        for _ in range(barriers):
            for _ in range(accepts):
                journal.accept(event, message)
                event += 1
            journal.flushed(accepts, offsets={"cn001": event})
        elapsed = time.perf_counter() - t0
        wal.close()
        assert wal.last_seq == 2 * barriers
        return elapsed / barriers * 1e6
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def test_barrier_cost(benchmark):
    lane = {}
    rows = []
    for accepts in BARRIER_ACCEPTS:
        barriers = max(50, 6000 // accepts)
        passes = [
            (_barrier_us(accepts, one_write=True, barriers=barriers),
             _barrier_us(accepts, one_write=False, barriers=barriers))
            for _ in range(N_ROUNDS)
        ]
        one_write, two_writes = min(p[0] for p in passes), min(p[1] for p in passes)
        lane[str(accepts)] = {
            "us_per_barrier": one_write, "us_per_barrier_two_writes": two_writes,
        }
        rows.append([str(accepts), f"{one_write:.1f}", f"{two_writes:.1f}",
                     f"{one_write / accepts:.2f}"])
    benchmark.pedantic(
        lambda: _barrier_us(1, one_write=True, barriers=2000), rounds=1, iterations=1
    )
    table = format_table(
        ["accepts/barrier", "µs/barrier", "as two writes", "µs/accept"], rows
    )
    emit(f"Journal write barrier — k accepts + flush record, min of {N_ROUNDS}", table)
    _ARTIFACT["barrier"] = lane
    write_artifact("wal_overhead", _ARTIFACT)
    # one write may not cost more than two (a tenth for timer noise)
    for accepts in BARRIER_ACCEPTS[:2]:
        row = lane[str(accepts)]
        assert row["us_per_barrier"] <= 1.1 * row["us_per_barrier_two_writes"], table
