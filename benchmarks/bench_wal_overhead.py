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

from repro.core.pipeline import ClassificationPipeline
from repro.core.serialize import save_pipeline
from repro.datagen.generator import CorpusGenerator
from repro.durability import (
    SimConfig,
    build_cluster,
    reconcile,
    resume_simulation,
)
from repro.experiments.common import format_table
from repro.ml import ComplementNB
from repro.obs import MetricsRegistry, use_registry

from conftest import BENCH_SEED, emit

DURATION_S = float(os.environ.get("REPRO_BENCH_WAL_DURATION", "60"))
RATE = float(os.environ.get("REPRO_BENCH_WAL_RATE", "50"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_WAL_ROUNDS", "5"))
OVERHEAD_BUDGET_PCT = 10.0


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

    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"WAL overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
    )
