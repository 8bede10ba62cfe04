"""DURABILITY — what the write-ahead log costs a journaled message.

Durable ingest journals every buffer transition (accept, flush, evict,
reject, dead-letter) to a segmented WAL before mutating state, plus a
periodic checkpoint.  ``test_wal_overhead`` prices the two separately
on the run ``simulate --wal-dir`` makes at its defaults (``--fsync
batch``, a trained model, a deterministic trace), min over the rounds:

* **µs per journaled message** — the budget.  The seconds inside the
  journal's calls are summed where they are made, at two trace lengths
  (``DURATION_S`` and three times that); the cost is the slope over the
  messages added, so what a run pays once cancels.  Unlike the <10% of
  wall clock it replaces, it does not move when the simulation around
  the journal gets faster.
* **ms per checkpoint** — reported, not bounded: a checkpoint snapshots
  the whole store, so it costs by the documents held, not by the journal.

The barrier lane (``test_barrier_cost``) times the journal's unit of
work directly — k accepts and the flush record that moves them, at
1/3/500 accepts — with the barrier's two records going out in one
write and, ``WriteAheadLog.hold`` disabled, one by one as they did
before.

The replay lane (``test_replay_cost``) prices reading the log back on a
hot-shaped WAL at 1×, 2× and 4× history (the spine's ``hot_templates``
lines, journaled like the live listener's: the paced 12k in 3-line
flushes, then each 11k burst in 500-line flushes).  For opening a
``WriteAheadLog``, iterating ``replay_wal`` and ``recover_state`` it
reports µs per record and the ``tracemalloc`` peak, beside the
list-building scan they replaced (``tests/reference_wal.py``).  A
streaming read's peak is one record; the list's is the history.  All
three tests write their rows to ``BENCH_wal_overhead.json``.

Environment knobs: ``REPRO_BENCH_WAL_DURATION`` (simulated seconds of
the short run, default 60), ``REPRO_BENCH_WAL_RATE`` (messages/s,
default 50), ``REPRO_BENCH_WAL_ROUNDS`` (rounds, default 5).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro.core.message import SyslogMessage
from repro.core.pipeline import ClassificationPipeline
from repro.core.serialize import save_pipeline
from repro.datagen.generator import CorpusGenerator
from repro.durability import (
    JournalState,
    SimConfig,
    StreamJournal,
    WriteAheadLog,
    recover_state,
    replay_wal,
    resume_simulation,
    run_to_completion,
)
from repro.experiments.common import format_table
from repro.ml import ComplementNB
from repro.obs import MetricsRegistry, use_registry
from repro.stream.rfc import safe_parse_line

from conftest import BENCH_SEED, emit, write_artifact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "spine"))

import reference_wal  # noqa: E402
import workloads as spine_workloads  # noqa: E402

DURATION_S = float(os.environ.get("REPRO_BENCH_WAL_DURATION", "60"))
RATE = float(os.environ.get("REPRO_BENCH_WAL_RATE", "50"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_WAL_ROUNDS", "5"))
#: µs inside the journal per journaled message.  Set once, from PR 19's
#: src/ on the PR 20 host: five runs read 3.04–3.93 (twice their top);
#: a journal that group-commits nothing reads 16–19
JOURNAL_BUDGET_US = 8.0
#: accepts per barrier: the trickle's flush (1, 3) and a full batch
BARRIER_ACCEPTS = (1, 3, 500)
#: both tests add their rows here; each writes the artifact as it stands
_ARTIFACT: dict = {}


def _train_model(directory: Path) -> None:
    corpus = CorpusGenerator(scale=0.02, seed=BENCH_SEED).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    save_pipeline(pipe, directory)


class _TimedJournal:
    """Stands in for a ``StreamJournal``, summing the seconds inside its calls."""

    def __init__(self, journal) -> None:
        self._journal = journal
        self.seconds = 0.0

    def __getattr__(self, name):
        attr = getattr(self._journal, name)
        if not callable(attr):
            return attr

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        setattr(self, name, timed)  # resolved once per method
        return timed


def _run_durable(model_dir: Path, duration_s: float) -> dict:
    """One durable run: messages, seconds in the journal, seconds per checkpoint."""
    wal_dir = Path(tempfile.mkdtemp(prefix="bench-wal-"))
    try:
        with use_registry(MetricsRegistry()):
            # CLI defaults: --fsync batch, --checkpoint-every 60
            SimConfig(
                duration_s=duration_s, rate=RATE, seed=BENCH_SEED, incident=True,
                fsync="batch", model_dir=str(model_dir),
            ).save(wal_dir)
            cluster, config, journal = resume_simulation(wal_dir)
            timed = cluster.journal = cluster.forwarder.journal = _TimedJournal(journal)
            checkpoints: list[float] = []
            write_checkpoint = cluster.write_checkpoint

            def timed_checkpoint():
                t0 = time.perf_counter()
                write_checkpoint()
                checkpoints.append(time.perf_counter() - t0)

            cluster.write_checkpoint = timed_checkpoint
            report, conservation = run_to_completion(cluster, config)
            assert conservation.ok, conservation.render()
        return {
            "produced": report.produced, "journal_s": timed.seconds,
            "checkpoints": checkpoints,
        }
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def _lane(model_dir: Path, duration_s: float) -> dict:
    """Min-of-rounds journal and checkpoint milliseconds for one trace length."""
    runs = [_run_durable(model_dir, duration_s) for _ in range(N_ROUNDS)]
    return {
        "duration_s": duration_s, "produced": runs[0]["produced"],
        "journal_ms": min(r["journal_s"] for r in runs) * 1e3,
        "checkpoints": len(runs[0]["checkpoints"]),
        "checkpoints_ms": min(sum(r["checkpoints"]) for r in runs) * 1e3,
    }


def test_wal_overhead(benchmark, tmp_path):
    model_dir = tmp_path / "model"
    _train_model(model_dir)
    _run_durable(model_dir, DURATION_S)  # warm: imports, trace generation

    short = _lane(model_dir, DURATION_S)
    long = _lane(model_dir, DURATION_S * 3)
    us_per_msg = (
        (long["journal_ms"] - short["journal_ms"]) * 1e3
        / (long["produced"] - short["produced"])
    )
    ms_per_checkpoint = (
        (short["checkpoints_ms"] + long["checkpoints_ms"])
        / (short["checkpoints"] + long["checkpoints"])
    )

    benchmark.pedantic(
        lambda: _run_durable(model_dir, DURATION_S), rounds=1, iterations=1
    )
    benchmark.extra_info["journal_us_per_msg"] = round(us_per_msg, 3)
    benchmark.extra_info["ms_per_checkpoint"] = round(ms_per_checkpoint, 3)

    emit(
        f"WAL cost — {RATE:.0f} msg/s, --fsync batch, min of {N_ROUNDS} rounds",
        format_table(
            ["sim s", "messages", "journal ms", "checkpoints", "checkpoint ms"],
            [[f"{lane['duration_s']:.0f}", f"{lane['produced']:,}",
              f"{lane['journal_ms']:.2f}", str(lane["checkpoints"]),
              f"{lane['checkpoints_ms']:.1f}"] for lane in (short, long)],
        )
        + f"\njournal: {us_per_msg:.2f} µs per journaled message (slope)  "
        + f"budget: <{JOURNAL_BUDGET_US:.1f} µs  "
        + ("PASS" if us_per_msg < JOURNAL_BUDGET_US else "FAIL")
        + f"\ncheckpoint: {ms_per_checkpoint:.2f} ms each (not bounded)",
    )

    _ARTIFACT["simulate"] = {
        "rate": RATE, "rounds": N_ROUNDS, "short": short, "long": long,
        "journal_us_per_msg": us_per_msg, "budget_us_per_msg": JOURNAL_BUDGET_US,
        "ms_per_checkpoint": ms_per_checkpoint,
    }
    write_artifact("wal_overhead", _ARTIFACT)

    assert us_per_msg < JOURNAL_BUDGET_US, (
        f"journal costs {us_per_msg:.2f} µs per journaled message, over the "
        f"{JOURNAL_BUDGET_US:.1f} µs budget"
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


#: lines a journal record moves in the paced phase and in a burst
REPLAY_FLUSH_PACED, REPLAY_FLUSH_BURST = 3, 500


def _hot_wal(directory: Path, bursts: int) -> int:
    """Journal the spine's ``hot_templates`` lines like the live listener
    does — every identity synthetic, bodies in the accept record — the
    paced phase then ``bursts`` bursts; returns the lines journaled."""
    inputs = spine_workloads.build("hot_templates", BENCH_SEED, spine_workloads.REFERENCE_SECONDS)
    phases = [(inputs.paced, REPLAY_FLUSH_PACED)]
    phases += [(burst, REPLAY_FLUSH_BURST) for burst in inputs.bursts[:bursts]]
    wal = WriteAheadLog(directory, fsync="off", registry=MetricsRegistry())
    journal = StreamJournal(wal)
    lines = 0
    for phase, flush in phases:
        messages = [safe_parse_line(line)[0] for line in phase.lines]
        for i in range(0, len(messages), flush):
            batch = messages[i:i + flush]
            journal.accept_many([None] * len(batch), batch)
            journal.flushed(len(batch))
        lines += len(messages)
    wal.close()
    return lines


def _reference_recover(directory: Path) -> JournalState:
    """``recover_state`` as it was, on a log with no checkpoint: the
    list, then every record applied."""
    state = JournalState()
    for record in reference_wal.reference_replay_wal(directory)[0]:
        state.apply(record)
    return state


def _replay_ops(directory: Path, registry) -> dict:
    """label → (list-building reference, streaming change) thunks."""

    def drain(records):
        for _record in records:
            pass

    return {
        "open": (
            lambda: reference_wal._scan(directory, repair=True),
            lambda: WriteAheadLog(directory, fsync="off", registry=registry).close(),
        ),
        "replay_wal": (
            lambda: drain(reference_wal.reference_replay_wal(directory)[0]),
            lambda: drain(replay_wal(directory)[0]),
        ),
        "recover_state": (
            lambda: _reference_recover(directory),
            lambda: recover_state(directory),
        ),
    }


def _timed_pair(reference, change) -> tuple[float, float]:
    """Min-of-rounds seconds of each, the two alternating round by round."""
    best = [float("inf"), float("inf")]
    for _ in range(N_ROUNDS):
        for k, fn in enumerate((reference, change)):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best[0], best[1]


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def test_replay_cost(benchmark):
    registry = MetricsRegistry()
    lane: dict = {}
    rows = []
    root = Path(tempfile.mkdtemp(prefix="bench-wal-replay-"))
    try:
        for history, bursts in (("1x", 0), ("2x", 1), ("4x", 3)):
            directory = root / history
            lines = _hot_wal(directory, bursts)
            records = len(replay_wal(directory)[0])
            assert records == len(reference_wal.reference_replay_wal(directory)[0])
            assert recover_state(directory).state.to_payload() == (
                _reference_recover(directory).to_payload()
            )
            lane[history] = {"lines": lines, "records": records}
            for label, (reference, change) in _replay_ops(directory, registry).items():
                reference_s, change_s = _timed_pair(reference, change)
                row = lane[history][label] = {
                    "reference_us_per_record": reference_s / records * 1e6,
                    "us_per_record": change_s / records * 1e6,
                    "reference_peak_mib": _peak_mib(reference),
                    "peak_mib": _peak_mib(change),
                }
                rows.append([
                    history, f"{lines:,}", f"{records:,}", label,
                    f"{row['reference_us_per_record']:.2f}", f"{row['us_per_record']:.2f}",
                    f"{row['reference_peak_mib']:.1f}", f"{row['peak_mib']:.1f}",
                ])
        benchmark.pedantic(
            lambda: recover_state(root / "1x"), rounds=1, iterations=1
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    table = format_table(
        ["history", "lines", "records", "read", "list µs/rec", "µs/rec",
         "list peak MiB", "peak MiB"],
        rows,
    )
    emit(f"Reading the WAL back — hot-shaped history, min of {N_ROUNDS}", table)
    _ARTIFACT["replay"] = lane
    write_artifact("wal_overhead", _ARTIFACT)
    # what a streaming read holds does not grow with the history
    for label in ("open", "replay_wal"):
        assert lane["4x"][label]["peak_mib"] <= 1.25 * lane["2x"][label]["peak_mib"], table
