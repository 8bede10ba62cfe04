"""INGEST — listener throughput over real loopback sockets, the
broker hop's rate, and what a poll costs a consumer that has caught up.

Three questions, three lanes:

1. **Accepted messages/second** through the asyncio listener, measured
   separately over UDP datagrams and a newline-framed TCP stream on
   loopback, parsing every line through the RFC 3164/5424 grammar.
   The design floor is ≥ 50k accepted msgs/s on at least one
   transport — the rate a mid-size cluster's syslog fan-in actually
   produces (the paper's test-bed peaks far below this).

2. **Broker rate**: an in-memory message stream through
   ``LogBroker.publish`` → ``poll`` → commit (``broker_msgs_per_s``).
   The lane once set it beside a direct push into the forwarder to ask
   whether the hop was cheap enough to be the only path; that question
   is closed — the push path is gone and the broker is the only intake
   — so the row stays as the hop's own ledger entry, with no ceiling.

3. **Trickle**: the regime the test-bed actually lives in (a dozen
   lines a second, one consumer polling every millisecond).  A
   caught-up consumer over ``TRICKLE_HOSTS`` host partitions, with
   0 / 250 / 1,000 / 4,000 records already consumed on each: µs per
   *empty* poll and per 3-record poll plus its commits, under a live
   registry so the lag gauges are computed.  A poll must cost what it
   returns, so the empty poll has to stay flat as history grows; lane 2
   publishes everything and drains in 4,096-record polls and cannot
   see this.

4. **The front door** (``test_front_door_lane`` →
   ``BENCH_front_door.json``): µs per received line of the three
   things a line meets at the door — the fair-share quota's ``allow``
   (deals included: the spine's quota probe asks a freshly dealt quota
   and never sees one), the dead-letter ``push`` and ``safe_parse_line``
   — over the spine benchmark's ``flood_reject`` lines, each beside the
   code it replaced (``tests/reference_door.py``), plus the whole
   ``_handle_line`` assembled both ways, a 4,096-tenant churn row (one
   spoofed hostname per line: every line evicts) and a scarce-pool row
   (the same tenants asking a quota that refills one token per four
   lines — ``listen --rate-limit`` with senders at four times the limit,
   where every admitted line is a deal of one quantum).  A ledger row,
   not a gate: no floor is asserted on wall-clock, only that both sides
   decide, count and capture the same.

5. **The poll floors** (``TestBrokerPollFloors`` →
   ``BENCH_broker_poll_floors.json``): the two wall-clock ratios tier-1
   gated on before it counted partitions and records visited instead —
   an empty poll over 2,000 against 20 records a partition, and a
   3-record poll plus commits over 1,000 against 50 partitions (≤ 3×
   each).

6. **The hand-off** (``test_handoff_lane``): µs and collector-tracked
   objects per line for the record hand-off between the listener and
   the store — a chunk's messages through ``LogBroker.publish_many``,
   ``FluentdForwarder.poll_broker`` journaling them with one
   ``StreamJournal.accept_many`` on an ``fsync="off"`` WAL, and a
   ``flush`` (``StreamJournal.flushed`` and one ``commit_many``) every
   ``HANDOFF_FLUSH`` lines, into a sink that keeps nothing.  The
   messages exist before the count, so the objects column is what the
   hand-off itself leaves a line for the collector to re-walk: nothing
   now that the broker and the journal keep columns, where it used to
   leave a ``BrokerRecord`` and an ``(event, message)`` pair.

Lanes 1–3 and 6 land in ``BENCH_ingest_broker.json``.

Environment knobs: ``REPRO_BENCH_INGEST_MESSAGES`` (lines per lane,
default 60000), ``REPRO_BENCH_INGEST_ROUNDS`` (default 3).
"""

from __future__ import annotations

import asyncio
import gc
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.message import SyslogMessage
from repro.datagen.sender import send_tcp, send_udp, wire_lines
from repro.datagen.workload import standard_simulation_events
from repro.durability import StreamJournal, WriteAheadLog
from repro.experiments.common import format_table
from repro.faults.dlq import DeadLetterQueue, entry_to_dict
from repro.ingest import DeficitRoundRobin, LogBroker, SyslogListener
from repro.ingest import listener as listener_mod
from repro.ingest.listener import SITE_INGEST_PARSE
from repro.obs import MetricsRegistry, use_registry
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder, settle
from repro.stream.rfc import safe_parse_line

from conftest import BENCH_SEED, emit, write_artifact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "spine"))

import workloads as spine_workloads  # noqa: E402
from spine import QUOTA_BURST, QUOTA_RATE  # noqa: E402
from reference_door import (  # noqa: E402
    ReferenceDeadLetterQueue,
    ReferenceQuota,
    reference_safe_parse_line,
)

N_MESSAGES = int(os.environ.get("REPRO_BENCH_INGEST_MESSAGES", "60000"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_INGEST_ROUNDS", "3"))
RATE_FLOOR = 50_000.0
DOOR_ROUNDS = 3
#: the spine's quota (its ``max_tenants`` is a literal there, repeated here)
DOOR_QUOTA = {"rate": QUOTA_RATE, "burst": QUOTA_BURST, "max_tenants": 4096}
CHURN_LINES = 300
#: the throttled door: lines asked of a quota that accrues one token per
#: ``SCARCE_LINES_PER_TOKEN`` of them, so it has one quantum to deal at a time
SCARCE_LINES = 20_000
SCARCE_LINES_PER_TOKEN = 4
TRICKLE_HOSTS = 200
TRICKLE_DEPTHS = (0, 250, 1_000, 4_000)
#: the hand-off lane: lines a chunk (a 16 KiB TCP read of ~130-byte
#: lines) and lines a flush (the forwarder's batch)
HANDOFF_CHUNK = 120
HANDOFF_FLUSH = 500

#: both tests add their section and rewrite the one artifact, so either
#: can run alone
_ARTIFACT: dict = {}


def _lines() -> list[bytes]:
    events = standard_simulation_events(
        duration_s=120, background_rate=60, seed=BENCH_SEED, incident=True
    )
    messages = [e.message for e in events]
    out = wire_lines(messages)
    while len(out) < N_MESSAGES:
        out = out + out
    return out[:N_MESSAGES]


def _listener_rate(lines: list[bytes], *, proto: str) -> float:
    """Accepted msgs/s for one transport; sender runs in a thread."""

    async def scenario() -> float:
        listener = SyslogListener(
            None,
            udp_port=0 if proto == "udp" else None,
            tcp_port=0 if proto == "tcp" else None,
        )
        await listener.start()
        address = listener.udp_address if proto == "udp" else listener.tcp_address
        send = send_udp if proto == "udp" else send_tcp
        start = time.perf_counter()
        sender = threading.Thread(target=send, args=(address, lines))
        sender.start()
        # UDP is lossy by design: stop when the stream goes quiet, not
        # at an exact count the kernel may have dropped below
        last, quiet = -1, 0
        while quiet < 20 and listener.stats.received < len(lines):
            await asyncio.sleep(0.01)
            now = listener.stats.received
            quiet = quiet + 1 if now == last else 0
            last = now
        elapsed = time.perf_counter() - start
        sender.join()
        await listener.stop()
        assert listener.stats.accounted()
        return listener.stats.accepted / elapsed

    return asyncio.run(scenario())


def _broker_rate(messages) -> float:
    broker = LogBroker()
    broker.subscribe("bench")
    start = time.perf_counter()
    for m in messages:
        broker.publish(m)
    n = 0
    while n < len(messages):
        records = broker.poll("bench", max_records=4096)
        if not records:
            break
        n += len(records)
        high: dict[str, int] = {}
        for partition, offset in zip(records.partitions, records.offsets):
            high[partition] = offset + 1
        for partition, next_offset in high.items():
            broker.commit("bench", partition, next_offset)
    elapsed = time.perf_counter() - start
    assert n == len(messages)
    assert broker.lag("bench") == 0
    return len(messages) / elapsed


def _trickle_costs(message, depth: int, *, reps: int = 2000) -> dict:
    """µs per empty poll and per 3-record poll+commit, caught up at ``depth``."""
    broker = LogBroker(registry=MetricsRegistry())
    hosts = [f"cn{i:04d}" for i in range(TRICKLE_HOSTS)]
    for _ in range(depth):
        for host in hosts:
            broker.publish(message, key=host)
    while records := broker.poll("bench", max_records=4096):
        for partition, offset in zip(records.partitions, records.offsets):
            broker.commit("bench", partition, offset + 1)
    assert broker.lag("bench") == 0

    # a full collection over the retained records (800k at the deepest
    # point) costs tens of ms whoever triggers it: heap size, not broker
    # work, so the timed loops run with the collector paused
    gc.collect()
    gc.disable()
    try:
        empty_s = float("inf")
        for _ in range(N_ROUNDS):
            start = time.perf_counter()
            for _ in range(reps):
                broker.poll("bench")
            empty_s = min(empty_s, time.perf_counter() - start)

        busy_s = 0.0
        for i in range(reps):
            for k in range(3):
                broker.publish(message, key=hosts[(7 * i + k) % TRICKLE_HOSTS])
            start = time.perf_counter()
            records = broker.poll("bench")
            for partition, offset in zip(records.partitions, records.offsets):
                broker.commit("bench", partition, offset + 1)
            busy_s += time.perf_counter() - start
            assert len(records) == 3
    finally:
        gc.enable()
    return {
        "depth": depth,
        "empty_poll_us": 1e6 * empty_s / reps,
        "poll3_commit_us": 1e6 * busy_s / reps,
    }


def test_trickle_poll_cost_is_flat():
    message = standard_simulation_events(
        duration_s=1, background_rate=5, seed=BENCH_SEED
    )[0].message
    rows = [_trickle_costs(message, depth) for depth in TRICKLE_DEPTHS]
    emit(
        f"Trickle: caught-up consumer over {TRICKLE_HOSTS} host partitions",
        format_table(
            ["records/partition", "µs per empty poll", "µs per 3-record poll+commit"],
            [[f"{r['depth']:,}", f"{r['empty_poll_us']:.1f}",
              f"{r['poll3_commit_us']:.1f}"] for r in rows],
        ),
    )
    _ARTIFACT["trickle"] = {"hosts": TRICKLE_HOSTS, "rows": rows}
    write_artifact("ingest_broker", _ARTIFACT)
    # depth 0 has no partition at all; flatness is judged where there
    # is history to (not) walk
    shallow, deep = rows[1], rows[-1]
    for column in ("empty_poll_us", "poll3_commit_us"):
        assert deep[column] <= 2.0 * shallow[column], (column, rows)
    assert rows[0]["empty_poll_us"] <= 2.0 * shallow["empty_poll_us"], rows


def test_ingest_broker_throughput():
    with use_registry(MetricsRegistry()):
        lines = _lines()
        events = standard_simulation_events(
            duration_s=120, background_rate=60, seed=BENCH_SEED, incident=True
        )
        messages = [e.message for e in events]

        udp_rate = max(_listener_rate(lines, proto="udp") for _ in range(N_ROUNDS))
        tcp_rate = max(_listener_rate(lines, proto="tcp") for _ in range(N_ROUNDS))
        brokered = max(_broker_rate(messages) for _ in range(N_ROUNDS))

        rows = [
            ["listener UDP (loopback)", f"{udp_rate:,.0f}", f"≥ {RATE_FLOOR:,.0f}"],
            ["listener TCP (loopback)", f"{tcp_rate:,.0f}", f"≥ {RATE_FLOOR:,.0f}"],
            ["broker publish→poll→commit", f"{brokered:,.0f}", "—"],
        ]
        emit(
            "Ingest throughput: listener and broker",
            format_table(["lane", "accepted msgs/s", "budget"], rows),
        )
        _ARTIFACT["throughput"] = {
            "messages": N_MESSAGES,
            "listener_udp_msgs_per_s": udp_rate,
            "listener_tcp_msgs_per_s": tcp_rate,
            "broker_msgs_per_s": brokered,
        }
        write_artifact("ingest_broker", _ARTIFACT)
        assert max(udp_rate, tcp_rate) >= RATE_FLOOR, (
            f"listener below the {RATE_FLOOR:,.0f} msgs/s floor: "
            f"udp={udp_rate:,.0f} tcp={tcp_rate:,.0f}"
        )


def _handoff(messages, *, count_objects: bool) -> tuple[float, float]:
    """(seconds, tracked objects left a line) for ``messages`` handed off
    a chunk at a time; objects are counted only when asked (a census
    walks the heap, which the clock must not see)."""
    registry = MetricsRegistry()
    with use_registry(registry), tempfile.TemporaryDirectory() as wal_dir:
        broker = LogBroker(registry=registry)
        wal = WriteAheadLog(wal_dir, fsync="off", registry=registry)
        fwd = FluentdForwarder(
            engine=EventEngine(), sink=lambda batch: True, broker=broker,
            journal=StreamJournal(wal), batch_size=HANDOFF_FLUSH,
        )
        warm = messages[:HANDOFF_FLUSH]
        broker.publish_many(warm)
        settle([fwd])
        gc.collect()
        before = len(gc.get_objects()) if count_objects else 0
        start = time.perf_counter()
        for i in range(HANDOFF_FLUSH, len(messages), HANDOFF_CHUNK):
            broker.publish_many(messages[i:i + HANDOFF_CHUNK])
            fwd.poll_broker()
            if fwd.buffered >= HANDOFF_FLUSH:
                fwd.flush()
        settle([fwd])
        elapsed = time.perf_counter() - start
        n = len(messages) - len(warm)
        objects = 0.0
        if count_objects:
            gc.collect()
            objects = (len(gc.get_objects()) - before) / n
        wal.close()
    assert fwd.stats.flushed_messages == len(messages)
    return elapsed, objects


def test_handoff_lane():
    events = standard_simulation_events(
        duration_s=120, background_rate=60, seed=BENCH_SEED, incident=True
    )
    messages = [e.message for e in events]
    while len(messages) < N_MESSAGES:
        messages = messages + messages
    messages = messages[:N_MESSAGES]
    seconds = min(_handoff(messages, count_objects=False)[0] for _ in range(N_ROUNDS))
    _, objects = _handoff(messages, count_objects=True)
    n = len(messages) - HANDOFF_FLUSH
    row = {
        "lines": n, "chunk_lines": HANDOFF_CHUNK, "flush_lines": HANDOFF_FLUSH,
        "us_per_line": 1e6 * seconds / n, "tracked_objects_per_line": objects,
    }
    emit(
        "Hand-off: chunk → publish_many → poll → accept_many → flushed",
        format_table(
            ["lines", "lines a chunk", "lines a flush", "µs a line", "tracked objects a line"],
            [[f"{n:,}", HANDOFF_CHUNK, HANDOFF_FLUSH, f"{row['us_per_line']:.2f}",
              f"{objects:.2f}"]],
        ),
    )
    _ARTIFACT["handoff"] = row
    write_artifact("ingest_broker", _ARTIFACT)


# -- lane 4: the front door ------------------------------------------------------


def _best_us(step, per: int, rounds: int = DOOR_ROUNDS) -> float:
    """µs of ``step()`` divided over ``per`` lines, best round."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        t0 = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6 / max(1, per)


def _door(lines, quota_cls, dlq_cls):
    registry = MetricsRegistry()
    listener = SyslogListener(
        LogBroker(registry=registry), udp_port=None, tcp_port=None,
        tenant_quota=quota_cls(**DOOR_QUOTA),
        max_line_bytes=spine_workloads.FLOOD_MAX_LINE_BYTES,
        dead_letters=dlq_cls(
            max_entries=spine_workloads.FLOOD_DLQ_ENTRIES, registry=registry
        ),
        registry=registry,
    )
    for line in lines:
        listener._handle_line(line, udp=False)
    return listener, registry


def _door_outcome(listener, registry):
    dlq = listener.dead_letters
    return (
        vars(listener.stats), [entry_to_dict(e) for e in dlq], dlq.n_evicted,
        listener.quota.snapshot(), list(listener.quota._ring), registry.to_prometheus(),
    )


def _churn(quota_cls) -> float:
    """µs per line once every line brings a tenant never seen before."""
    n = DOOR_QUOTA["max_tenants"]
    best = float("inf")
    for _ in range(DOOR_ROUNDS):
        quota = quota_cls(**DOOR_QUOTA)
        for i in range(n):
            quota.allow(f"spoof{i}/app")
        fresh = [f"fresh{i}/app" for i in range(CHURN_LINES)]
        t0 = time.perf_counter()
        for tenant in fresh:
            quota.allow(tenant)
        best = min(best, time.perf_counter() - t0)
        assert len(quota) == n
    return best * 1e6 / CHURN_LINES


class _TickClock:
    """A clock that advances ``step`` seconds per reading."""

    def __init__(self, step: float) -> None:
        self.now, self.step = 0.0, step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _scarce(quota_cls, tenants):
    """The quota behind a throttled door: a token accrues every few
    lines asked, so a deal finds one quantum in the pool and grants once.
    Returns the decisions and the quota."""
    quota = quota_cls(
        1.0, DOOR_QUOTA["burst"], max_tenants=DOOR_QUOTA["max_tenants"],
        clock=_TickClock(1.0 / SCARCE_LINES_PER_TOKEN),
    )
    for tenant in dict.fromkeys(tenants):  # the first seen takes the one-time burst
        quota.allow(tenant)
    return [quota.allow(tenant) for tenant in tenants[:SCARCE_LINES]], quota


def test_front_door_lane():
    """Quota, capture and parse per received ``flood_reject`` line,
    beside the code each replaced."""
    inputs = spine_workloads.build(
        "flood_reject", BENCH_SEED, spine_workloads.REFERENCE_SECONDS
    )
    lines = [line for phase in (inputs.paced, *inputs.bursts) for line in phase.lines]
    cap = spine_workloads.FLOOD_MAX_LINE_BYTES
    n = len(lines)

    parsed = [safe_parse_line(line, max_bytes=cap) for line in lines]
    assert parsed == [reference_safe_parse_line(line, max_bytes=cap) for line in lines]
    tenants = [f"{m.hostname}/{m.app}" for m, _error in parsed if m is not None]
    refused = [
        (raw[:256].decode("utf-8", errors="replace"), error)
        for raw, (m, error) in zip(lines, parsed) if m is None
    ]
    oversize = sum(1 for _payload, error in refused if error.startswith("oversize"))

    def allows(quota_cls):
        quota = quota_cls(**DOOR_QUOTA)
        return [quota.allow(tenant) for tenant in tenants]

    def pushes(dlq_cls):
        dlq = dlq_cls(
            max_entries=spine_workloads.FLOOD_DLQ_ENTRIES, registry=MetricsRegistry()
        )
        for payload, error in refused:
            dlq.push(SITE_INGEST_PARSE, payload, error, transport="tcp")
        return dlq

    assert allows(DeficitRoundRobin) == allows(ReferenceQuota)
    scarce_new, scarce_old = _scarce(DeficitRoundRobin, tenants), _scarce(ReferenceQuota, tenants)
    assert scarce_new[0] == scarce_old[0] and True in scarce_new[0] and False in scarce_new[0]
    assert scarce_new[1].snapshot() == scarce_old[1].snapshot()
    assert list(scarce_new[1]._ring) == list(scarce_old[1]._ring)
    new_door = _door(lines, DeficitRoundRobin, DeadLetterQueue)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(listener_mod, "safe_parse_line", reference_safe_parse_line)
        old_door = _door(lines, ReferenceQuota, ReferenceDeadLetterQueue)
        door_reference = _best_us(
            lambda: _door(lines, ReferenceQuota, ReferenceDeadLetterQueue), n
        )
    assert _door_outcome(*new_door) == _door_outcome(*old_door)
    assert new_door[0].stats.accounted()

    legs = {
        "quota": _best_us(lambda: allows(DeficitRoundRobin), n),
        "quota_reference": _best_us(lambda: allows(ReferenceQuota), n),
        "capture": _best_us(lambda: pushes(DeadLetterQueue), n),
        "capture_reference": _best_us(lambda: pushes(ReferenceDeadLetterQueue), n),
        "parse": _best_us(lambda: [safe_parse_line(x, max_bytes=cap) for x in lines], n),
        "parse_reference": _best_us(
            lambda: [reference_safe_parse_line(x, max_bytes=cap) for x in lines], n
        ),
        "door": _best_us(lambda: _door(lines, DeficitRoundRobin, DeadLetterQueue), n),
        "door_reference": door_reference,
    }
    churn = {"churn": _churn(DeficitRoundRobin), "churn_reference": _churn(ReferenceQuota)}
    asked = min(SCARCE_LINES, len(tenants))
    scarce = {
        "scarce": _best_us(lambda: _scarce(DeficitRoundRobin, tenants), asked),
        "scarce_reference": _best_us(lambda: _scarce(ReferenceQuota, tenants), asked),
    }
    rows = [
        [leg, f"{legs[leg]:.2f}", f"{legs[leg + '_reference']:.2f}", per]
        for leg, per in (
            ("quota", f"{len(tenants):,} parsed lines ask"),
            ("capture", f"{len(refused):,} refused lines are pushed"),
            ("parse", f"{n - oversize:,} lines reach the grammar"),
            ("door", "_handle_line: the three, publish and the counters"),
        )
    ]
    rows.append([
        f"churn at {DOOR_QUOTA['max_tenants']:,} tenants", f"{churn['churn']:.2f}",
        f"{churn['churn_reference']:.2f}", "µs per line, every line a fresh tenant",
    ])
    rows.append([
        "quota, scarce pool", f"{scarce['scarce']:.2f}", f"{scarce['scarce_reference']:.2f}",
        f"µs per line asked, a token per {SCARCE_LINES_PER_TOKEN} lines "
        f"({sum(scarce_new[0]):,} of {asked:,} admitted)",
    ])
    emit(
        f"Front door: µs per received flood_reject line ({n:,} lines)",
        format_table(["leg", "now", "replaced code", "of which"], rows),
    )
    write_artifact("front_door", {
        "lines": n, "parsed": len(tenants), "refused": len(refused),
        "rounds": DOOR_ROUNDS, "us_per_received_line": legs,
        "us_per_admitted_line": {
            k: legs[k] * n / max(1, len(tenants)) for k in ("quota", "quota_reference")
        },
        "us_per_push": {
            k: legs[k] * n / max(1, len(refused)) for k in ("capture", "capture_reference")
        },
        "churn_us_per_line": churn, "churn_tenants": DOOR_QUOTA["max_tenants"],
        "scarce_us_per_line_asked": scarce, "scarce_lines": asked,
        "scarce_lines_per_token": SCARCE_LINES_PER_TOKEN,
        "scarce_admitted": sum(scarce_new[0]),
    })


# -- lane 5: the poll floors, as wall-clock ratios ----------------------------------

#: ratio per test, rewritten to ``BENCH_broker_poll_floors.json`` after each
_RATIOS: list[float] = []
_POLL_FLOOR_ROWS: dict[str, float] = {}


def _best_ratio(numerator, denominator, rounds: int = 9) -> float:
    """``numerator()`` over ``denominator()`` (seconds each): alternating
    rounds, best round of each side; recorded for the ledger row."""
    passes = [(numerator(), denominator()) for _ in range(rounds)]
    _RATIOS.append(min(p[0] for p in passes) / min(p[1] for p in passes))
    return _RATIOS[-1]


def _caught_up_broker(n_partitions: int, depth: int):
    """A broker (live registry, so the lag gauges are computed) whose
    one consumer has polled and committed ``depth`` records on each of
    ``n_partitions`` host partitions."""
    broker = LogBroker(registry=MetricsRegistry())
    hosts = [f"cn{i:04d}" for i in range(n_partitions)]
    msg = SyslogMessage(timestamp=0.0, hostname="cn", app="kernel", text="link up")
    for _ in range(depth):
        for host in hosts:
            broker.publish(msg, key=host)
    while records := broker.poll("g", max_records=4096):
        for rec in records:
            broker.commit("g", rec.partition, rec.offset + 1)
    assert broker.lag("g") == 0
    return broker, hosts, msg


def _poll_cost_ratio(big, small, cycle, rounds: int = 7, reps: int = 200) -> float:
    """Cost of ``cycle`` on the ``big`` broker over the ``small`` one:
    alternating rounds, best round of each side."""

    def one_round(setup) -> float:
        total = 0.0
        for i in range(reps):
            total += cycle(*setup, i)
        return total

    return _best_ratio(lambda: one_round(big), lambda: one_round(small), rounds)


class TestBrokerPollFloors:
    """A poll costs what it returns — not what the partitions retain,
    and not how many of them there are.  Ratios only: the tier-1 gates
    these were are counted now (``tests/test_perf_smoke.py::
    TestBrokerPollFloors``, partitions and records a poll visits); each
    ratio is written to ``BENCH_broker_poll_floors.json`` whether or not
    its bound held."""

    @pytest.fixture(autouse=True)
    def _ledger_row(self, request):
        _RATIOS.clear()
        yield
        if _RATIOS:
            _POLL_FLOOR_ROWS[request.node.name] = _RATIOS[-1]
            write_artifact("broker_poll_floors", {"ratios": _POLL_FLOOR_ROWS})

    def test_empty_poll_is_blind_to_retained_history(self):
        def empty_poll(broker, _hosts, _msg, _i) -> float:
            t0 = time.perf_counter()
            assert len(broker.poll("g")) == 0
            return time.perf_counter() - t0

        ratio = _poll_cost_ratio(
            _caught_up_broker(200, 2_000), _caught_up_broker(200, 20), empty_poll
        )
        assert ratio <= 3.0, f"an empty poll over deep partitions costs {ratio:.1f}x"

    def test_small_poll_is_blind_to_partition_count(self):
        def three_record_poll(broker, hosts, msg, i) -> float:
            for k in range(3):
                broker.publish(msg, key=hosts[(7 * i + k) % len(hosts)])
            t0 = time.perf_counter()
            records = broker.poll("g")
            for rec in records:
                broker.commit("g", rec.partition, rec.offset + 1)
            dt = time.perf_counter() - t0
            assert len(records) == 3
            return dt

        ratio = _poll_cost_ratio(
            _caught_up_broker(1_000, 5), _caught_up_broker(50, 5), three_record_poll
        )
        assert ratio <= 3.0, f"a 3-record poll over 1,000 partitions costs {ratio:.1f}x"


if __name__ == "__main__":
    test_trickle_poll_cost_is_flat()
    test_ingest_broker_throughput()
    test_handoff_lane()
    test_front_door_lane()
