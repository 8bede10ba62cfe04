"""INGEST — listener throughput over real loopback sockets, the
broker's overhead versus direct forwarding, and what a poll costs a
consumer that has caught up.

Three questions, three lanes:

1. **Accepted messages/second** through the asyncio listener, measured
   separately over UDP datagrams and a newline-framed TCP stream on
   loopback, parsing every line through the RFC 3164/5424 grammar.
   The design floor is ≥ 50k accepted msgs/s on at least one
   transport — the rate a mid-size cluster's syslog fan-in actually
   produces (the paper's test-bed peaks far below this).

2. **Broker overhead ceiling**: the same in-memory message stream
   pushed (a) straight into a :class:`FluentdForwarder` and (b)
   through ``LogBroker.publish`` → ``poll`` → commit.  The broker hop
   buys partition ordering, consumer groups and offset-based recovery;
   this measures what it costs per message and asserts the overhead
   stays under ``OVERHEAD_CEILING`` (default 6×) of the direct path —
   a ceiling, not a target, since the direct path does almost nothing.

3. **Trickle**: the regime the test-bed actually lives in (a dozen
   lines a second, one consumer polling every millisecond).  A
   caught-up consumer over ``TRICKLE_HOSTS`` host partitions, with
   0 / 250 / 1,000 / 4,000 records already consumed on each: µs per
   *empty* poll and per 3-record poll plus its commits, under a live
   registry so the lag gauges are computed.  A poll must cost what it
   returns, so the empty poll has to stay flat as history grows; lane 2
   publishes everything and drains in 4,096-record polls and cannot
   see this.

All three land in ``BENCH_ingest_broker.json``.

Environment knobs: ``REPRO_BENCH_INGEST_MESSAGES`` (lines per lane,
default 60000), ``REPRO_BENCH_INGEST_ROUNDS`` (default 3),
``REPRO_BENCH_INGEST_OVERHEAD_CEILING`` (default 6.0).
"""

from __future__ import annotations

import asyncio
import gc
import os
import threading
import time

from repro.datagen.sender import send_tcp, send_udp, wire_lines
from repro.datagen.workload import standard_simulation_events
from repro.experiments.common import format_table
from repro.ingest import LogBroker, SyslogListener
from repro.obs import MetricsRegistry, use_registry
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder

from conftest import BENCH_SEED, emit, write_artifact

N_MESSAGES = int(os.environ.get("REPRO_BENCH_INGEST_MESSAGES", "60000"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_INGEST_ROUNDS", "3"))
OVERHEAD_CEILING = float(
    os.environ.get("REPRO_BENCH_INGEST_OVERHEAD_CEILING", "6.0")
)
RATE_FLOOR = 50_000.0
TRICKLE_HOSTS = 200
TRICKLE_DEPTHS = (0, 250, 1_000, 4_000)

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


def _direct_rate(messages) -> float:
    engine = EventEngine()
    fwd = FluentdForwarder(
        engine=engine, sink=lambda batch: True,
        batch_size=1000, buffer_limit=len(messages) + 1,
    )
    start = time.perf_counter()
    for m in messages:
        fwd.offer(m)
    fwd.drain()
    return len(messages) / (time.perf_counter() - start)


def _broker_rate(messages) -> float:
    broker = LogBroker()
    broker.subscribe("bench", "b0")
    start = time.perf_counter()
    for m in messages:
        broker.publish(m)
    n = 0
    while n < len(messages):
        records = broker.poll("bench", "b0", max_records=4096)
        if not records:
            break
        n += len(records)
        high: dict[str, int] = {}
        for r in records:
            high[r.partition] = r.offset + 1
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
        for r in records:
            broker.commit("bench", r.partition, r.offset + 1)
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
            for r in records:
                broker.commit("bench", r.partition, r.offset + 1)
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
        direct = max(_direct_rate(messages) for _ in range(N_ROUNDS))
        brokered = max(_broker_rate(messages) for _ in range(N_ROUNDS))
        overhead = direct / brokered

        rows = [
            ["listener UDP (loopback)", f"{udp_rate:,.0f}", f"≥ {RATE_FLOOR:,.0f}"],
            ["listener TCP (loopback)", f"{tcp_rate:,.0f}", f"≥ {RATE_FLOOR:,.0f}"],
            ["direct forwarder (in-proc)", f"{direct:,.0f}", "—"],
            ["broker publish→poll→commit", f"{brokered:,.0f}",
             f"≤ {OVERHEAD_CEILING:.1f}× slower"],
        ]
        emit(
            "Ingest throughput: listener and broker-vs-direct",
            format_table(["lane", "accepted msgs/s", "budget"], rows)
            + f"\nbroker overhead: {overhead:.2f}× the direct path "
            f"(ceiling {OVERHEAD_CEILING:.1f}×)\n",
        )
        _ARTIFACT["throughput"] = {
            "messages": N_MESSAGES,
            "listener_udp_msgs_per_s": udp_rate,
            "listener_tcp_msgs_per_s": tcp_rate,
            "direct_msgs_per_s": direct,
            "broker_msgs_per_s": brokered,
            "broker_over_direct": overhead,
        }
        write_artifact("ingest_broker", _ARTIFACT)
        assert max(udp_rate, tcp_rate) >= RATE_FLOOR, (
            f"listener below the {RATE_FLOOR:,.0f} msgs/s floor: "
            f"udp={udp_rate:,.0f} tcp={tcp_rate:,.0f}"
        )
        assert overhead <= OVERHEAD_CEILING, (
            f"broker path is {overhead:.2f}× the direct path "
            f"(ceiling {OVERHEAD_CEILING:.1f}×)"
        )


if __name__ == "__main__":
    test_trickle_poll_cost_is_flat()
    test_ingest_broker_throughput()
