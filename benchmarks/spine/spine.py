"""Assembly of the fixed spine and the child process that runs it.

Nothing here is logic of its own: ``build`` wires the public constructors the
way ``repro.cli._cmd_listen`` and ``TivanCluster(via_broker=True)`` do, and
``serve`` is ``_cmd_listen``'s consume loop made greedy.  The configuration is
the same for every workload; a workload only chooses what ``Options`` names.

    SyslogListener (TCP) -> LogBroker -> FluentdForwarder.poll_broker()/flush()
        -> sink: ReplicatedLogStore.bulk_index -> ClassificationPipeline.classify_batch
                 -> ReplicatedLogStore.set_category
    journaled through StreamJournal(WriteAheadLog)

The parent process is the load generator; it drives this one over a pipe:
``begin`` opens a phase, ``quiesce`` closes it once every line sent so far is
disposed, ``dashboard`` and ``oracle`` run at quiescence, ``stop`` ends it.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import re
import resource
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

import dashboard
import oracle
import spans
import workloads
from repro.core.pipeline import ClassificationPipeline
from repro.core.template_cache import TemplateCache
from repro.datagen import CorpusGenerator
from repro.durability import StreamJournal, WriteAheadLog
from repro.faults.dlq import DeadLetterQueue
from repro.ingest import DeficitRoundRobin, LogBroker, SyslogListener
from repro.ml.bayes import ComplementNB
from repro.obs import MetricsRegistry, TraceSampler, set_default_registry, wellknown
from repro.replication import ReplicatedLogStore
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder
from repro.stream.rfc import MAX_LINE_BYTES, safe_parse_line
from repro.textproc.tfidf import TfidfVectorizer

CONSUMER_GROUP = "fluentd"
#: builds timed per run; ``setup_s`` is the fastest
SETUP_REPEATS = 3
#: admission rate far above what one core can parse, so the quota never sheds
#: and the pool is full again before the next line; a refill deals the pool one
#: token per tenant visit, so the burst bounds the longest single stall
QUOTA_RATE, QUOTA_BURST = 1e8, 2e3
#: parsed lines the direct quota probe replays
QUOTA_PROBE_LINES = 512
IDLE_SLEEP_S = 0.001
#: how often the speed probe runs while a phase is open: rarely beside paced
#: traffic, where it would sit in the latency tail, often during a burst
SPEED_PROBE_EVERY_NS = {"paced": 200_000_000, "burst": 50_000_000}
#: what the speed probe reads on an undisturbed core of the reference sandbox;
#: it belongs to the kernel below and changes with it
NOMINAL_PROBE_NS = 1_200_000
_PROBE_TEXT = "CPU12 temperature above threshold, cpu clock throttled (total events = 4711) from 10.1.2.3 port 5022"
_PROBE_RE = re.compile(r"\b\d+(?:\.\d+)*\b")


def speed_probe() -> int:
    """CPU nanoseconds a fixed kernel of regex, string and dict work takes right now.

    The sandbox's host takes the core away for a third of the time or more,
    for seconds or minutes, without the guest's clocks noticing; the probe is
    how a run knows at which speed it measured (see ``metrics.speed_factor``).
    """
    t0 = time.process_time_ns()
    seen: dict[str, int] = {}
    for i in range(250):
        for token in _PROBE_RE.sub("<num>", _PROBE_TEXT).lower().split():
            seen[token] = seen.get(token, 0) + i
    return time.process_time_ns() - t0


@dataclass(frozen=True)
class Options:
    """What a workload may choose; everything else about the spine is fixed."""

    seed: int
    workdir: str
    traced: bool = False
    setup_repeats: int = SETUP_REPEATS
    quota: bool = False
    max_line_bytes: int | None = None
    dlq_entries: int | None = None
    preload_docs: int = 0
    paced_queries: int = 0
    trace_path: str | None = None


class Spine:
    """The assembled program plus the little the harness must remember."""

    def __init__(self, opts: Options, corpus, preload, wal_dir: Path, rec) -> None:
        self.rec = rec
        self.wal_dir = wal_dir
        self.registry = registry = MetricsRegistry()
        # the forwarder and the pipeline resolve the process registry themselves
        set_default_registry(registry)
        self.pipe = ClassificationPipeline(
            vectorizer=TfidfVectorizer(), classifier=ComplementNB(),
            template_cache=TemplateCache(4096),
        )
        self.pipe.fit(corpus.texts, corpus.labels)
        self.store = ReplicatedLogStore(n_nodes=3, n_replicas=2, registry=registry)
        self.broker = LogBroker(registry=registry)
        self.wal = WriteAheadLog(wal_dir, fsync="batch", registry=registry)
        broker, wal = self.broker, self.wal
        if rec.on:
            broker, wal = spans.TimedBroker(broker, rec), spans.TimedWal(wal, rec)
        self.timed_broker = broker
        self.journal = StreamJournal(wal)
        self.forwarder = FluentdForwarder(
            engine=EventEngine(), sink=self.sink, batch_size=500, buffer_limit=50_000,
            broker=broker, journal=spans.TimedJournal(self.journal, rec) if rec.on else self.journal,
            consumer_group=CONSUMER_GROUP, clock=time.time,
        )
        self.quota = DeficitRoundRobin(QUOTA_RATE, QUOTA_BURST, max_tenants=4096) if opts.quota else None
        self.listener = SyslogListener(
            broker, udp_port=None, tcp_port=0, tenant_quota=self.quota,
            max_line_bytes=opts.max_line_bytes or MAX_LINE_BYTES,
            dead_letters=DeadLetterQueue(max_entries=opts.dlq_entries, registry=registry),
            registry=registry,
            trace_sampler=TraceSampler(1 / 64, seed=opts.seed, registry=registry),
        )
        self.last_batch = ()
        self.oldest_ts = self.newest_ts = workloads.SIM_T0
        if preload:
            self.oldest_ts = preload[0].timestamp
            for i in range(0, len(preload), self.forwarder.batch_size):
                self.sink(preload[i:i + self.forwarder.batch_size])
        self.preloaded = len(self.store)

    def sink(self, batch) -> bool:
        """The forwarder's sink: quorum-index, classify, attach the verdicts."""
        store, rec = self.store, self.rec
        first_id = len(store)
        with rec.span("replication.store.bulk_index", len(batch)):
            store.bulk_index(batch)
        with rec.span("core.pipeline.classify_batch", len(batch)):
            results = self.pipe.classify_batch([m.text for m in batch])
        with rec.span("replication.store.set_category", len(batch)):
            for doc_id, result in enumerate(results, first_id):
                store.set_category(doc_id, result.category)
        self.last_batch = batch
        self.newest_ts = batch[-1].timestamp
        return True

    async def close(self) -> None:
        await self.listener.stop()
        self.wal.close()


async def build(opts: Options, rec):
    """Build and bind the spine ``setup_repeats`` times; keep the last."""
    corpus = CorpusGenerator(scale=0.05, seed=opts.seed).generate()
    preload = workloads.fleet_preload(opts.seed, opts.preload_docs) if opts.preload_docs else []
    seconds, speed_ns, spine = [], [speed_probe()], None
    for k in range(opts.setup_repeats):
        if spine is not None:
            await spine.close()
        t0 = time.perf_counter()
        spine = Spine(opts, corpus, preload, Path(opts.workdir) / f"wal{k}", rec)
        await spine.listener.start()
        seconds.append(time.perf_counter() - t0)
        speed_ns.append(speed_probe())
    return spine, seconds, speed_ns


def probes(spine: Spine, lines: list[bytes]) -> dict:
    """Direct timings of two per-line calls the listener makes, over the workload's lines."""
    t0 = time.perf_counter_ns()
    parsed = [safe_parse_line(line, max_bytes=spine.listener.max_line_bytes) for line in lines]
    parse_ns = time.perf_counter_ns() - t0
    tenants = [f"{m.hostname}/{m.app}" for m, _err in parsed if m is not None][:QUOTA_PROBE_LINES]
    quota = DeficitRoundRobin(QUOTA_RATE, QUOTA_BURST, max_tenants=4096)
    for tenant in tenants:  # first sight of a tenant deals the whole burst
        quota.allow(tenant)
    t0 = time.perf_counter_ns()
    for tenant in tenants:
        quota.allow(tenant)
    allow_ns = time.perf_counter_ns() - t0
    return {
        "parse_us_per_line": parse_ns / 1e3 / max(1, len(lines)),
        "allow_us_per_line": allow_ns / 1e3 / max(1, len(tenants)),
    }


class Phase:
    """Clocks and tallies of one phase, opened by ``begin`` and closed by ``quiesce``."""

    def __init__(self, name: str, spine: Spine) -> None:
        self.name = name
        self.wall0 = time.monotonic_ns()
        self.perf0 = time.perf_counter_ns()
        self.cpu0 = time.process_time_ns()
        self.yield_ns = 0  # wall time handed to the event loop (traced pass)
        self.yield_cpu_ns = 0  # CPU the listener used in it
        self.flushes: list[tuple[int, list[int]]] = []  # (done at, ordinals)
        self.polls: list[tuple[int, int]] = []  # (polled at, records)
        self.queries: list[tuple[str, int, int, int]] = []  # (kind, due, start, end)
        self.lag_max = 0
        self.speed_ns: list[int] = []  # speed-probe readings
        self.received0 = spine.listener.stats.received
        self.last_activity = self.wall0
        rec = spine.rec
        self.span0 = len(rec.spans) if rec.on else 0
        self.sums0 = {k: tuple(v) for k, v in rec.sums.items()} if rec.on else {}


def counts(spine: Spine) -> dict:
    """Exact counts from the program's own stats and registry."""
    s, reg = spine.listener.stats, spine.registry
    cache, fwd = spine.pipe.template_cache, spine.forwarder.stats
    dlq = spine.listener.dead_letters
    return {
        "ingest.listener.lines_in": s.received,
        "ingest.listener.accepted": s.accepted,
        "ingest.listener.rejected": s.parse_errors,
        "ingest.listener.oversize": s.oversize,
        "ingest.listener.shed": s.shed + s.tenant_shed,
        "ingest.listener.dlq_entries": len(dlq) + dlq.n_evicted,
        "ingest.quota.tenants_active": len(spine.quota) if spine.quota is not None else 0,
        "ingest.broker.commit_calls": spine.broker.stats.commits,
        "stream.fluentd.flush_calls": fwd.flushed_batches + fwd.failed_flushes,
        "stream.fluentd.flush_batch_mean": fwd.flushed_messages / max(1, fwd.flushed_batches),
        "stream.fluentd.failed_flushes": fwd.failed_flushes,
        "stream.fluentd.buffer_max": fwd.max_buffer_seen,
        "core.pipeline.classify_calls": int(wellknown.pipeline_batches(reg).value()),
        "core.pipeline.quarantined": len(spine.pipe.dead_letters),
        "core.template_cache.hits": cache.hits,
        "core.template_cache.misses": cache.misses,
        "core.template_cache.hit_ratio": cache.hit_rate,
        "core.template_cache.evictions": cache.evictions,
        "replication.store.quorum_refusals": int(
            wellknown.store_quorum_failures(reg).value(op="write")
        ),
        "replication.store.docs_final": len(spine.store),
        "durability.wal.appends": spine.wal.last_seq,
        "durability.wal.bytes_written": int(wellknown.wal_bytes(reg).value()),
        "durability.wal.fsyncs": int(wellknown.wal_fsyncs(reg).value()),
        "obs.traced_messages": int(wellknown.trace_sampled(reg).value()),
    }


def close_phase(phase: Phase, spine: Spine) -> dict:
    end_perf = time.perf_counter_ns()
    report = {
        "name": phase.name,
        "end_ns": phase.last_activity,
        "wall_ns": time.monotonic_ns() - phase.wall0,
        "cpu_ns": time.process_time_ns() - phase.cpu0 - sum(phase.speed_ns),
        "speed_ns": phase.speed_ns,
        "received": spine.listener.stats.received - phase.received0,
        "flushes": phase.flushes,
        "queries": phase.queries,
        "lag_max": phase.lag_max,
    }
    rec = spine.rec
    if rec.on:
        top, self_ns, calls = 0, {}, {}
        for s in rec.spans[phase.span0:]:
            self_ns[s.name] = self_ns.get(s.name, 0) + s.self_ns
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.parent is None:
                top += s.end - s.start
        report["trace"] = {
            "top_ns": top,
            "yield_ns": phase.yield_ns,
            "yield_cpu_ns": phase.yield_cpu_ns,
            "perf0": phase.perf0,
            "perf1": end_perf,
            "self_ns": self_ns,
            "span_calls": calls,
            # per-message calls: (calls, ns) within this phase
            "sums": {
                name: (v[0] - phase.sums0.get(name, (0, 0))[0], v[1] - phase.sums0.get(name, (0, 0))[1])
                for name, v in rec.sums.items()
            },
            "polls": phase.polls,
        }
    return report


async def serve(conn, opts: Options) -> None:
    rec = spans.Recorder() if opts.traced else spans.NullRecorder()
    spine, setup_seconds, setup_speed_ns = await build(opts, rec)
    gc.collect()
    gc.freeze()  # what set-up allocated is not rescanned during the run
    listener, forwarder = spine.listener, spine.forwarder
    lag_gauge = wellknown.broker_lag(spine.registry)
    conn.send(("ready", {
        "port": listener.tcp_address[1],
        "setup_seconds": setup_seconds,
        "setup_speed_ns": setup_speed_ns,
        "preloaded": spine.preloaded,
    }))
    phase: Phase | None = None
    quiesce_at: int | None = None  # lines the parent has sent in total
    queries_left = 0
    query_due = 0
    query_gap = int(1e9 / workloads.FLEET_QUERY_RATE)
    query_no = 0
    probe_due = 0
    while True:
        if conn.poll():
            command, arg = conn.recv()
            if command == "begin":
                phase = Phase(arg, spine)
                probe_due = 0  # every phase opens with a reading
                if arg == "paced" and opts.paced_queries:
                    queries_left = opts.paced_queries
                    query_due = phase.wall0 + query_gap
                conn.send(("begun", None))  # the clocks run: the parent may send
            elif command == "quiesce":
                quiesce_at = arg
            elif command == "probe":
                conn.send(("probe", probes(spine, arg)))
            elif command == "dashboard":
                conn.send(("dashboard", quiescent_dashboard(spine, arg)))
            elif command == "oracle":
                conn.send(("oracle", oracle.check(spine, arg)))
            elif command == "stop":
                break
        rec.iteration += 1
        with rec.span("stream.fluentd.poll_broker") as span:
            polled = forwarder.poll_broker()
            if span is not None:
                span.n = polled
        if rec.on and polled and phase is not None:
            phase.polls.append((time.monotonic_ns(), polled))
            phase.lag_max = max(phase.lag_max, int(lag_gauge.value(group=CONSUMER_GROUP)))
        flushed = 0
        if forwarder.buffered:
            with rec.span("stream.fluentd.flush") as span:
                flushed = forwarder.flush()
                if span is not None:
                    span.n = flushed
            if flushed and phase is not None:
                now = phase.last_activity = time.monotonic_ns()
                phase.flushes.append((now, [m.pid for m in spine.last_batch]))
        if queries_left and time.monotonic_ns() >= query_due:
            phase.queries.append(timed_query(spine, query_no, query_due))
            query_no += 1
            query_due += query_gap
            queries_left -= 1
        if phase is not None and time.monotonic_ns() >= probe_due:
            with rec.span("harness.speed_probe"):
                phase.speed_ns.append(speed_probe())
            probe_due = time.monotonic_ns() + SPEED_PROBE_EVERY_NS[phase.name]
        received = listener.stats.received
        busy = bool(polled or flushed)
        if (
            quiesce_at is not None and not busy and not forwarder.buffered
            and not queries_left and received >= quiesce_at
            and spine.broker.lag(CONSUMER_GROUP) == 0
        ):
            report = close_phase(phase, spine)
            report["counts"] = counts(spine)
            conn.send(("phase", report))
            phase, quiesce_at = None, None
            continue
        # hand the loop to the listener: greedily while there is work, for a
        # millisecond when there is none
        t0 = time.monotonic_ns()
        cpu0 = time.process_time_ns() if rec.on else 0
        before = received
        await asyncio.sleep(0 if busy else IDLE_SLEEP_S)
        if phase is not None:
            dt = time.monotonic_ns() - t0
            if listener.stats.received != before:
                phase.last_activity = t0 + dt
            if rec.on:
                phase.yield_ns += dt
                phase.yield_cpu_ns += time.process_time_ns() - cpu0
    await spine.close()
    if opts.trace_path and rec.on:
        rec.dump(opts.trace_path)
    conn.send(("stopped", {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queue_ages": getattr(spine.timed_broker, "queue_ages", []),
    }))


def timed_query(spine: Spine, number: int, due: int | None = None) -> tuple[str, int, int, int]:
    """Run the ``number``-th query of the rotation: (kind, due, start, end)."""
    kind = dashboard.KINDS[number % len(dashboard.KINDS)]
    start = time.monotonic_ns()
    with spine.rec.span("replication.store.query." + kind):
        dashboard.run(spine.store, kind, spine.oldest_ts, spine.newest_ts)
    return kind, start if due is None else due, start, time.monotonic_ns()


def quiescent_dashboard(spine: Spine, rotations: int) -> dict:
    """The five-query rotation, closed loop, with nothing else running."""
    queries, speed_ns = [], [speed_probe()]
    for number in range(rotations * len(dashboard.KINDS)):
        queries.append(timed_query(spine, number))
        speed_ns.append(speed_probe())
    return {"queries": queries, "speed_ns": speed_ns}


def child_main(conn) -> None:
    """Entry point of the spine process; the parent's first message is the options."""
    workdir = None
    try:
        opts = Options(**conn.recv())
        workdir = opts.workdir
        asyncio.run(serve(conn, opts))
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass  # the parent is gone: nobody to report to
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    # python spine.py FD, with src/ on PYTHONPATH: FD is this end of the parent's socket pair
    try:  # Linux: die with the parent even inside set-up, where the pipe is not polled
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass
    child_main(Connection(int(sys.argv[1])))
