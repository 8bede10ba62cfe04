"""The Fluentd forwarder: the one consumer of a group, draining the broker.

§4.2.2: "Data collection, filtering, and translation is implemented
using Fluentd running on a dedicated server."  The forwarder models
Fluentd's buffered output plugin fed from a
:class:`~repro.ingest.broker.LogBroker`: each flush tick it polls its
group's partitions into a bounded buffer (at most the buffer's free
room — backpressure is expressed as broker lag, never as a buffer
overflow), writes a batch to the store, and commits the batch's
high-water offsets back to the broker on success.  Failed flushes
retry with exponential backoff under an optional bounded budget; an
abandoned batch commits too — the poison batch is dead-lettered and
the group moves past it rather than re-polling it forever.  A crashed
consumer that re-polls from its committed offsets re-delivers only
uncommitted messages (at-least-once).

Flushes are all-or-nothing per batch: the buffer is mutated only after
the sink accepted the whole batch, and a sink that *raises* is treated
exactly like one that returns False — counted as a failed flush, batch
kept for retry.  Every message polled is accounted for: delivered,
still buffered, or parked in :attr:`dead_letters` — never lost
silently.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.message import SyslogMessage
from repro.faults.dlq import DeadLetterQueue
from repro.faults.plan import SITE_FLUSH_FAIL
from repro.obs.propagation import carrying, record_hop
from repro.stream.events import EventEngine

__all__ = ["FluentdForwarder", "ForwarderStats", "classifying_sink", "settle"]

#: dead-letter site of a batch abandoned after its retry budget
ABANDON_SITE = "fluentd.flush_abandoned"


@dataclass
class ForwarderStats:
    """Cumulative forwarder counters.

    Conservation invariant (checked by the chaos suite)::

        accepted == flushed_messages + buffered + abandoned_messages

    The ``repro_stream_fluentd_*`` counter and gauges are views of
    these fields: the buffer depth is ``buffered`` by that law.
    """

    accepted: int = 0
    flushed_batches: int = 0
    flushed_messages: int = 0
    failed_flushes: int = 0
    max_buffer_seen: int = 0
    #: flush batches given up on after ``flush_retry_limit`` failures
    abandoned_flushes: int = 0
    abandoned_messages: int = 0
    #: messages written by the most recent successful flush
    last_flush_size: int = 0

    @property
    def buffered(self) -> int:
        """Messages polled and not yet flushed or abandoned."""
        return self.accepted - self.flushed_messages - self.abandoned_messages


def classifying_sink(store, pipeline=None) -> Callable[[Sequence[SyslogMessage]], bool]:
    """The live spine's sink: index a batch, classify it, attach the verdicts.

    ``store`` is a ``LogStore`` or a ``ReplicatedLogStore`` (its quorum
    refusal raises: a failed flush).  The batch takes the store's next
    ids in order; without a ``pipeline`` the sink only indexes.
    """

    def sink(batch: Sequence[SyslogMessage]) -> bool:
        first_id = len(store)
        store.bulk_index(batch)
        if pipeline is not None:
            results = pipeline.classify_batch([m.text for m in batch])
            for doc_id, result in enumerate(results, first_id):
                store.set_category(doc_id, result.category)
        return True

    return sink


@dataclass
class FluentdForwarder:
    """Buffered batch forwarder polling a broker.

    Parameters
    ----------
    engine:
        The event engine (flushes are scheduled on it).
    sink:
        Batch write target; returns True on success.  (Normally
        :meth:`repro.stream.opensearch.LogStore.bulk_index`, or
        :func:`classifying_sink` to label what it indexes.)  A sink
        that raises is treated as a failed flush, not a crash.
    broker:
        The :class:`~repro.ingest.broker.LogBroker` the forwarder polls
        into its buffer each flush tick, committing batch offsets on
        flush success (and on abandon).
    flush_interval_s:
        Seconds between scheduled flushes.
    batch_size:
        Max messages per flush call.
    buffer_limit:
        Max buffered messages; a poll takes at most the free room.
    retry_base_s, retry_max_s:
        Exponential-backoff bounds after a failed flush (doubling with
        each *consecutive* failure; any success resets the schedule).
    flush_retry_limit:
        Bounded retry budget per stuck head batch: after this many
        consecutive failed flushes the head batch is abandoned to
        :attr:`dead_letters` so the buffer can make progress.  ``None``
        (default) retries forever, matching Fluentd's retry_forever.
    sink_timeout_s:
        Wall-clock deadline per sink call.  A sink that *hangs* (rather
        than raising) is abandoned after this many real seconds and the
        flush counts as failed — the batch stays buffered for retry and
        :meth:`drain` keeps its progress guarantee instead of stalling
        forever.  ``None`` (default) trusts the sink to return.
    dlq_max_entries:
        Cap on the forwarder's dead-letter queue; beyond it the oldest
        entry is evicted and counted (see
        :class:`~repro.faults.DeadLetterQueue`).  ``None`` is unbounded.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; when armed at
        ``fluentd.flush`` it fails flushes before the sink is called,
        exercising the retry/abandon machinery deterministically.
    journal:
        Optional :class:`repro.durability.StreamJournal`.  When set,
        every buffer transition is logged to the WAL *before* the
        in-memory mutation (write-ahead), so recovery can rebuild the
        delivered set, the dead letters and the committed offsets after
        a crash.
    consumer_group:
        The group's name on the broker; the forwarder is its one consumer.
    """

    engine: EventEngine
    sink: Callable[[Sequence[SyslogMessage]], bool]
    broker: object
    flush_interval_s: float = 1.0
    batch_size: int = 500
    buffer_limit: int = 50_000
    retry_base_s: float = 0.5
    retry_max_s: float = 30.0
    flush_retry_limit: int | None = None
    sink_timeout_s: float | None = None
    dlq_max_entries: int | None = None
    fault_injector: object = None
    journal: object = None
    consumer_group: str = "fluentd"
    #: trace/dwell clock; ``None`` means the engine's simulated now
    clock: Callable[[], float] | None = None

    stats: ForwarderStats = field(default_factory=ForwarderStats)
    #: abandoned batches land here with their reason
    dead_letters: DeadLetterQueue = field(init=False, repr=False)
    _buffer: list[SyslogMessage] = field(default_factory=list, init=False, repr=False)
    #: partition and offset per buffered message, as two columns
    _partitions: list[str] = field(default_factory=list, init=False, repr=False)
    _offsets: list[int] = field(default_factory=list, init=False, repr=False)
    #: per buffered message: (TraceContext, entered_s) for sampled
    #: messages, None otherwise — mirrors every _buffer mutation
    _ctxs: list = field(default_factory=list, init=False, repr=False)
    _retry_delay: float = field(default=0.0, init=False, repr=False)
    _consecutive_failures: int = field(default=0, init=False, repr=False)
    _started: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.flush_retry_limit is not None and self.flush_retry_limit < 1:
            raise ValueError(
                f"flush_retry_limit must be >= 1 or None, "
                f"got {self.flush_retry_limit}"
            )
        if self.sink_timeout_s is not None and self.sink_timeout_s <= 0:
            raise ValueError(
                f"sink_timeout_s must be positive or None, "
                f"got {self.sink_timeout_s}"
            )
        self.dead_letters = DeadLetterQueue(max_entries=self.dlq_max_entries)
        from repro.obs import wellknown

        stats = self.stats
        wellknown.fluentd_buffer_depth().view(stats, "buffered")
        wellknown.fluentd_flush_size().view(stats, "last_flush_size")
        wellknown.fluentd_flushed_messages().view(stats, "flushed_messages")
        self._m_poll_to_flush = wellknown.poll_to_flush_seconds().labels()
        self._m_e2e = wellknown.e2e_latency_seconds().labels()
        if self.clock is None:
            self.clock = lambda: self.engine.now
        self.broker.subscribe(self.consumer_group)

    def start(self) -> None:
        """Begin the periodic flush cycle."""
        if not self._started:
            self._started = True
            self.engine.schedule(self.flush_interval_s, self._flush_tick)

    def poll_broker(self, *, max_records: int | None = None) -> int:
        """Consumer-group intake: poll the group's partitions into the buffer.

        Polls at most the buffer's free room, so a slow consumer shows
        up as broker *lag*, never as buffer overflow.  The whole poll is
        journaled in one call, each record as an accept under its
        durable identity (its ``ident``), before it enters the buffer
        (write-ahead).  The poll's columns are taken as they are: no
        record is built, only the hop of each traced context.  Returns
        the number of records taken.
        """
        room = self.buffer_limit - len(self._buffer)
        if room <= 0:
            return 0
        if max_records is not None and max_records < room:
            room = max_records
        records = self.broker.poll(self.consumer_group, max_records=room)
        n = len(records.offsets)
        if not n:
            return 0
        messages = records.messages
        if self.journal is not None:
            self.journal.accept_many(records.idents, messages)
        self._buffer.extend(messages)
        self._partitions.extend(records.partitions)
        self._offsets.extend(records.offsets)
        ctxs = records.ctxs
        if ctxs.count(None) == n:
            self._ctxs.extend(ctxs)
        else:
            now = self.clock()
            group = self.consumer_group
            self._ctxs.extend([
                None if ctx is None else (record_hop(ctx, "broker.poll", now, group=group), now)
                for ctx in ctxs
            ])
        stats = self.stats
        stats.accepted += n
        depth = len(self._buffer)
        if depth > stats.max_buffer_seen:
            stats.max_buffer_seen = depth
        return n

    def consume(self) -> int:
        """One consumer turn: poll the broker once, then drain the buffer.

        Returns the records polled: a poll takes at most the buffer's
        free room, so emptying the broker takes turns (:func:`settle`).
        """
        polled = self.poll_broker()
        self.drain()
        return polled

    def _batch_offsets(self, n: int) -> dict:
        """Commit offsets for the head batch: partition → next offset."""
        out: dict = {}
        get = out.get
        for partition, offset in zip(self._partitions[:n], self._offsets[:n]):
            if offset >= get(partition, 0):
                out[partition] = offset + 1
        return out

    def _flush_tick(self) -> None:
        self.poll_broker()
        self.flush()
        delay = self._retry_delay if self._retry_delay > 0 else self.flush_interval_s
        self.engine.schedule(delay, self._flush_tick)

    def _attempt_sink(self, batch: list[SyslogMessage]) -> bool:
        """One sink call, injection-aware, exception- and hang-safe."""
        inj = self.fault_injector
        if inj is not None and inj.should_fire(SITE_FLUSH_FAIL):
            return False
        if self.sink_timeout_s is not None:
            return self._attempt_sink_with_deadline(batch)
        try:
            return bool(self.sink(batch))
        except Exception:
            return False

    def _attempt_sink_with_deadline(self, batch: list[SyslogMessage]) -> bool:
        """Run the sink under a wall-clock deadline in a daemon thread.

        A sink still running at the deadline is written off as a failed
        flush.  The thread is left to finish (or hang) in the
        background — its late result is discarded, so the batch stays
        buffered and will be retried or abandoned like any other
        failure; all-or-nothing accounting is preserved because the
        buffer is only mutated on an *observed* success.
        """
        import threading

        result: list[bool] = []

        def call() -> None:
            try:
                result.append(bool(self.sink(batch)))
            except Exception:
                result.append(False)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(self.sink_timeout_s)
        if worker.is_alive() or not result:
            return False
        return result[0]

    def flush(self) -> int:
        """Write up to ``batch_size`` buffered messages; returns count.

        All-or-nothing per batch: on success the whole batch leaves the
        buffer and is counted flushed; on failure (sink returned False,
        sink raised, or an injected ``fluentd.flush`` fault) nothing
        leaves, the failure is counted, and the retry backoff grows.
        With a bounded :attr:`flush_retry_limit`, a head batch that
        burns the whole budget is abandoned to :attr:`dead_letters`
        instead of wedging the buffer forever.
        """
        if not self._buffer:
            self._retry_delay = 0.0
            self._consecutive_failures = 0
            return 0
        batch = self._buffer[: self.batch_size]
        n = len(batch)
        ctxs = self._ctxs[:n]
        if ctxs.count(None) != n:
            traced = [e for e in ctxs if e is not None]
            # the store picks the contexts up via carried() and records
            # its own hop against the same clock
            sink_start = self.clock()
            with carrying([c for c, _ in traced], self.clock):
                ok = self._attempt_sink(batch)
        else:
            traced = None
            ok = self._attempt_sink(batch)
        if ok:
            wal_ms = self._retire(n)
            stats = self.stats
            stats.flushed_batches += 1
            stats.flushed_messages += n
            stats.last_flush_size = n
            self._retry_delay = 0.0
            self._consecutive_failures = 0
            if traced:
                now = self.clock()
                for ctx, entered_s in traced:
                    self._m_poll_to_flush.observe(now - entered_s)
                    hop = record_hop(ctx, "fluentd.flush", sink_start, now, batch=n)
                    if self.journal is not None:
                        record_hop(
                            hop, "wal.append", now, wall_ms=round(wal_ms, 3)
                        )
                    self._m_e2e.observe(now - ctx.origin_s)
            return n
        self.stats.failed_flushes += 1
        self._consecutive_failures += 1
        if (
            self.flush_retry_limit is not None
            and self._consecutive_failures >= self.flush_retry_limit
        ):
            self._abandon(batch)
        self._retry_delay = min(
            self.retry_base_s * 2 ** min(self._consecutive_failures, 10),
            self.retry_max_s,
        )
        return 0

    def _abandon(self, batch: list[SyslogMessage]) -> None:
        """Dead-letter a head batch that exhausted its retry budget.

        The batch's offsets are committed too: the poison batch is
        parked in the DLQ and the group moves *past* it, instead of
        re-polling the same doomed records forever.
        """
        error = f"flush failed {self._consecutive_failures} times"
        self._retire(len(batch), abandoned=error)
        self.stats.abandoned_flushes += 1
        self.stats.abandoned_messages += len(batch)
        for pos, message in enumerate(batch):
            self.dead_letters.push(ABANDON_SITE, message, error, batch_position=pos)
        self._consecutive_failures = 0

    def _retire(self, n: int, *, abandoned: str | None = None) -> float:
        """Take the head batch of ``n`` off the buffer, delivered or given up.

        Journal first, broker second (one commit call for every
        partition the batch spans), the parallel lists last: the journal
        is the durable truth; a commit the broker loses (the
        ``broker.commit_lost`` site) is re-seeded from its records on
        recovery.  Returns the journal write's wall milliseconds.
        """
        offsets = self._batch_offsets(n)
        wal_ms = 0.0
        if self.journal is not None:
            wal_t0 = time.perf_counter()
            if abandoned is None:
                self.journal.flushed(n, offsets=offsets)
            else:
                self.journal.abandoned(n, ABANDON_SITE, abandoned, offsets=offsets)
            wal_ms = (time.perf_counter() - wal_t0) * 1e3
        self.broker.commit_many(self.consumer_group, offsets)
        del self._buffer[:n], self._partitions[:n], self._offsets[:n], self._ctxs[:n]
        return wal_ms

    def drain(
        self, max_rounds: int = 1_000_000, max_consecutive_failures: int = 50
    ) -> int:
        """Flush repeatedly until the buffer empties; returns flushed.

        Transient sink failures are retried; the drain only gives up
        after ``max_consecutive_failures`` rounds in a row with no
        progress (neither a flush nor an abandonment shrank the
        buffer).

        Raises
        ------
        RuntimeError
            If the sink keeps failing and the buffer cannot drain.
        """
        total = 0
        consecutive = 0
        for _ in range(max_rounds):
            if not self._buffer:
                return total
            before = len(self._buffer)
            n = self.flush()
            if len(self._buffer) < before:
                consecutive = 0
                total += n
            else:
                consecutive += 1
                if consecutive >= max_consecutive_failures:
                    raise RuntimeError(
                        f"drain stalled with {len(self._buffer)} messages "
                        f"buffered after {consecutive} consecutive failures"
                    )
        raise RuntimeError("drain exceeded max_rounds")

    @property
    def buffered(self) -> int:
        return len(self._buffer)


def settle(consumers: Sequence[FluentdForwarder]) -> int:
    """Drive ``consumers`` until nothing moves; returns messages flushed.

    Every consumer takes a :meth:`~FluentdForwarder.consume` turn until
    a round neither polls nor flushes: broker lag is consumed and
    flushed; a stalled partition keeps its lag.  A consumer whose buffer
    is full polls nothing, so its turn counts as moving — its drain
    made the room the next round polls into.  Any other empty poll
    found its partitions empty, and nothing a drain does refills them.
    """
    before = sum(c.stats.flushed_messages for c in consumers)
    moved = True
    while moved:
        moved = False
        for c in consumers:
            full = c.buffered >= c.buffer_limit
            if c.consume() or full:
                moved = True
    return sum(c.stats.flushed_messages for c in consumers) - before
