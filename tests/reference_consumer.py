"""The consumer and the run as they were written before PR 20 — the oracle.

Everything here is the parent commit's code (596aa60), kept verbatim so
``tests/test_consumer.py`` and ``tests/test_run_tail.py`` can drive it
beside what replaced it (house style of ``tests/perdoc_store.py`` and
``tests/reference_tfidf.py``) — all but two things.  The forwarder's
three metric writes: its counter and gauges are views of
``ForwarderStats`` now, so the reference sets ``last_flush_size`` where
it wrote them.  And the group member its poll named, on the broker call
and on the ``broker.poll`` hop: a group has one consumer now.  It holds:

* :class:`ReferenceForwarder` — ``FluentdForwarder`` with the three
  methods that each trimmed or grew the three parallel lists themselves:
  ``poll_broker``, ``flush``, ``_abandon`` (replaced by ``_retire`` and
  a ``poll_broker`` that grows the lists in one loop), and the tick that
  guarded its poll.  Its push half — ``offer`` and ``preload`` — left
  with the push intake itself;
* :func:`settle_broker` — ``TivanCluster._settle_broker`` (replaced by
  ``stream.fluentd.settle``);
* :func:`listen_sink`, :func:`listen_consume`, :func:`listen_settle` —
  the closures ``repro.cli._cmd_listen`` built (replaced by
  ``classifying_sink``, ``FluentdForwarder.consume`` and ``settle``);
* :func:`schedule_every` — the re-arming closure ``TivanCluster`` wrote
  three times (replaced by ``EventEngine.every``);
* :func:`load_events` — ``TivanCluster.load_events`` handing every
  daemon the whole trace, with the replay half of the node daemon it
  scheduled through (:class:`SyslogDaemon`, from the deleted
  ``stream/syslogd.py``); it runs on a stand-in cluster
  (:func:`daemon_cluster`) whose relay names each line by ``id()``;
* :func:`run_tail`, :func:`headline` — what ``recover``, ``simulate``
  and the crash harness each did after building a cluster.

Not collected by pytest (no ``test_`` prefix); nothing under ``src/``
imports it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.core.message import SyslogMessage
from repro.datagen.workload import StreamEvent
from repro.durability import reconcile
from repro.obs.propagation import carrying, record_hop
from repro.stream.events import EventEngine
from repro.stream.fluentd import ABANDON_SITE, FluentdForwarder


class ReferenceForwarder(FluentdForwarder):
    """The forwarder with the parent's own admit and retire code."""

    def poll_broker(self, *, max_records: int | None = None) -> int:
        """Consumer-group intake: poll assigned partitions into the buffer.

        Polls at most the buffer's free room, so a slow consumer shows
        up as broker *lag*, never as buffer overflow — the offer-side
        overflow policies are idle in broker mode.  Each polled record
        is journaled as an accept under its durable identity
        (``record.ident``), exactly as an offered message would be.
        Returns the number of records taken.
        """
        if self.broker is None:
            return 0
        room = self.buffer_limit - len(self._buffer)
        if room <= 0:
            return 0
        if max_records is not None:
            room = min(room, max_records)
        records = self.broker.poll(self.consumer_group, max_records=room)
        now: float | None = None
        for rec in records:
            if self.journal is not None:
                self.journal.accept(rec.ident, rec.message)
            self._buffer.append(rec.message)
            self._offsets.append((rec.partition, rec.offset))
            if rec.ctx is not None:
                if now is None:
                    now = self.clock()
                self._ctxs.append((
                    record_hop(rec.ctx, "broker.poll", now, group=self.consumer_group),
                    now,
                ))
            else:
                self._ctxs.append(None)
            self.stats.accepted += 1
        if records:
            self.stats.max_buffer_seen = max(
                self.stats.max_buffer_seen, len(self._buffer)
            )
        return len(records)

    def _batch_offsets(self, n: int) -> dict:
        """Commit offsets for the head batch: partition → next offset
        (the forwarder's own, from when it kept a pair per message)."""
        out: dict = {}
        for partition, offset in self._offsets[:n]:
            if offset + 1 > out.get(partition, 0):
                out[partition] = offset + 1
        return out

    def _flush_tick(self) -> None:
        if self.broker is not None:
            self.poll_broker()
        self.flush()
        delay = self._retry_delay if self._retry_delay > 0 else self.flush_interval_s
        self.engine.schedule(delay, self._flush_tick)

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
        traced = [e for e in self._ctxs[: len(batch)] if e is not None]
        if traced:
            # the store picks the contexts up via carried() and records
            # its own hop against the same clock
            sink_start = self.clock()
            with carrying([c for c, _ in traced], self.clock):
                ok = self._attempt_sink(batch)
        else:
            sink_start = 0.0
            ok = self._attempt_sink(batch)
        if ok:
            offsets = (
                self._batch_offsets(len(batch)) if self.broker is not None else None
            )
            wal_ms = 0.0
            if self.journal is not None:
                wal_t0 = time.perf_counter() if traced else 0.0
                self.journal.flushed(len(batch), offsets=offsets)
                if traced:
                    wal_ms = (time.perf_counter() - wal_t0) * 1e3
            if offsets:
                # journal first, broker second: the journal is the
                # durable truth; a commit the broker loses (the
                # broker.commit_lost site) is re-seeded from the
                # journal's flush records on recovery
                for partition, next_offset in offsets.items():
                    self.broker.commit(self.consumer_group, partition, next_offset)
            del self._buffer[: len(batch)]
            if self.broker is not None:
                del self._offsets[: len(batch)]
            del self._ctxs[: len(batch)]
            self.stats.flushed_batches += 1
            self.stats.flushed_messages += len(batch)
            self._retry_delay = 0.0
            self._consecutive_failures = 0
            self.stats.last_flush_size = len(batch)
            if traced:
                now = self.clock()
                for ctx, entered_s in traced:
                    self._m_poll_to_flush.observe(now - entered_s)
                    hop = record_hop(
                        ctx, "fluentd.flush", sink_start, now, batch=len(batch)
                    )
                    if self.journal is not None:
                        record_hop(
                            hop, "wal.append", now, wall_ms=round(wal_ms, 3)
                        )
                    self._m_e2e.observe(now - ctx.origin_s)
            return len(batch)
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

        In broker mode the batch's offsets are committed too: the
        poison batch is parked in the DLQ and the group moves *past*
        it, instead of re-polling the same doomed records forever.
        """
        offsets = (
            self._batch_offsets(len(batch)) if self.broker is not None else None
        )
        if self.journal is not None:
            self.journal.abandoned(
                len(batch), ABANDON_SITE,
                f"flush failed {self._consecutive_failures} times",
                offsets=offsets,
            )
        if offsets:
            for partition, next_offset in offsets.items():
                self.broker.commit(self.consumer_group, partition, next_offset)
        del self._buffer[: len(batch)]
        if self.broker is not None:
            del self._offsets[: len(batch)]
        del self._ctxs[: len(batch)]
        self.stats.abandoned_flushes += 1
        self.stats.abandoned_messages += len(batch)
        for pos, message in enumerate(batch):
            self.dead_letters.push(
                ABANDON_SITE, message,
                f"flush failed {self._consecutive_failures} times",
                batch_position=pos,
            )
        self._consecutive_failures = 0


def _settle_broker(self) -> int:
    """Post-horizon settle for broker mode.

    Alternate poll and drain across every consumer until neither
    moves: records still in the broker at the horizon (lag) are
    consumed and flushed, exactly as push mode drains its buffer.
    A stalled partition ends the loop with its lag intact — the
    report carries it as ``broker_lag``.
    """
    drained = 0
    while True:
        polled = 0
        for consumer in self.consumers:
            polled += consumer.poll_broker()
            if consumer.buffered:
                drained += consumer.drain()
        if polled == 0 and all(not c.buffered for c in self.consumers):
            return drained


def settle_broker(consumers) -> int:
    """``TivanCluster._settle_broker`` over ``consumers``."""
    return _settle_broker(SimpleNamespace(consumers=consumers))


def listen_sink(store, pipe):
    """The ``sink`` closure of ``repro.cli._cmd_listen``."""

    def sink(batch) -> bool:
        first_id = len(store)
        store.bulk_index(batch)
        if pipe is not None:
            results = pipe.classify_batch([m.text for m in batch])
            for doc_id, result in enumerate(results, first_id):
                store.set_category(doc_id, result.category)
        return True

    return sink


def listen_consume(forwarder):
    """The ``consume`` closure of ``repro.cli._cmd_listen``."""

    def consume() -> int:
        polled = forwarder.poll_broker()
        forwarder.drain()
        return polled

    return consume


def listen_settle(forwarder) -> None:
    """``_cmd_listen``'s settle after the listener stopped."""
    consume = listen_consume(forwarder)
    # settle: a poll takes at most the buffer's free room
    while consume():
        pass


def _schedule_checkpoint(self, horizon: float) -> None:
    every = self.checkpoint_every_s

    def tick() -> None:
        self.write_checkpoint()
        if self.engine.now + every <= horizon:
            self.engine.schedule(every, tick)

    self.engine.schedule(every, tick)


def schedule_every(engine, every: float, action, horizon: float) -> None:
    """``_schedule_checkpoint``'s closure with any action in its place."""
    _schedule_checkpoint(
        SimpleNamespace(engine=engine, checkpoint_every_s=every, write_checkpoint=action),
        horizon,
    )


@dataclass
class SyslogDaemon:
    """One node's rsyslogd, replaying its share of a message trace."""

    hostname: str
    relay: object
    n_emitted: int = field(default=0, init=False)

    def load_trace(
        self, engine: EventEngine, messages: Sequence[SyslogMessage]
    ) -> None:
        """Schedule this node's messages into the engine.

        Only messages whose ``hostname`` matches are scheduled; the
        timestamps in the trace are absolute sim times.  A timestamp
        already in the past (a resumed run whose clock moved on while
        the message was never offered) is clamped to *now* — delivered
        late rather than dropped or time-travelled.
        """
        for msg in messages:
            if msg.hostname != self.hostname:
                continue
            engine.schedule_at(
                max(msg.timestamp, engine.now), lambda m=msg: self._emit(m)
            )

    def _emit(self, message: SyslogMessage) -> None:
        self.n_emitted += 1
        self.relay.receive(message)


def daemon_cluster(engine: EventEngine, accept) -> SimpleNamespace:
    """What :func:`load_events` reads and writes of a ``TivanCluster``.

    Its relay hands ``accept(idx, message)`` the trace position the
    cluster kept per message object, ``_event_idx[id(message)]``.
    """
    cluster = SimpleNamespace(
        engine=engine, broker=None, journal=None, daemons={}, _event_idx={},
        _event_pub={}, _n_produced=0,
    )
    cluster.relay = SimpleNamespace(
        receive=lambda m: accept(cluster._event_idx[id(m)], m)
    )
    return cluster


def load_events(self, events: Sequence[StreamEvent], *, skip=()) -> None:
    """Create daemons for every host in the trace and schedule it.

    ``skip`` holds trace positions to leave unscheduled — on a
    durable resume these are the identities the journal already
    saw, so a message is never offered twice across restarts.
    ``produced`` still counts the full trace (conservation is
    stated over every generated message).
    """
    skip = set(skip)
    if self.broker is not None and self.journal is not None:
        # stable offsets: event i's offset is its per-host ordinal
        # over the FULL trace (skipped events included), so a
        # sparse resume republishes every event at the offset it
        # had in its first life and committed offsets stay valid
        ordinals: dict[str, int] = {}
        for i, e in enumerate(events):
            h = e.message.hostname
            self._event_pub[i] = (h, ordinals.get(h, 0))
            ordinals[h] = ordinals.get(h, 0) + 1
    messages = []
    for i, e in enumerate(events):
        if i in skip:
            continue
        self._event_idx[id(e.message)] = i
        messages.append(e.message)
    hosts = sorted({m.hostname for m in messages})
    for h in hosts:
        self.daemons[h] = SyslogDaemon(hostname=h, relay=self.relay)
    for h, d in self.daemons.items():
        d.load_trace(self.engine, messages)
    self._n_produced = len(events)


def run_tail(cluster, config, journal):
    """What ``recover`` and the crash harness's child did after the build."""
    report = cluster.run(max(config.duration_s + 30.0, cluster.engine.now))
    conservation = reconcile(journal.state, report.produced)
    journal.wal.close()
    return report, conservation


def headline(report) -> str:
    """The line ``simulate`` and ``recover`` each formatted themselves."""
    return (
        f"produced={report.produced} indexed={report.indexed} "
        f"classified={report.classified} backlog={report.final_backlog} "
        f"keeping_up={report.keeping_up}"
    )
