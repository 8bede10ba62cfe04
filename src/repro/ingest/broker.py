"""Partitioned log broker: the spine between senders and consumers.

The paper's Tivan pipeline (§4: syslog → Fluentd → OpenSearch) couples
ingest to classification — the forwarder hands messages straight to
the classifier stage, so neither side can scale or fail independently.
This module decouples them the way production log pipelines do
(IBM 2025 makes the same move): noisy senders publish into an
append-only, partitioned log; a consumer polls at its own pace;
progress is an *offset*, not an ack per message.

Design
------
- **Partitions** are append-only record sequences, one per
  originating host: a message is keyed by its hostname, so one node's
  messages stay totally ordered — and, critically for the durability
  layer, a partition's contents are a pure function of the trace (a
  host's messages in trace order), which makes offsets stable
  identities across crash and resume.
- **Segments**: each partition stores its records as parallel columns
  (offsets, messages, idents, trace contexts, publish times) in
  fixed-size segments; a full segment is sealed (a tuple of column
  tuples, immutable) and a fresh one opened, and the partition keeps
  each sealed segment's last offset for bisection.  A stored record is
  therefore its message and nothing else on the heap: a
  :class:`BrokerRecord` is built only when a reader iterates or
  indexes the :class:`RecordBatch` a read returns.  This mirrors
  on-disk log brokers and bounds the cost of any future retention work
  to whole segments.
- **Consumer groups** have one consumer each, which reads every
  partition, a new one from the next poll on.  ``poll`` advances the
  group's *position* in a partition; ``commit`` its *committed* offset.
  :meth:`reset_to_committed` drops the positions — what a restarted
  consumer does — giving at-least-once delivery.
- **Sparse offsets**: ``publish`` accepts an explicit offset so the
  durable path can replay a *subset* of a trace (only not-yet-settled
  events) while keeping every record's offset identical to its first
  life.  Consumers tolerate gaps; a committed offset means "everything
  below this is settled", never "this many records exist".

Cost
----
A poll costs what it returns, not what the log retains.  Each group
keeps a *ready* set (partitions a poll still has something to do on),
an *uncommitted* set and a running lag, all maintained under the one
lock by the operations that change them:

- ``publish_many`` is O(messages + touched partitions × groups): one
  lock and one clock read per call, five column appends per message
  and no object built for it, and the ready/lag bookkeeping once per
  partition the call appended to — so O(groups) per call, not per
  message.  It returns the offset each message landed at.
  ``publish`` is its one-message call.
- ``poll`` is O(ready partitions of the group + records returned): a
  caught-up consumer touches no partition, and a read finds its cursor
  by bisection over the offset column (records are offset-ordered),
  never by walking the segment.  What it returns is column slices —
  a :class:`RecordBatch`, one partition key per row.  Delivery order
  is a round-robin scan over the sorted partition keys, starting one
  key further on each poll — the ready set only skips the visits that
  would have read nothing.
- ``commit_many`` takes the lock once for a flush's offsets, however
  many partitions they span; ``commit`` is its one-partition call.
- ``lag`` is O(1); ``lag_age`` is O(partitions with uncommitted
  records), one bisection each.

Fault sites (armed via :class:`repro.faults.FaultPlan`):

- ``broker.partition_stall`` — the target partition refuses appends
  and fetches until the site fires again (stall/heal churn); refused
  publishes return ``None`` so callers count, never lose silently.
  One arming check per message, batched or not.
- ``broker.commit_lost`` — an offset commit vanishes in flight; the
  group's committed offset stays behind, so replay re-delivers
  (at-least-once, never lost).  One arming check per partition.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.message import SyslogMessage
from repro.faults.plan import (
    SITE_COMMIT_LOST,
    SITE_PARTITION_STALL,
    FaultInjector,
)
from repro.obs import wellknown
from repro.obs.metrics import default_registry
from repro.obs.propagation import TraceContext, record_hop

__all__ = [
    "BrokerRecord",
    "BrokerStats",
    "ConsumerGroup",
    "LogBroker",
    "Partition",
    "RecordBatch",
]

DEFAULT_SEGMENT_RECORDS = 4096


@dataclass(frozen=True, slots=True)
class BrokerRecord:
    """One record in a partition, as a reader sees it: built on read.

    A partition stores its records as columns (:class:`Partition`) and
    a read hands them back as a :class:`RecordBatch`; this is one row of
    either, built only when a caller iterates or indexes the batch.
    ``ident`` carries the durable identity of the message (its trace
    position) when the publisher is journal-backed; consumers hand it
    to the journal so accept records survive the broker hop.
    ``ctx`` is the cross-hop trace context for head-sampled messages
    (chained past the publish hop); ``pub_s`` is the broker-clock
    publish time every record carries, the base of queue-age and
    lag-age signals.
    """

    partition: str
    offset: int
    message: SyslogMessage
    ident: int | None = None
    ctx: TraceContext | None = None
    pub_s: float | None = None


class RecordBatch:
    """Records read off the broker, as parallel columns.

    ``partitions`` names each row's partition; ``offsets``, ``messages``,
    ``idents``, ``ctxs`` and ``pub_s`` are the partition's own columns,
    sliced.  ``len()`` counts rows; iterating or indexing builds a
    :class:`BrokerRecord` per row read, and nothing is built otherwise.
    """

    __slots__ = ("partitions", "offsets", "messages", "idents", "ctxs", "pub_s")

    def __init__(self) -> None:
        self.partitions: list[str] = []
        self.offsets: list[int] = []
        self.messages: list[SyslogMessage] = []
        self.idents: list[int | None] = []
        self.ctxs: list[TraceContext | None] = []
        self.pub_s: list[float | None] = []

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self) -> Iterator[BrokerRecord]:
        return map(
            BrokerRecord, self.partitions, self.offsets, self.messages,
            self.idents, self.ctxs, self.pub_s,
        )

    def __getitem__(self, row: int) -> BrokerRecord:
        return BrokerRecord(
            self.partitions[row], self.offsets[row], self.messages[row],
            self.idents[row], self.ctxs[row], self.pub_s[row],
        )


#: what an empty poll returns: no columns to extend
_NO_RECORDS = RecordBatch.__new__(RecordBatch)
for _column in RecordBatch.__slots__:
    setattr(_NO_RECORDS, _column, ())
del _column


#: the columns of a segment, in order: offsets, messages, idents, ctxs, pub_s
_OFFSETS, _PUB_S = 0, 4


def _length_error(n: int, **columns) -> str:
    name, column = next(
        (name, c) for name, c in columns.items() if c is not None and len(c) != n
    )
    return f"publish_many: {len(column)} {name} for {n} messages"


class Partition:
    """An append-only sequence of records, stored as columns in segments.

    The active segment is five lists — offsets, messages, idents, ctxs
    and publish times; a full one is sealed into a tuple of five tuples
    and a fresh one opened.  ``_ends`` keeps each sealed segment's last
    offset, so a read finds its segment by bisection.
    """

    __slots__ = ("key", "segment_records", "_sealed", "_ends", "_active", "next_offset")

    def __init__(self, key: str, *, segment_records: int = DEFAULT_SEGMENT_RECORDS) -> None:
        self.key = key
        self.segment_records = segment_records
        self._sealed: list[tuple[tuple, ...]] = []
        self._ends: list[int] = []
        self._active: tuple[list, ...] = ([], [], [], [], [])
        #: the offset the next blind append receives (last offset + 1;
        #: sparse replays can leave gaps below it)
        self.next_offset = 0

    def append(
        self,
        offset: int,
        message: SyslogMessage,
        ident: int | None = None,
        ctx: TraceContext | None = None,
        pub_s: float | None = None,
    ) -> None:
        """Append one record; offsets must be monotonic (gaps allowed)."""
        if offset < self.next_offset:
            raise ValueError(
                f"partition {self.key!r}: non-monotonic append at offset "
                f"{offset} (next is {self.next_offset})"
            )
        offsets, messages, idents, ctxs, pubs = self._active
        offsets.append(offset)
        messages.append(message)
        idents.append(ident)
        ctxs.append(ctx)
        pubs.append(pub_s)
        self.next_offset = offset + 1
        if len(offsets) >= self.segment_records:
            self._seal()

    def _seal(self) -> None:
        """Seal the full active segment and open a fresh one."""
        active = self._active
        self._sealed.append(tuple(map(tuple, active)))
        self._ends.append(active[_OFFSETS][-1])
        self._active = ([], [], [], [], [])

    def _seek(self, offset: int) -> tuple[int, int]:
        """(segment, row) of the first record at or past ``offset``; a
        segment index of ``len(_sealed)`` is the active segment, found
        without a bisection when it holds the offset (the usual read)."""
        ends = self._ends
        if not ends or offset > ends[-1]:
            return len(ends), bisect_left(self._active[_OFFSETS], offset)
        segment = bisect_left(ends, offset)
        return segment, bisect_left(self._sealed[segment][_OFFSETS], offset)

    def read_into(self, batch: RecordBatch, offset: int, max_records: int) -> int:
        """Extend ``batch`` with the records at ``offset`` or past it,
        oldest first, up to the cap; returns how many.

        Records are offset-ordered (``append`` enforces it), so the
        cursor is found by bisection: first the sealed segment that
        holds it, then the row inside.  A cap of zero or less reads
        nothing.
        """
        if max_records <= 0 or offset >= self.next_offset:
            return 0
        segment, row = self._seek(offset)
        sealed = self._sealed
        taken = 0
        while True:
            columns = sealed[segment] if segment < len(sealed) else self._active
            offsets, messages, idents, ctxs, pubs = columns
            stop = min(len(offsets), row + max_records - taken)
            if stop > row:
                batch.partitions.extend([self.key] * (stop - row))
                batch.offsets.extend(offsets[row:stop])
                batch.messages.extend(messages[row:stop])
                batch.idents.extend(idents[row:stop])
                batch.ctxs.extend(ctxs[row:stop])
                batch.pub_s.extend(pubs[row:stop])
                taken += stop - row
            if taken >= max_records or segment >= len(sealed):
                return taken
            segment, row = segment + 1, 0

    def read_from(self, offset: int, max_records: int) -> RecordBatch:
        """The records at ``offset`` or past it, up to the cap, as a batch."""
        batch = RecordBatch()
        self.read_into(batch, offset, max_records)
        return batch

    def pub_s_at(self, offset: int) -> float | None:
        """Publish time of the first record at or past ``offset``
        (``None`` when there is none)."""
        if offset >= self.next_offset:
            return None
        segment, row = self._seek(offset)
        columns = self._sealed[segment] if segment < len(self._sealed) else self._active
        return columns[_PUB_S][row]

    def __len__(self) -> int:
        return sum(len(s[_OFFSETS]) for s in self._sealed) + len(self._active[_OFFSETS])

    @property
    def n_segments(self) -> int:
        return len(self._sealed) + (1 if self._active[_OFFSETS] or not self._sealed else 0)


@dataclass
class ConsumerGroup:
    """Progress of one named group: committed offsets plus live cursors.

    ``ready``, ``uncommitted`` and ``lag`` are derived state the broker
    keeps current so that polls and lag reads never scan partitions.
    """

    name: str
    committed: dict[str, int] = field(default_factory=dict)
    positions: dict[str, int] = field(default_factory=dict)
    #: round-robin cursor so poll spreads fairly over the partitions
    rr_cursor: int = 0
    #: partitions a poll still has work on: no live cursor yet (the
    #: next visit seeds it from ``committed``) or records past it
    ready: set[str] = field(init=False, default_factory=set)
    #: partitions whose ``next_offset`` is past the committed offset
    uncommitted: set[str] = field(init=False, default_factory=set)
    #: sum over partitions of ``max(0, next_offset - committed)``
    lag: int = field(init=False, default=0)
    #: what the group's ``repro_broker_*{group=…}`` families read:
    #: records delivered to its consumer, and commits applied
    polled: int = field(init=False, default=0)
    commits: int = field(init=False, default=0)
    #: ``lag`` and the age in seconds of the oldest uncommitted record,
    #: as of the group's last poll
    lag_seen: int = field(init=False, default=0)
    lag_age: float = field(init=False, default=0.0)


@dataclass
class BrokerStats:
    """Broker-lifetime counts (the reconciliation view)."""

    published: int = 0
    publish_refused: int = 0
    polled: int = 0
    commits: int = 0
    commits_lost: int = 0
    stall_events: int = 0


class LogBroker:
    """In-process partitioned log with consumer groups.

    Thread-safe: the asyncio listener publishes from the event-loop
    thread while consumers may poll from another (the benchmark does
    exactly this); one lock guards partition and group state.
    """

    def __init__(
        self,
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        fault_injector: FaultInjector | None = None,
        registry=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.segment_records = segment_records
        self.injector = fault_injector
        self.partitions: dict[str, Partition] = {}
        #: partition keys in sorted order and each key's index in that
        #: order — a poll's round-robin scan is arithmetic on the rank
        self._keys: list[str] = []
        self._rank: dict[str, int] = {}
        self.groups: dict[str, ConsumerGroup] = {}
        self.stats = BrokerStats()
        self._stalled: str | None = None
        self._lock = threading.Lock()
        self._clock = clock
        #: pinned here: each group's views are attached where the
        #: broker's are, whatever the default registry is by then
        self._registry = registry if registry is not None else default_registry()
        registry = self._registry
        stats = self.stats
        wellknown.broker_published(registry).view(stats, "published")
        wellknown.broker_publish_refused(registry).view(stats, "publish_refused")
        wellknown.broker_commits_lost(registry).view(stats, "commits_lost")
        wellknown.broker_partitions(registry).view(self._keys, len)
        wellknown.broker_partition_stalls(registry).view(stats, "stall_events")
        self._m_queue_age = wellknown.broker_queue_age_seconds(registry).labels()

    # -- publishing ----------------------------------------------------

    def publish(
        self,
        message: SyslogMessage,
        *,
        key: str | None = None,
        ident: int | None = None,
        offset: int | None = None,
        ctx: TraceContext | None = None,
    ) -> int | None:
        """Append ``message`` to its partition: :meth:`publish_many` of one.

        Returns the offset it landed at, or ``None`` when the partition
        is stalled (the caller must count the refusal — nothing here is
        silent).
        """
        return self.publish_many(
            (message,), keys=(key,), idents=(ident,), offsets=(offset,), ctxs=(ctx,)
        )[0]

    def publish_many(
        self,
        messages: Sequence[SyslogMessage],
        *,
        keys: Sequence[str | None] | None = None,
        idents: Sequence[int | None] | None = None,
        offsets: Sequence[int | None] | None = None,
        ctxs: Sequence[TraceContext | None] | None = None,
    ) -> list[int | None]:
        """Append ``messages`` in order; returns one entry per message.

        An entry is the offset the message landed at, or ``None`` where
        its partition is stalled (the caller must count the refusal —
        nothing here is silent).  The keyword arguments are columns
        parallel to ``messages``; an omitted column, or a ``None`` in
        it, means the default for that message, and a column of another
        length raises ``ValueError`` before anything is appended.  A
        message is keyed by its hostname unless ``keys`` names its
        partition.  ``offsets`` pins explicit (sparse) offsets for
        durable replay; otherwise the partition's next dense offset is
        used.  ``ctxs`` attaches sampled trace contexts: the publish hop
        is recorded and the stored record carries the chained context
        for the consumer side.

        One lock and one clock read for the whole call; every message
        is one ``broker.partition_stall`` arming check, in order; the
        consumer groups' ready/lag bookkeeping runs once per partition
        the call appended to.
        """
        n = len(messages)
        if (
            keys is not None and len(keys) != n or idents is not None and len(idents) != n
            or offsets is not None and len(offsets) != n or ctxs is not None and len(ctxs) != n
        ):
            raise ValueError(_length_error(n, keys=keys, idents=idents, offsets=offsets, ctxs=ctxs))
        out: list[int | None] = [None] * n
        injector = self.injector
        partitions = self.partitions
        #: each partition appended to → its next offset before this call
        ends: dict[str, int] = {}
        published = refused = 0
        with self._lock:
            pub_s = self._clock()
            try:
                for i, message in enumerate(messages):
                    key = None if keys is None else keys[i]
                    if key is None:
                        key = message.hostname
                    if injector is not None and injector.should_fire(SITE_PARTITION_STALL):
                        if self._stalled is None:
                            self._stalled = key
                            self.stats.stall_events += 1
                        else:
                            self._stalled = None
                    if self._stalled == key:
                        refused += 1
                        continue
                    part = partitions.get(key)
                    if part is None:
                        part = self._open_partition(key)
                    ctx = None if ctxs is None else ctxs[i]
                    if ctx is not None:
                        ctx = record_hop(ctx, "broker.publish", pub_s, partition=key)
                    end = part.next_offset
                    offset = None if offsets is None else offsets[i]
                    if offset is None:
                        offset = end
                    part.append(offset, message, None if idents is None else idents[i], ctx, pub_s)
                    if key not in ends:
                        ends[key] = end
                    out[i] = offset
                    published += 1
            finally:
                # a non-monotonic offset raises mid-batch: what landed
                # before it is accounted all the same
                self._account_publish(ends, published, refused)
        return out

    def _open_partition(self, key: str) -> Partition:
        part = self.partitions[key] = Partition(key, segment_records=self.segment_records)
        keys = self._keys
        born = bisect_left(keys, key)
        keys.insert(born, key)
        for i in range(born, len(keys)):
            self._rank[keys[i]] = i
        return part

    def _account_publish(self, ends: dict[str, int], published: int, refused: int) -> None:
        """Groups, stats and counters after a publish (lock held)."""
        groups = self.groups.values()
        for key, end in ends.items():
            grown = self.partitions[key].next_offset - end
            for g in groups:
                g.ready.add(key)
                # lag grows by what lands past the committed offset
                ahead = g.committed.get(key, 0) - end
                if ahead < grown:
                    g.lag += grown - ahead if ahead > 0 else grown
                    g.uncommitted.add(key)
        stats = self.stats
        stats.publish_refused += refused
        stats.published += published

    # -- consumer groups -----------------------------------------------

    def _group(self, name: str) -> ConsumerGroup:
        group = self.groups.get(name)
        if group is None:
            group = self.groups[name] = ConsumerGroup(name=name)
            # nothing committed, no cursor anywhere: every partition is
            # ready and everything it holds is lag
            group.ready.update(self._keys)
            for key, part in self.partitions.items():
                if part.next_offset > 0:
                    group.lag += part.next_offset
                    group.uncommitted.add(key)
            registry = self._registry
            for family, read in (
                (wellknown.broker_polled, "polled"), (wellknown.broker_commits, "commits"),
                (wellknown.broker_lag, "lag_seen"), (wellknown.broker_lag_age_seconds, "lag_age"),
            ):
                family(registry).view(group, read, group=name)
        return group

    def _advance_committed(self, g: ConsumerGroup, key: str, offset: int) -> None:
        """Max-wins commit that keeps ``lag`` and ``uncommitted`` exact.

        ``offset`` may lie past the partition's end (offsets restored
        before a sparse replay): the partition's lag clamps at zero.
        """
        old = g.committed.get(key, 0)
        if offset <= old:
            return
        g.committed[key] = offset
        part = self.partitions.get(key)
        end = part.next_offset if part is not None else 0
        if end > old:
            g.lag -= min(end, offset) - old
            if offset >= end:
                g.uncommitted.discard(key)

    def subscribe(self, group: str) -> None:
        """Open ``group`` (idempotent): its metric series exist before a poll."""
        with self._lock:
            self._group(group)

    def poll(self, group: str, member: str | None = None, *, max_records: int = 256) -> RecordBatch:
        """Fetch up to ``max_records`` from the group's partitions
        (``member`` is ignored: a group has one consumer).

        Starts each partition at the group's live position (initially
        the committed offset) and advances it past what is returned,
        visiting the ready ones in round-robin order.  Stalled
        partitions are skipped — their lag simply grows.  A budget of
        zero or less returns nothing and moves no cursor.  The records
        come back as one :class:`RecordBatch` of columns (an empty
        poll's is a shared, read-only one).
        """
        out = _NO_RECORDS
        with self._lock:
            g = self.groups.get(group) or self._group(group)
            if g.ready and max_records > 0:
                out = RecordBatch()
                rank, cursor, n = self._rank, g.rr_cursor, len(self._keys)
                taken = 0
                positions, stalled = g.positions, self._stalled
                for key in sorted(g.ready, key=lambda key: (rank[key] - cursor) % n):
                    if key == stalled:
                        continue
                    part = self.partitions[key]
                    pos = positions.get(key)
                    if pos is None:
                        pos = positions[key] = g.committed.get(key, 0)
                    if part.read_into(out, pos, max_records - taken):
                        taken = len(out.offsets)
                        pos = positions[key] = out.offsets[-1] + 1
                    if pos >= part.next_offset:
                        g.ready.discard(key)
                    if taken >= max_records:
                        break
                self.stats.polled += taken
                g.polled += taken
                # queue-age dwell: traced records only, free when untraced
                if taken and out.ctxs.count(None) != taken:
                    now = self._clock()
                    for ctx, pub_s in zip(out.ctxs, out.pub_s):
                        if ctx is not None and pub_s is not None:
                            self._m_queue_age.observe(now - pub_s)
            if max_records > 0 and self._keys:
                g.rr_cursor = (g.rr_cursor + 1) % len(self._keys)
                # what the lag gauges read: taken per poll, not per commit
                g.lag_seen = g.lag
                g.lag_age = self._lag_age(g) if g.uncommitted else 0.0
            return out

    def commit(self, group: str, partition: str, offset: int) -> bool:
        """Commit ``offset`` for one partition: :meth:`commit_many` of one.

        Returns False when the ``broker.commit_lost`` site eats it.
        """
        return self.commit_many(group, {partition: offset}) == 1

    def commit_many(self, group: str, offsets: Mapping[str, int]) -> int:
        """Commit each partition's offset (the next offset to read).

        One lock for the whole map, whatever partitions it spans; each
        partition is one ``broker.commit_lost`` arming check, in the
        map's order.  Commits are max-wins — a stale commit never
        rewinds progress.  Returns how many commits landed: the site
        eats the others, the journal remains the durable source of
        truth, and replay after a crash re-delivers from the stale
        offset (at-least-once).
        """
        injector = self.injector
        landed = 0
        with self._lock:
            g = None
            for partition, offset in offsets.items():
                if injector is not None and injector.should_fire(SITE_COMMIT_LOST):
                    self.stats.commits_lost += 1
                    continue
                if g is None:
                    g = self._group(group)
                self._advance_committed(g, partition, offset)
                landed += 1
            if landed:
                self.stats.commits += landed
                g.commits += landed
        return landed

    def committed(self, group: str, partition: str) -> int:
        """The group's committed offset for ``partition`` (0 if none)."""
        with self._lock:
            return self._group(group).committed.get(partition, 0)

    def restore_offsets(self, group: str, offsets: dict[str, int]) -> None:
        """Seed committed offsets (and cursors) from the durable journal.

        Called on crash recovery *before* consumers poll: the journal's
        flush records — not the broker's lost in-memory state — define
        where consumption resumes.
        """
        with self._lock:
            g = self._group(group)
            for partition, offset in offsets.items():
                self._advance_committed(g, partition, offset)
                g.positions.pop(partition, None)
                if partition in self.partitions:
                    g.ready.add(partition)

    def reset_to_committed(self, group: str) -> None:
        """Drop live cursors; the next poll re-reads from committed."""
        with self._lock:
            g = self._group(group)
            g.positions.clear()
            g.ready.update(self._keys)

    # -- introspection -------------------------------------------------

    def _lag_age(self, g: ConsumerGroup) -> float:
        """Age of the group's oldest uncommitted record, in clock seconds.

        Lag in *records* says how much is queued; lag in *seconds* says
        how stale the consumer is — the signal an autoscaler actually
        wants.  0.0 when fully caught up.
        """
        now = self._clock()
        oldest: float | None = None
        for key in g.uncommitted:
            pub_s = self.partitions[key].pub_s_at(g.committed.get(key, 0))
            if pub_s is not None and (oldest is None or pub_s < oldest):
                oldest = pub_s
        return 0.0 if oldest is None else max(0.0, now - oldest)

    def lag_age(self, group: str) -> float:
        """Public wrapper: oldest-uncommitted-record age for ``group``."""
        with self._lock:
            return self._lag_age(self._group(group))

    def lag(self, group: str) -> int:
        """Records published but not yet committed by ``group``.

        Computed against ``next_offset``, so sparse replays (gaps from
        already-settled events) do not inflate it.
        """
        with self._lock:
            return self._group(group).lag

    def total_records(self) -> int:
        """Records currently held across every partition."""
        with self._lock:
            return sum(len(p) for p in self.partitions.values())

    @property
    def stalled_partition(self) -> str | None:
        return self._stalled

    def describe(self) -> dict:
        """A JSON-ready snapshot for summaries and debugging."""
        with self._lock:
            return {
                "partitions": {
                    key: {"records": len(p), "next_offset": p.next_offset,
                          "segments": p.n_segments}
                    for key, p in sorted(self.partitions.items())
                },
                "groups": {
                    name: {"committed": dict(sorted(g.committed.items())),
                           "lag": g.lag}
                    for name, g in sorted(self.groups.items())
                },
                "stats": vars(self.stats).copy(),
                "stalled": self._stalled,
            }
