"""Harness-side tracing: spans around the calls into each layer.

The spine is assembled from public constructors, so the harness can hand them
timing proxies instead of the real broker, journal and WAL.  Calls made once
per batch record a span (name, start, end, parent, loop iteration); calls made
once per message only add to a count and a nanosecond sum.  A span's self time
is its duration minus whatever its children and per-message calls covered.
Everything stays in memory until the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns, time


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "covered", "n")

    def __init__(self, name, start, parent, iteration, n):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.iteration = iteration
        self.covered = 0  # ns spent in children
        self.n = n  # messages the call handled, when the caller knows

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.covered


class _Open:
    __slots__ = ("rec", "span")

    def __init__(self, rec, span):
        self.rec = rec
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, *exc):
        span, rec = self.span, self.rec
        span.end = perf_counter_ns()
        rec.stack.pop()
        if rec.stack:
            rec.stack[-1].covered += span.end - span.start
        return False


class Recorder:
    """Collects spans and per-message sums for one traced pass."""

    on = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.sums: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.iteration = 0

    def span(self, name: str, n: int = 0) -> _Open:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf_counter_ns(), parent, self.iteration, n)
        self.spans.append(span)
        self.stack.append(span)
        return _Open(self, span)

    def counter(self, name: str) -> list[int]:
        return self.sums.setdefault(name, [0, 0])

    def add(self, counter: list[int], ns: int) -> None:
        counter[0] += 1
        counter[1] += ns
        if self.stack:
            self.stack[-1].covered += ns

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "iteration": s.iteration, "self_ns": s.self_ns, "n": s.n,
                }) + "\n")
            for name, (calls, ns) in sorted(self.sums.items()):
                fh.write(json.dumps({"name": name, "calls": calls, "sum_ns": ns}) + "\n")


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """The untraced pass: same call sites, nothing recorded."""

    on = False
    iteration = 0
    _span = _NoSpan()

    def span(self, name: str, n: int = 0) -> _NoSpan:
        return self._span


class _Proxy:
    def __init__(self, inner, rec: Recorder) -> None:
        self._inner = inner
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedBroker(_Proxy):
    """``LogBroker`` as the listener and the forwarder see it, timed."""

    def __init__(self, inner, rec):
        super().__init__(inner, rec)
        self._publish = rec.counter("ingest.broker.publish")
        self._inner_publish = inner.publish
        self._commit = rec.counter("ingest.broker.commit")
        self._inner_commit = inner.commit
        #: seconds each polled record waited in its partition
        self.queue_ages: list[float] = []

    def publish(self, message, **kwargs):
        t0 = perf_counter_ns()
        record = self._inner_publish(message, **kwargs)
        self._rec.add(self._publish, perf_counter_ns() - t0)
        return record

    def poll(self, group, member="member-0", *, max_records=256):
        with self._rec.span("ingest.broker.poll") as span:
            records = self._inner.poll(group, member, max_records=max_records)
            span.n = len(records)
        with self._rec.span("harness.bookkeeping"):
            now = time()  # the broker's own clock in the fixed configuration
            self.queue_ages.extend([now - r.pub_s for r in records])
        return records

    def commit(self, group, partition, offset):
        # once per partition per flush: too frequent for a span of its own
        t0 = perf_counter_ns()
        ok = self._inner_commit(group, partition, offset)
        self._rec.add(self._commit, perf_counter_ns() - t0)
        return ok


class TimedJournal(_Proxy):
    def __init__(self, inner, rec):
        super().__init__(inner, rec)
        self._accept = rec.counter("durability.recovery.accept")
        self._inner_accept = inner.accept

    def accept(self, event, message):
        t0 = perf_counter_ns()
        self._inner_accept(event, message)
        self._rec.add(self._accept, perf_counter_ns() - t0)

    def flushed(self, n, *, offsets=None):
        with self._rec.span("durability.recovery.flushed", n):
            self._inner.flushed(n, offsets=offsets)


class TimedWal(_Proxy):
    def append(self, kind, data):
        with self._rec.span("durability.wal.append"):
            return self._inner.append(kind, data)

    def sync(self):
        with self._rec.span("durability.wal.sync"):
            self._inner.sync()
