"""The front door as it was written before the deal, the capture and the
parse were replaced in place — the oracle, and the counting doubles.

Everything in the first half is the parent commit's code (df581c3), kept
verbatim (house style of ``tests/reference_consumer.py`` and
``tests/reference_textproc.py``) so ``tests/test_fuzz_properties.py`` can
hold what replaced it to bit-equality and
``benchmarks/bench_ingest_broker.py::test_front_door_lane`` can time it
beside the new code:

* :class:`ReferenceQuota` — ``DeficitRoundRobin`` with the ``_distribute``
  that rotated the whole ring once per quantum dealt, and the
  ``_admit_tenant`` that scanned every tenant for the least recently
  seen one (its ``allow`` overwrites the last-seen stamp in place, as the
  parent's did);
* :func:`reference_parse_line`, :func:`reference_safe_parse_line` — the
  regex chain: PRI, RFC 5424, RFC 3164 and the ISO stamp each their own
  ``match``, every field read through a named group, no memo;
* :class:`ReferenceDeadLetterQueue` — ``DeadLetterQueue`` with the
  ``_append`` that evicted with ``del entries[0]`` and the ``_count``
  that imported the catalogue and resolved family and child per push;
* :class:`ReferenceTcpListener` — ``SyslogListener`` with the TCP door
  it had before the per-connection protocol (commit 112b942):
  ``_serve_tcp``, a task per connection reading a ``StreamReader``, one
  wake-up per chunk (``tests/test_ingest.py`` drives it with
  ``_ChunkedReader`` beside the protocol fed the same chunks).

The second half is the instrumented doubles
``tests/test_perf_smoke.py::TestFrontDoorFloors`` states its floors in:
:class:`CountedQuota` (ring visits and grants per deal),
:class:`CountedReading` (last-seen comparisons per eviction),
:func:`counted_registry` (family get-or-creates and ``labels()`` calls)
and :func:`counted_matches` (``re.Pattern.match`` calls per line).

Not collected by pytest (no ``test_`` prefix); nothing under ``src/``
imports it.
"""

from __future__ import annotations

import asyncio
import re
from contextlib import contextmanager

import pytest

from repro.core.message import Facility, Severity, SyslogMessage
from repro.faults.dlq import DeadLetter, DeadLetterQueue
from repro.ingest.listener import SyslogListener
from repro.ingest.quota import DeficitRoundRobin
from repro.obs.metrics import MetricsRegistry, _Family
from repro.stream import rfc as rfc_mod
from repro.stream.rfc import MAX_LINE_BYTES

# -- the deal ----------------------------------------------------------------


class ReferenceQuota(DeficitRoundRobin):
    """The quota with the parent's own deal and eviction."""

    def allow(self, tenant: str) -> bool:
        """True to admit one line for ``tenant``, False to shed it."""
        with self._lock:
            now = self._clock()
            self._settle(now)
            self._last_seen[tenant] = now
            if tenant not in self._deficits:
                self._admit_tenant(tenant)
            if self._deficits[tenant] < 1.0 and self._pool >= self.quantum:
                self._distribute()
            if self._deficits[tenant] >= 1.0:
                self._deficits[tenant] -= 1.0
                return True
            return False

    def _admit_tenant(self, tenant: str) -> None:
        if len(self._deficits) >= self.max_tenants:
            stale = min(self._ring, key=lambda t: self._last_seen.get(t, 0.0))
            self._pool = min(
                self.burst, self._pool + self._deficits.pop(stale)
            )
            self._ring.remove(stale)
            self._last_seen.pop(stale, None)
        self._deficits[tenant] = 0.0
        self._ring.append(tenant)

    def _distribute(self) -> None:
        """Deal the pool round-robin, one quantum per tenant per visit.

        Stops when the pool cannot fund another quantum or a full pass
        grants nothing (every tenant at its fair-share cap).
        """
        n = len(self._ring)
        if n == 0:
            return
        cap = max(self.quantum, self.burst / n)
        stalled = 0
        while self._pool >= self.quantum and stalled < n:
            tenant = self._ring[0]
            self._ring.rotate(-1)
            take = min(self.quantum, cap - self._deficits[tenant], self._pool)
            if take <= 0:
                stalled += 1
                continue
            stalled = 0
            self._deficits[tenant] += take
            self._pool -= take


# -- the parse ---------------------------------------------------------------

_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTH_INDEX = {m: i + 1 for i, m in enumerate(_MONTHS)}
_SECONDS_PER_DAY = 86400.0
_DAYS_PER_MONTH = 30
_SEVERITY_BY_CODE = tuple(Severity(i) for i in range(8))
_FACILITY_BY_CODE = {int(f): f for f in Facility}

_PRI_RE = re.compile(r"^<(\d{1,3})>")
_BSD_RE = re.compile(
    r"^(?P<mon>[A-Z][a-z]{2})\s+(?P<day>\d{1,2})\s"
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2})\s"
    r"(?P<host>\S+)\s(?P<tag>[^:\[]+)(?:\[(?P<pid>\d+)\])?:\s?(?P<text>.*)$"
)
_5424_RE = re.compile(
    r"^1\s(?P<ts>\S+)\s(?P<host>\S+)\s(?P<app>\S+)\s(?P<pid>\S+)\s\S+\s(?:-|\[.*?\])\s?"
    r"(?P<text>.*)$"
)
_ISO_RE = re.compile(
    r"^(?P<Y>\d{4})-(?P<M>\d{2})-(?P<D>\d{2})T(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2})"
)


def reference_parse_line(line: str) -> SyslogMessage:
    """Parse an RFC 3164 or RFC 5424 syslog line.

    Severity/facility default to INFO/USER when no PRI field is
    present (some vendors omit it when writing to local files).

    Raises
    ------
    ValueError
        If the line matches neither format.
    """
    severity, facility = Severity.INFO, Facility.USER
    m = _PRI_RE.match(line)
    if m:
        pri = int(m.group(1))
        if pri > 191:
            raise ValueError(f"invalid PRI value {pri} in syslog line: {line!r}")
        severity = _SEVERITY_BY_CODE[pri % 8]
        facility = _FACILITY_BY_CODE.get(pri // 8, Facility.USER)
        line = line[m.end():]

    m5 = _5424_RE.match(line)
    if m5:
        ts = _parse_iso_time(m5.group("ts"))
        pid_s = m5.group("pid")
        return SyslogMessage(
            timestamp=ts,
            hostname=m5.group("host"),
            app=m5.group("app"),
            text=m5.group("text"),
            severity=severity,
            facility=facility,
            pid=int(pid_s) if pid_s.isdigit() else None,
        )

    mb = _BSD_RE.match(line)
    if mb:
        mon = _MONTH_INDEX.get(mb.group("mon"))
        if mon is None:
            raise ValueError(f"unrecognized month in syslog line: {line!r}")
        day = int(mb.group("day"))
        if not 1 <= day <= _DAYS_PER_MONTH:
            raise ValueError(f"day {day} out of range in syslog line: {line!r}")
        day_total = (mon - 1) * _DAYS_PER_MONTH + day - 1
        ts = (
            day_total * _SECONDS_PER_DAY
            + _clock_seconds(mb.group("h"), mb.group("m"), mb.group("s"), line)
        )
        pid_s = mb.group("pid")
        return SyslogMessage(
            timestamp=float(ts),
            hostname=mb.group("host"),
            app=mb.group("tag").strip(),
            text=mb.group("text"),
            severity=severity,
            facility=facility,
            pid=int(pid_s) if pid_s else None,
        )
    raise ValueError(f"unparseable syslog line: {line!r}")


def _clock_seconds(h: str, m: str, s: str, context: str) -> int:
    """Validated HH:MM:SS → seconds; hostile digits must not parse."""
    hh, mm, ss = int(h), int(m), int(s)
    if hh > 23 or mm > 59 or ss > 59:
        raise ValueError(
            f"time {hh:02d}:{mm:02d}:{ss:02d} out of range in: {context!r}"
        )
    return hh * 3600 + mm * 60 + ss


def _parse_iso_time(ts: str) -> float:
    m = _ISO_RE.match(ts)
    if not m:
        raise ValueError(f"unparseable RFC5424 timestamp: {ts!r}")
    month, day = int(m.group("M")), int(m.group("D"))
    if not 1 <= month <= 12 or not 1 <= day <= _DAYS_PER_MONTH:
        raise ValueError(f"date out of range in RFC5424 timestamp: {ts!r}")
    day_total = (
        (int(m.group("Y")) - 2023) * 360
        + (month - 1) * _DAYS_PER_MONTH
        + day - 1
    )
    return (
        day_total * _SECONDS_PER_DAY
        + _clock_seconds(m.group("h"), m.group("m"), m.group("s"), ts)
    )


def reference_safe_parse_line(
    raw: bytes | str, *, max_bytes: int = MAX_LINE_BYTES
) -> tuple[SyslogMessage | None, str | None]:
    """Parse hostile wire input without ever raising.

    Returns ``(message, None)`` on success, ``(None, reason)`` on any
    failure — oversize input, empty lines, undecodable bytes, or lines
    neither RFC matches.  ``reason`` is a short machine-greppable slug
    followed by detail, suitable for a dead-letter record.
    """
    try:
        if isinstance(raw, bytes):
            if max_bytes is not None and len(raw) > max_bytes:
                return None, f"oversize: {len(raw)} bytes > {max_bytes}"
            line = raw.decode("utf-8", errors="replace")
        else:
            if max_bytes is not None and len(raw) > max_bytes:
                return None, f"oversize: {len(raw)} chars > {max_bytes}"
            line = raw
        # Trailing frame noise: newline framing and NUL padding (some
        # senders NUL-terminate datagrams).
        line = line.strip("\r\n\x00 \t")
        if not line:
            return None, "empty line"
        return reference_parse_line(line), None
    except ValueError as exc:
        return None, f"unparseable: {exc}"
    except Exception as exc:  # pragma: no cover - belt and braces
        return None, f"parser error: {type(exc).__name__}: {exc}"


# -- the capture -------------------------------------------------------------


class ReferenceDeadLetterQueue(DeadLetterQueue):
    """The queue with the parent's own append and count (a ``list`` of
    entries, so ``del entries[0]`` means what it meant): an accessor
    call and a ``labels()`` resolution per count, at a push and at each
    restored entry.  It keeps no views; it declares both families when
    constructed, as the views do."""

    def __init__(self, *, max_entries: int | None = None, registry=None) -> None:
        from repro.obs import wellknown

        self.max_entries, self.registry = max_entries, registry
        self._entries: list[DeadLetter] = []
        self._next_seq = self.n_evicted = 0
        wellknown.faults_dead_letters(registry)
        wellknown.faults_dlq_evicted(registry)

    def _append(self, site: str, payload, error: str, context: dict) -> DeadLetter:
        self._next_seq += 1
        entry = DeadLetter(
            seq=self._next_seq, site=site, payload=payload,
            error=error, context=context,
        )
        self._entries.append(entry)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            del self._entries[0]
            self.n_evicted += 1
            from repro.obs import wellknown

            wellknown.faults_dlq_evicted(self.registry).inc()
        return entry

    def push(self, site: str, payload, error: str, **context) -> DeadLetter:
        """Capture one message; returns its record."""
        entry = self._append(site, payload, error, dict(context))
        self._count(site, 1)
        return entry

    def restore(self, entries) -> int:
        n = 0
        for e in entries:
            self._append(e.site, e.payload, e.error, dict(e.context))
            self._count(e.site, 1)
            n += 1
        return n

    def _count(self, site: str, n: int) -> None:
        from repro.obs import wellknown

        wellknown.faults_dead_letters(self.registry).inc(n, site=site)


# -- counting doubles ----------------------------------------------------------


# -- the TCP door -------------------------------------------------------------


class ReferenceTcpListener(SyslogListener):
    """The listener with the parent's task-per-connection TCP door."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tcp_tasks: set[asyncio.Task] = set()

    async def _serve_tcp(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        if task is not None:
            self._tcp_tasks.add(task)
            task.add_done_callback(self._tcp_tasks.discard)
        buf = b""
        # a line that outgrows the cap is quarantined once, then bytes
        # are discarded until its newline finally arrives
        skipping = False
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                # one split per chunk: slicing the buffer once per line
                # would copy its remainder once per line
                lines = chunk.split(b"\n")
                lines[0] = buf + lines[0]
                buf = lines.pop()  # unterminated tail, b"" after a newline
                # the chunk's admitted lines go to the broker in one call
                messages: list = []
                ctxs: list = []
                for line in lines:
                    if skipping:
                        skipping = False  # the oversize line's newline
                    elif line:
                        self._admit(line, "tcp", messages, ctxs)
                if messages:
                    self._publish(messages, ctxs, "tcp")
                if skipping:
                    buf = b""
                elif len(buf) > self.max_line_bytes:
                    self._handle_line(buf, udp=False)  # counted oversize
                    buf = b""
                    skipping = True
            if buf and not skipping:
                self._handle_line(buf, udp=False)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()


class _CountingTable(dict):
    """A deficit table that counts its reads and its writes."""

    reads = writes = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


class _CountedDeals:
    """Mixin: ``deals`` gains ``(tenants, grants, ring visits)`` per
    ``_distribute`` — a ring visit is one read of a tenant's deficit
    inside the deal, a grant one write of it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._deficits = _CountingTable()
        self.deals: list[tuple[int, int, int]] = []

    def _distribute(self) -> None:
        table = self._deficits
        reads, writes = table.reads, table.writes
        super()._distribute()
        self.deals.append((len(table), table.writes - writes, table.reads - reads))


class CountedQuota(_CountedDeals, DeficitRoundRobin):
    """The quota, its deals counted."""


class CountedReferenceQuota(_CountedDeals, ReferenceQuota):
    """The parent's quota, its deals counted."""


class CountedReading(float):
    """A clock reading that counts every comparison made with it."""

    comparisons = 0

    def _counting(name):
        def compare(self, other):
            CountedReading.comparisons += 1
            return getattr(float, name)(self, other)
        return compare

    __lt__, __le__, __gt__, __ge__ = map(_counting, ("__lt__", "__le__", "__gt__", "__ge__"))
    __eq__, __ne__ = _counting("__eq__"), _counting("__ne__")
    __hash__ = float.__hash__
    del _counting


class FamilyCalls:
    """Family get-or-creates and ``labels()`` resolutions while
    :func:`counted_registry` is open."""

    get_or_creates = labels = 0


@contextmanager
def counted_registry():
    """Count what a metric report costs on every registry and family."""
    calls = FamilyCalls()
    get_or_create, labels = MetricsRegistry._get_or_create, _Family.labels

    def counting_get_or_create(self, *args, **kwargs):
        calls.get_or_creates += 1
        return get_or_create(self, *args, **kwargs)

    def counting_labels(self, **kwargs):
        calls.labels += 1
        return labels(self, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MetricsRegistry, "_get_or_create", counting_get_or_create)
        mp.setattr(_Family, "labels", counting_labels)
        yield calls


class _CountingPattern:
    def __init__(self, pattern, calls: "MatchCalls") -> None:
        self._pattern, self._calls = pattern, calls

    def match(self, *args):
        self._calls.matches += 1
        return self._pattern.match(*args)

    def __getattr__(self, name):
        return getattr(self._pattern, name)


class MatchCalls:
    """``re.Pattern.match`` calls while :func:`counted_matches` is open."""

    matches = 0


@contextmanager
def counted_matches(module=rfc_mod):
    """Swap every compiled pattern of ``module`` (the parser's, or this
    file's for the oracle) for a counting one."""
    calls = MatchCalls()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                mp.setattr(module, name, _CountingPattern(value, calls))
        yield calls
