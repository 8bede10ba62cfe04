"""Syslog wire formats: RFC 3164 / RFC 5424 rendering and parsing.

The Darwin test-bed forwards node syslog in both RFC 3164 ("BSD
syslog") and RFC 5424 framing depending on vendor and firmware age
(§4.2) — the heterogeneity of framing is itself part of what makes the
corpus heterogeneous.  This module is the single source of truth for
both directions of the wire format; ``repro.datagen`` senders render
with it and the ``repro.ingest`` listener parses with it, so a
formatting change can never desynchronise the two.

Timestamps use the simulation calendar: fixed 30-day months and
360-day years anchored at 2023-01-01, so render→parse round-trips are
exact (to whole seconds) without ever touching the host clock.

A line is read in one pass: PRI from a table of the 192 valid values,
the rest in one regex match (RFC 5424 tried first, then RFC 3164), and
the timestamp string looked up in a small clear-on-full memo before it
is parsed field by field — consecutive lines share a second.  Host and
app names go through a memo of the same kind, so the lines of one host
hold one copy of its name.  The regex chain this replaced is kept in
``tests/reference_door.py``; the two agree on every message and every
error string.

Two parsing entry points:

``parse_line``
    Strict; raises :class:`ValueError` on anything unparseable.
    Used where the caller controls the input (tests, trace replay).
``safe_parse_line``
    Total; never raises.  Accepts raw ``bytes`` straight off a
    socket, enforces a size cap, survives NUL bytes, truncated UTF-8
    and malformed PRI/timestamps, and returns ``(message, error)``
    where exactly one side is ``None``.  This is the listener's
    accept path: garbage is quarantined, not thrown.
"""

from __future__ import annotations

import re

from repro.core.message import Facility, Severity, SyslogMessage

__all__ = [
    "MAX_LINE_BYTES",
    "format_rfc3164",
    "format_rfc5424",
    "parse_line",
    "safe_parse_line",
]

# Default cap on a single wire line; RFC 5424 §6.1 lets transports
# limit message length — 8 KiB is the conventional datagram ceiling.
MAX_LINE_BYTES = 8192

_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTH_INDEX = {m: i + 1 for i, m in enumerate(_MONTHS)}

_SECONDS_PER_DAY = 86400.0
# Simulation epoch: days roll over every 86400 s; month length fixed at
# 30 days — good enough for rendering/parsing round trips in the
# simulator, which never crosses real calendar boundaries.
_DAYS_PER_MONTH = 30

# PRI → (severity, facility), one entry per valid PRI value:
# Severity(x)/Facility(x) go through EnumMeta.__call__, which dominates
# the per-line budget at ingest rates.
_FACILITY_BY_CODE = {int(f): f for f in Facility}
_PRI_TABLE = tuple(
    (Severity(pri % 8), _FACILITY_BY_CODE.get(pri // 8, Facility.USER))
    for pri in range(192)
)

#: timestamp strings remembered with their parsed value (consecutive
#: lines share a second); cleared when full.  Only a stamp that passed
#: validation is ever kept, so a hit needs no re-check, and only one of
#: at most ``_STAMP_CHARS`` characters, so a sender cannot fill the memo
#: with line-long keys.
STAMP_MEMO_MAX_ENTRIES = 4096
_STAMPS: dict[str, float] = {}
# ``YYYY-MM-DDTHH:MM:SS``: all of an RFC 5424 stamp that ``_ISO_RE``
# reads (a fraction or an offset after it changes nothing), and longer
# than the ``Mmm dd HH:MM:SS`` of RFC 3164 — whose ``\s+`` lets a sender
# stretch it to the line cap
_STAMP_CHARS = 19

#: host and app names, each kept as the one string every line carrying it
#: shares, where a fresh copy per line was two of the three strings a
#: stored line holds.  It pays only where names repeat: the spine's
#: workloads carry 11-200 hosts and 21-24 apps, and hit it on >99.6% of
#: lookups.  A name that never repeats costs a miss and an insert, and
#: such names clear the memo every ``NAME_MEMO_MAX_ENTRIES``.  Same rules as
#: ``_STAMPS``: cleared when full, and only a name of at most
#: ``_NAME_CHARS`` characters is kept.  Not ``sys.intern``: these are
#: untrusted wire input, and the interpreter's table has no bound.
NAME_MEMO_MAX_ENTRIES = 4096
_NAMES: dict[str, str] = {}
_NAME_CHARS = 64


def _format_bsd_time(ts: float) -> str:
    day_total = int(ts // _SECONDS_PER_DAY)
    month = _MONTHS[(day_total // _DAYS_PER_MONTH) % 12]
    day = day_total % _DAYS_PER_MONTH + 1
    rem = int(ts % _SECONDS_PER_DAY)
    return f"{month} {day:2d} {rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"


def _format_iso_time(ts: float) -> str:
    day_total = int(ts // _SECONDS_PER_DAY)
    year = 2023 + day_total // 360
    month = (day_total // _DAYS_PER_MONTH) % 12 + 1
    day = day_total % _DAYS_PER_MONTH + 1
    rem = int(ts % _SECONDS_PER_DAY)
    return (
        f"{year:04d}-{month:02d}-{day:02d}T"
        f"{rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}Z"
    )


def format_rfc3164(msg: SyslogMessage) -> str:
    """Render in BSD-syslog framing (no year, local timestamp)."""
    tag = f"{msg.app}[{msg.pid}]" if msg.pid is not None else msg.app
    ts = _format_bsd_time(msg.timestamp)
    return f"<{msg.pri}>{ts} {msg.hostname} {tag}: {msg.text}"


def format_rfc5424(msg: SyslogMessage) -> str:
    """Render in RFC 5424 framing (version 1, no structured data)."""
    pid = str(msg.pid) if msg.pid is not None else "-"
    ts = _format_iso_time(msg.timestamp)
    return f"<{msg.pri}>1 {ts} {msg.hostname} {msg.app} {pid} - - {msg.text}"


# What follows the PRI, RFC 5424 tried before RFC 3164.  Groups are
# positional (one ``groups()`` call reads a line): the 5424 stamp, host,
# app, procid and text; then the 3164 stamp whole (the memo key) and in
# its five parts, host, tag, pid and text.
_LINE_RE = re.compile(
    r"1\s(\S+)\s(\S+)\s(\S+)\s(\S+)\s\S+\s(?:-|\[.*?\])\s?(.*)$"
    r"|(([A-Z][a-z]{2})\s+(\d{1,2})\s(\d{2}):(\d{2}):(\d{2}))\s"
    r"(\S+)\s([^:\[]+)(?:\[(\d+)\])?:\s?(.*)$"
)
_ISO_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})")


def parse_line(line: str) -> SyslogMessage:
    """Parse an RFC 3164 or RFC 5424 syslog line.

    Severity/facility default to INFO/USER when no PRI field is
    present (some vendors omit it when writing to local files).

    Raises
    ------
    ValueError
        If the line matches neither format.
    """
    severity, facility = Severity.INFO, Facility.USER
    if line[:1] == "<":
        # ``<`` + one to three decimal digits + ``>``; ``isdecimal`` is
        # the ``\d`` of a str pattern (any script's digits, as ``int``
        # reads them)
        end = line.find(">", 2, 5)
        digits = line[1:end]
        if end != -1 and digits.isdecimal():
            pri = int(digits)
            if pri > 191:
                raise ValueError(f"invalid PRI value {pri} in syslog line: {line!r}")
            severity, facility = _PRI_TABLE[pri]
            line = line[end + 1:]

    m = _LINE_RE.match(line)
    if m is None:
        raise ValueError(f"unparseable syslog line: {line!r}")
    iso, host5, app, procid, text5, bsd, mon, day, h, mi, s, host, tag, pid_s, text = m.groups()
    if iso is not None:
        second = iso[:_STAMP_CHARS]
        ts = _STAMPS.get(second)
        if ts is None:
            ts = _remember(second, _parse_iso_time(iso))
        return SyslogMessage(
            ts, _NAMES.get(host5) or _share(host5), _NAMES.get(app) or _share(app),
            text5, severity, facility,
            int(procid) if procid.isdigit() else None,
        )

    ts = _STAMPS.get(bsd)
    if ts is None:
        mon = _MONTH_INDEX.get(mon)
        if mon is None:
            raise ValueError(f"unrecognized month in syslog line: {line!r}")
        day = int(day)
        if not 1 <= day <= _DAYS_PER_MONTH:
            raise ValueError(f"day {day} out of range in syslog line: {line!r}")
        day_total = (mon - 1) * _DAYS_PER_MONTH + day - 1
        ts = _remember(
            bsd, float(day_total * _SECONDS_PER_DAY + _clock_seconds(h, mi, s, line))
        )
    app = tag.strip()
    return SyslogMessage(
        ts, _NAMES.get(host) or _share(host), _NAMES.get(app) or _share(app),
        text, severity, facility,
        int(pid_s) if pid_s else None,
    )


def _remember(stamp: str, ts: float) -> float:
    if len(stamp) <= _STAMP_CHARS:
        if len(_STAMPS) >= STAMP_MEMO_MAX_ENTRIES:
            _STAMPS.clear()
        _STAMPS[stamp] = ts
    return ts


def _share(name: str) -> str:
    if len(name) <= _NAME_CHARS:
        if len(_NAMES) >= NAME_MEMO_MAX_ENTRIES:
            _NAMES.clear()
        _NAMES[name] = name
    return name


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
    year, month, day, h, mi, s = m.groups()
    month, day = int(month), int(day)
    if not 1 <= month <= 12 or not 1 <= day <= _DAYS_PER_MONTH:
        raise ValueError(f"date out of range in RFC5424 timestamp: {ts!r}")
    day_total = (
        (int(year) - 2023) * 360
        + (month - 1) * _DAYS_PER_MONTH
        + day - 1
    )
    return day_total * _SECONDS_PER_DAY + _clock_seconds(h, mi, s, ts)


def safe_parse_line(
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
        return parse_line(line), None
    except ValueError as exc:
        return None, f"unparseable: {exc}"
    except Exception as exc:  # pragma: no cover - belt and braces
        return None, f"parser error: {type(exc).__name__}: {exc}"
