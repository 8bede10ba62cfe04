"""Segmented append-only write-ahead log.

The stream layer's in-memory resilience (retries, DLQ, degraded mode)
resets to zero on every process death; the WAL is what survives.  Each
record is one JSONL line carrying a monotonic sequence number and a
CRC32 over its canonical body, so recovery can tell a committed record
from a torn tail byte-for-byte.  Segments rotate by size; the fsync
policy trades durability-against-power-loss for throughput:

``always``
    flush + fsync after every append — nothing is ever lost, slowest.
``batch`` (default)
    flush to the OS after every append (a SIGKILL therefore loses
    nothing), fsync every ``sync_every`` appends and on rotation,
    close, and explicit :meth:`WriteAheadLog.sync` — so at most one
    batch of records is exposed to a *power* failure.
``off``
    flush to the OS only; fsync never (benchmark baseline).

Recovery is total: scanning stops at the first record that fails to
parse, fails its CRC, or breaks the sequence chain, and everything from
that byte on is truncated (torn writes are expected; corruption never
propagates).  A valid prefix is always recovered, never an exception.

A read holds one record, not the history.  The validating scan reads a
segment a line at a time and keeps no record: :func:`iter_wal` yields
each one as it passes, and :func:`replay_wal` and
:meth:`WriteAheadLog.records` hand back a :class:`WalRecords` view
that makes that same pass, CRC and all, each time it is iterated.
Memory while reading the log back is therefore one record, however
long the log is.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import json
import os
import time
import zlib
from collections.abc import Iterator
from json.encoder import c_make_encoder, encode_basestring_ascii
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import wellknown

__all__ = [
    "FSYNC_POLICIES",
    "JsonText",
    "WalRecord",
    "WalRecords",
    "WalScanInfo",
    "WalStats",
    "WriteAheadLog",
    "iter_wal",
    "replay_wal",
]

#: valid values for :class:`WriteAheadLog`'s ``fsync`` parameter
FSYNC_POLICIES = ("always", "batch", "off")

_SEGMENT_GLOB = "wal-*.jsonl"
_RECORD_KEYS = {"seq", "kind", "data", "crc"}


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One committed log record."""

    seq: int
    kind: str
    data: dict


@dataclass
class WalScanInfo:
    """Outcome of one recovery scan over a WAL directory."""

    #: committed records found
    records: int = 0
    #: sequence number of the last committed record (0 when empty)
    last_seq: int = 0
    #: segment files scanned
    segments: int = 0
    #: torn/corrupt bytes past the last committed record
    truncated_bytes: int = 0
    #: whole segments unreachable behind a torn record
    dropped_segments: int = 0


#: ``json.dumps(data, sort_keys=True, separators=(",", ":"))`` builds an
#: encoder on every call, and so does ``JSONEncoder.encode``; a record is
#: on the per-flush hot path, so the C encoder under them is built once
#: (no circular-reference check: a record's data is a tree)
_json_chunks = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True,
) if c_make_encoder is not None else None


def _encode_json(value) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` writes it."""
    if _json_chunks is None:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "".join(_json_chunks(value, 0))

#: the JSON form of a record kind — a handful of strings, each encoded once
_encode_kind = functools.lru_cache(maxsize=64)(json.dumps)


class JsonText(str):
    """A record's data, or a value in it, already in the encoder's JSON
    form (sorted keys, compact separators, ASCII), spliced into the line
    verbatim.

    Lets a caller that formats its payload in one pass hand it to
    :meth:`WriteAheadLog.append` and get the bytes the equivalent plain
    value would have produced.
    """

    __slots__ = ()


def _encode_data(data: dict) -> str:
    if JsonText not in map(type, data.values()):
        return _encode_json(data)
    return "{%s}" % ",".join(
        "%s:%s" % (_encode_json(key), value if type(value) is JsonText else _encode_json(value))
        for key, value in sorted(data.items())
    )


def _encode_record(seq: int, kind: str, data: dict | JsonText) -> bytes:
    # the canonical body is built by hand (keys in sorted order, compact
    # separators) so one encoding covers both the CRC input and the
    # emitted line
    body = data if type(data) is JsonText else _encode_data(data)
    canon = '{"data":%s,"kind":%s,"seq":%d}' % (body, _encode_kind(kind), seq)
    crc = zlib.crc32(canon.encode("utf-8"))
    return ('%s,"crc":%d}\n' % (canon[:-1], crc)).encode("utf-8")


def _decode_line(line: bytes) -> WalRecord | None:
    """Parse + verify one record line; None on any defect."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(obj, dict) or set(obj) != _RECORD_KEYS:
        return None
    crc = obj.pop("crc")
    try:
        canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    if crc != zlib.crc32(canon.encode("utf-8")):
        return None
    if not isinstance(obj["seq"], int) or not isinstance(obj["data"], dict):
        return None
    return WalRecord(seq=obj["seq"], kind=str(obj["kind"]), data=obj["data"])


def _segment_name(first_seq: int) -> str:
    return f"wal-{first_seq:010d}.jsonl"


def _segment_names(directory: Path) -> list[str]:
    """The segment files in ``directory``, oldest first.

    Names, not paths: a ``Path`` each would cost a long log's listing
    several times what its strings do.
    """
    try:
        return sorted(fnmatch.filter(os.listdir(directory), _SEGMENT_GLOB))
    except (FileNotFoundError, NotADirectoryError):
        return []


def _committed(directory: Path, info: WalScanInfo, *, repair: bool) -> Iterator[WalRecord]:
    """Yield each committed record as the scan validates it.

    Reads every segment a line at a time.  The first record that fails
    validation (or breaks the ``seq`` chain) marks the end of history:
    with ``repair`` the segment is truncated there and any later
    segments are deleted, without it the damage is only measured.
    ``info`` is complete once the generator is exhausted.  Never raises
    on torn/corrupt content.
    """
    expected = 1
    broken = False
    for name in _segment_names(directory):
        seg = directory / name
        if broken:
            info.dropped_segments += 1
            info.truncated_bytes += seg.stat().st_size
            if repair:
                seg.unlink()
            continue
        info.segments += 1
        valid_end = 0
        with seg.open("rb") as fh:
            for line in fh:
                # a last line without its newline is a torn tail
                rec = _decode_line(line[:-1]) if line[-1:] == b"\n" else None
                if rec is None or rec.seq != expected:
                    broken = True
                    break
                expected += 1
                valid_end += len(line)
                # the chain starts at 1, so the count is the last seq
                info.records = info.last_seq = rec.seq
                yield rec
            if broken:
                info.truncated_bytes += os.fstat(fh.fileno()).st_size - valid_end
        if broken and repair:
            if valid_end == 0:
                seg.unlink()
            else:
                with seg.open("r+b") as fh:
                    fh.truncate(valid_end)


def _scan(directory: Path, *, repair: bool) -> WalScanInfo:
    """One validating pass that keeps no record: only its outcome."""
    info = WalScanInfo()
    for _record in _committed(directory, info, repair=repair):
        pass
    return info


def iter_wal(directory: str | Path) -> Iterator[WalRecord]:
    """Yield the committed records of ``directory`` one at a time.

    One read-only validating pass, the same one :func:`replay_wal`
    makes: every record passes its CRC and the ``seq`` chain before it
    is yielded, and the stream ends, without raising, at the first that
    does not.  Nothing is repaired.
    """
    return _committed(Path(directory), WalScanInfo(), repair=False)


class WalRecords:
    """The first ``len()`` committed records of a WAL directory, read
    back one at a time.

    Each iteration is a fresh :func:`iter_wal` pass — the same CRC'd
    decode and ``seq`` chain the scan applies — stopped after ``len()``
    records, so it holds one record, never the history, and the view
    can be iterated more than once.  There is no indexing: take
    ``list()`` for that.  It reads the files when it is iterated, so it
    is valid only while the directory exists: a directory that no
    longer holds ``len()`` valid records (a segment changed, cut or
    gone since the scan) raises ``ValueError`` once the records it
    still holds are yielded.  Records appended after the view was made
    are not part of it.
    """

    __slots__ = ("_directory", "_count")

    def __init__(self, directory: Path, count: int) -> None:
        self._directory = directory
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[WalRecord]:
        n = 0
        for record in itertools.islice(iter_wal(self._directory), self._count):
            n += 1
            yield record
        if n != self._count:
            raise ValueError(
                f"{self._directory} holds {n} of the {self._count} records its scan found"
            )


def replay_wal(directory: str | Path) -> tuple[WalRecords, WalScanInfo]:
    """Read-only recovery scan: the committed records, in order.

    The scan validates every record before this returns, so the
    :class:`WalScanInfo` is complete; the records come back as a
    :class:`WalRecords` view that validates and decodes them again, one
    at a time, when iterated — no list of the history is built.  Torn
    tails and unreachable segments are reported in the info, never
    raised, and the files are left untouched (opening a
    :class:`WriteAheadLog` is what repairs).
    """
    directory = Path(directory)
    info = _scan(directory, repair=False)
    return WalRecords(directory, info.records), info


@dataclass
class WalStats:
    """A log's last sequence number, and what it appended since it opened
    (what the ``repro_wal_last_seq``, ``_bytes_total`` and ``_appends_total`` views read)."""

    last_seq: int = 0
    bytes: int = 0
    #: records appended per record kind
    appends: dict[str, int] = field(default_factory=dict)


class WriteAheadLog:
    """Append-only durable record log over a directory of segments.

    Opening scans (and repairs) existing segments, so appends always
    continue the committed sequence — a torn tail from a previous crash
    is truncated, not extended.  The scan keeps no record.

    Parameters
    ----------
    directory:
        Segment home; created if missing.
    fsync:
        One of :data:`FSYNC_POLICIES` (see module docstring).
    segment_bytes:
        Rotation threshold: a record that would push the current
        segment past this size starts a new one.
    sync_every:
        Appends between fsyncs under the ``batch`` policy.
    registry:
        Metrics registry for the ``repro_wal_*`` families (default:
        the process registry).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "batch",
        segment_bytes: int = 4_000_000,
        sync_every: int = 256,
        registry=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.sync_every = sync_every
        self.stats = stats = WalStats()
        # views and writes in registration (exposition) order
        wellknown.wal_appends(registry).view(stats, "appends")
        self._m_fsyncs = wellknown.wal_fsyncs(registry)
        self._m_rotations = wellknown.wal_rotations(registry)
        self._m_truncated = wellknown.wal_truncated_bytes(registry)
        wellknown.wal_bytes(registry).view(stats, "bytes")
        wellknown.wal_last_seq(registry).view(stats, "last_seq")
        self._m_fsync_seconds = wellknown.wal_fsync_seconds(registry).labels()

        self.recovery = _scan(self.directory, repair=True)
        if self.recovery.truncated_bytes:
            self._m_truncated.inc(self.recovery.truncated_bytes)
        stats.last_seq = self.recovery.last_seq
        self._appends_since_sync = 0
        self._hold = False
        self._fh = None
        self._segment_size = 0
        segments = _segment_names(self.directory)
        if segments:
            last = self.directory / segments[-1]
            size = last.stat().st_size
            if size < self.segment_bytes:
                self._fh = last.open("ab")
                self._segment_size = size

    @property
    def last_seq(self) -> int:
        """Sequence number of the last committed record."""
        return self.stats.last_seq

    def append(self, kind: str, data: dict | JsonText) -> int:
        """Append one record; returns its sequence number.

        ``data`` is a JSON-encodable dict, or a :class:`JsonText` of one;
        a :class:`JsonText` value in the dict is written as is.  The line
        is flushed to the OS before returning under every
        policy, so a SIGKILL after :meth:`append` cannot lose the
        record — only a power failure can, bounded by the fsync policy.
        The one exception is a record appended right after
        :meth:`hold`, which is flushed together with its successor.
        """
        held, self._hold = self._hold, False
        stats = self.stats
        seq = stats.last_seq + 1
        encoded = _encode_record(seq, kind, data)
        size = len(encoded)
        if self._fh is None or self._segment_size + size > self.segment_bytes:
            self._rotate(seq)
        fh = self._fh
        fh.write(encoded)
        self._segment_size += size
        stats.last_seq = seq
        stats.bytes += size
        appends = stats.appends
        appends[kind] = appends.get(kind, 0) + 1
        fsync = self.fsync
        if fsync == "always":
            fh.flush()
            self._fsync()
            return seq
        if not held:
            fh.flush()
        if fsync == "batch":
            self._appends_since_sync += 1
            if self._appends_since_sync >= self.sync_every:
                self.sync()
        return seq

    def hold(self) -> None:
        """Let the next record ride with the one appended after it.

        For a caller about to append two records back to back (the
        journal's write barrier: the pending accepts, then the record
        that moves them): the first stays in the file object's buffer
        and both reach the OS in the second's one ``write`` — same
        sequence numbers, same bytes, rotation and fsync accounting
        still per record.  Until then a SIGKILL can lose the held
        record, so a caller that must be killable between the two does
        not hold.  Ignored under ``always``, whose fsync needs the
        bytes; a rotation, :meth:`sync` or :meth:`close` in between
        flushes the held record early.
        """
        self._hold = True

    def sync(self) -> None:
        """Flush and fsync the current segment (no-op when ``off``)."""
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync != "off":
            self._fsync()

    def close(self) -> None:
        """Sync and release the current segment file handle."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def records(self) -> WalRecords:
        """Every record committed so far, as a :class:`WalRecords` view.

        Builds no list: the view makes one validating pass over the
        directory, a record at a time, each time it is iterated.
        Records appended after this call are not in it.
        """
        if self._fh is not None:
            self._fh.flush()
        return WalRecords(self.directory, self.stats.last_seq)

    # -- internals ---------------------------------------------------------

    def _fsync(self) -> None:
        t0 = time.perf_counter()
        os.fsync(self._fh.fileno())
        self._m_fsync_seconds.observe(time.perf_counter() - t0)
        self._appends_since_sync = 0
        self._m_fsyncs.inc()

    def _rotate(self, first_seq: int) -> None:
        if self._fh is not None:
            self.close()
            self._m_rotations.inc()
        self._fh = (self.directory / _segment_name(first_seq)).open("ab")
        self._segment_size = 0

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog(dir={str(self.directory)!r}, "
            f"last_seq={self.stats.last_seq}, fsync={self.fsync!r})"
        )
