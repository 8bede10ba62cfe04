"""The WAL scan as it was written before reads streamed — the oracle.

``_scan`` below is the parent commit's code (4c9039b), kept verbatim so
``tests/test_durability.py::TestReplayMemory`` can drive it beside what
replaced it.  It reads each segment whole with ``read_bytes`` and
decodes every committed record into one list before the caller sees the
first: ``replay_wal``, ``WriteAheadLog.records`` and ``recover_state``
all built that list.  The streaming scan (``repro.durability.wal``) must
agree with it on every record, every :class:`WalScanInfo` number and
every byte a repair leaves on disk, while holding one record instead
of the history.

Not collected by pytest (no ``test_`` prefix); nothing under ``src/``
imports it.
"""

from __future__ import annotations

from pathlib import Path

from repro.durability.wal import _SEGMENT_GLOB, WalRecord, WalScanInfo, _decode_line


def _scan(
    directory: Path, *, repair: bool
) -> tuple[list[WalRecord], WalScanInfo]:
    """Read every committed record; optionally truncate the torn tail.

    The first record that fails validation (or breaks the ``seq``
    chain) marks the end of history: with ``repair`` the segment is
    truncated there and any later segments are deleted, without it the
    damage is only measured.  Never raises on torn/corrupt content.
    """
    info = WalScanInfo()
    records: list[WalRecord] = []
    expected = 1
    broken = False
    for seg in sorted(directory.glob(_SEGMENT_GLOB)):
        if broken:
            info.dropped_segments += 1
            info.truncated_bytes += seg.stat().st_size
            if repair:
                seg.unlink()
            continue
        info.segments += 1
        raw = seg.read_bytes()
        pos = 0
        valid_end = 0
        while pos < len(raw):
            nl = raw.find(b"\n", pos)
            if nl == -1:
                broken = True  # torn tail: no newline
                break
            rec = _decode_line(raw[pos:nl])
            if rec is None or rec.seq != expected:
                broken = True
                break
            records.append(rec)
            expected += 1
            pos = nl + 1
            valid_end = pos
        if broken:
            info.truncated_bytes += len(raw) - valid_end
            if repair:
                if valid_end == 0:
                    seg.unlink()
                else:
                    with seg.open("r+b") as fh:
                        fh.truncate(valid_end)
    info.records = len(records)
    info.last_seq = records[-1].seq if records else 0
    return records, info


def reference_replay_wal(directory: str | Path) -> tuple[list[WalRecord], WalScanInfo]:
    """``replay_wal`` as it was: the read-only scan's list and info."""
    return _scan(Path(directory), repair=False)
