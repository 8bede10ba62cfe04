"""A write barrier is one write: the journal's pending accepts and the
record that moves them reach the OS together (``WriteAheadLog.hold``).

What must not move: the bytes on disk, the sequence numbers, the
per-record rotation rule, the ``sync_every`` accounting and the
``repro_wal_*`` counts — and a kill scheduled between the two records
(a ``durability.crash`` site that is ``armed()``) must still find only
the first of them on disk, so kill ordinals keep their meaning.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.message import SyslogMessage
from repro.durability import StreamJournal, WriteAheadLog, replay_wal
from repro.durability.wal import _encode_record
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import SITE_CRASH, FaultSpec
from repro.obs import MetricsRegistry, wellknown

_MSG = SyslogMessage(timestamp=1.0, hostname="cn001", app="kernel", text="link up")


def _segments(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("wal-*.jsonl"))}


def _wal_counts(registry) -> dict:
    return {
        "appends": {
            labels["kind"]: child.value
            for labels, child in wellknown.wal_appends(registry).samples()
        },
        "bytes": wellknown.wal_bytes(registry).value(),
        "fsyncs": wellknown.wal_fsyncs(registry).value(),
        "rotations": wellknown.wal_rotations(registry).value(),
        "last_seq": wellknown.wal_last_seq(registry).value(),
    }


class _Flushes:
    """The segment file handle, counting ``flush`` calls."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.flushes = 0

    def flush(self) -> None:
        self.flushes += 1
        self._fh.flush()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _drive(journal: StreamJournal) -> None:
    """Every kind of barrier, with and without accepts pending."""
    event = 0
    for size in (1, 3, 1, 2, 40, 1):
        for _ in range(size):
            journal.accept(event, _MSG)
            event += 1
        journal.flushed(size, offsets={"cn001": event})
    journal.accept(None, _MSG)  # a synthetic identity embeds its body
    journal.accept(event, _MSG)
    journal.reject(event + 1)  # a barrier with accepts pending
    journal.reject(None)  # a barrier with nothing pending
    journal.accept(event + 2, _MSG)
    journal.abandoned(2, "fluentd.flush", "sink refused", offsets={"cn001": event + 3})
    journal.control_state({"setpoints": {"batch": 64}})
    journal.accept(event + 3, _MSG)
    journal.flush_pending()  # a checkpoint's barrier: one record, flushed at once
    journal.accept(event + 4, _MSG)
    journal.requeue_buffer()


def _armed_but_never_firing() -> FaultInjector:
    return FaultInjector(FaultPlan(seed=0, sites={SITE_CRASH: FaultSpec(at_calls=(10**9,))}))


class TestEncoding:
    def test_record_bytes_are_the_json_dumps_ones(self):
        """One module-level encoder and memoized kind strings: the line
        is what the per-call ``json.dumps`` pair produced."""
        for seq, kind, data in (
            (1, "accept", {"events": [3, 1, 2]}),
            (2, "flush", {"events": [1], "offsets": {"cn002": 7, "cn001": 9}}),
            (3, "abandon", {"event": -1, "msg": {"text": "café \ud83d", "n": None, "x": 1.5},
                            "site": "a\"b", "error": "line\nbreak"}),
            (4, "kind \"quoted\" ü", {}),
        ):
            canon = '{"data":%s,"kind":%s,"seq":%d}' % (
                json.dumps(data, sort_keys=True, separators=(",", ":")), json.dumps(kind), seq,
            )
            crc = zlib.crc32(canon.encode("utf-8"))
            want = ('%s,"crc":%d}\n' % (canon[:-1], crc)).encode("utf-8")
            assert _encode_record(seq, kind, data) == want


class TestOneWritePerBarrier:
    @pytest.mark.parametrize("segment_bytes", [4_000_000, 300])
    @pytest.mark.parametrize("fsync, sync_every", [("batch", 256), ("batch", 3), ("off", 1)])
    def test_held_and_unheld_journals_leave_the_same_log(
        self, tmp_path, fsync, sync_every, segment_bytes
    ):
        """The same transitions through a journal that may be killed
        between the records of a barrier (two writes, as before) and
        one that may not (one write): equal segment files — names too,
        so every rotation fell on the same record — equal counts."""
        counts = {}
        for name, injector in (("armed", _armed_but_never_firing()), ("plain", None)):
            registry = MetricsRegistry()
            wal = WriteAheadLog(
                tmp_path / name, fsync=fsync, sync_every=sync_every,
                segment_bytes=segment_bytes, registry=registry,
            )
            _drive(StreamJournal(wal, injector=injector))
            wal.close()
            counts[name] = _wal_counts(registry)
        assert _segments(tmp_path / "armed") == _segments(tmp_path / "plain")
        assert counts["armed"] == counts["plain"]
        assert len(_segments(tmp_path / "plain")) > (1 if segment_bytes == 300 else 0)
        records, info = replay_wal(tmp_path / "plain")
        assert info.truncated_bytes == 0 and [r.seq for r in records] == list(
            range(1, len(records) + 1)
        )

    def test_a_barrier_with_accepts_pending_flushes_once(self, tmp_path):
        wal = WriteAheadLog(tmp_path, registry=MetricsRegistry())
        journal = StreamJournal(wal)
        journal.accept(0, _MSG)
        journal.flushed(1)  # opens the segment
        wal._fh = counted = _Flushes(wal._fh)
        journal.accept(1, _MSG)
        journal.accept(2, _MSG)
        journal.flushed(2)
        assert (wal.last_seq, counted.flushes) == (4, 1)
        journal.reject(3)  # nothing pending: one record, one flush
        assert (wal.last_seq, counted.flushes) == (5, 2)
        journal.accept(4, _MSG)
        journal.flush_pending()  # alone, an accept record is not held
        assert (wal.last_seq, counted.flushes) == (6, 3)
        assert len(replay_wal(tmp_path)[0]) == 6
        wal.close()

    def test_an_armed_journal_is_killable_between_the_two_records(self, tmp_path):
        """Each arming check sees on disk exactly what it saw when every
        record was flushed on its own: after the accept record of a
        barrier, that record and not yet the one that moves it."""
        seen: list[tuple[int, list[str]]] = []

        class Watching(FaultInjector):
            def should_fire(self, site):
                records = list(replay_wal(tmp_path)[0])
                seen.append((len(records), [r.kind for r in records[-2:]]))
                return super().should_fire(site)

        plan = FaultPlan(seed=0, sites={SITE_CRASH: FaultSpec(at_calls=(10**9,))})
        wal = WriteAheadLog(tmp_path, registry=MetricsRegistry())
        journal = StreamJournal(wal, injector=Watching(plan))
        journal.accept(0, _MSG)
        journal.accept(1, _MSG)
        journal.flushed(2)
        wal.close()
        assert seen == [
            (0, []), (0, []),  # the two accepts: nothing written yet
            (1, ["accept"]),  # between the records of the barrier
            (2, ["accept", "flush"]),
        ]

    def test_a_held_record_waits_for_its_successor(self, tmp_path):
        wal = WriteAheadLog(tmp_path, registry=MetricsRegistry())
        wal.append("accept", {"events": [0]})
        wal.hold()
        assert wal.append("accept", {"events": [1]}) == 2
        assert len(replay_wal(tmp_path)[0]) == 1  # in the buffer, not yet with the OS
        assert wal.append("flush", {"events": [0, 1]}) == 3
        assert len(replay_wal(tmp_path)[0]) == 3
        wal.hold()
        wal.append("accept", {"events": [2]})
        assert len(wal.records()) == 4  # reading back, sync and close flush it early
        wal.close()

    def test_always_flushes_and_fsyncs_a_held_record_at_once(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, fsync="always", registry=registry)
        wal.hold()
        wal.append("accept", {"events": [0]})
        assert len(replay_wal(tmp_path)[0]) == 1
        wal.append("flush", {"events": [0]})
        assert wellknown.wal_fsyncs(registry).value() == 2
        wal.close()

    def test_hold_does_not_outlive_a_failed_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, registry=MetricsRegistry())
        wal.hold()
        with pytest.raises(TypeError):
            wal.append("accept", {"events": [object()]})
        wal.append("accept", {"events": [0]})
        assert len(replay_wal(tmp_path)[0]) == 1
        wal.close()
