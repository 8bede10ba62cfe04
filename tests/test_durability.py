"""Durable ingest: WAL, checkpoints, recovery, crash harness.

The suite climbs the same ladder as the implementation: WAL record
integrity and torn-tail repair (including the every-byte-offset fuzz),
checkpoint atomicity and corrupt-fallback, journal replay idempotence,
in-process resume, and finally the subprocess SIGKILL harness — the
only layer that proves the guarantee against a real process death.

Like the chaos suite, the kill schedule honours ``REPRO_CHAOS_SEED``
so CI can shift every scenario without touching the code.
"""

import functools
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest
import reference_wal
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import repro
from repro.core.message import Facility, Severity, SyslogMessage
from repro.durability import (
    FSYNC_POLICIES,
    JournalState,
    SimConfig,
    StreamJournal,
    WalRecord,
    WriteAheadLog,
    build_cluster,
    crash_recovery_scenario,
    load_checkpoint,
    load_latest_checkpoint,
    reconcile,
    recover_state,
    replay_wal,
    resume_simulation,
    run_child,
    run_to_completion,
    write_checkpoint,
)
from repro.durability.wal import _encode_record
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import SITE_CRASH, SITE_FLUSH_FAIL
from repro.obs import MetricsRegistry, default_tracer, use_registry, wellknown
from repro.stream.fluentd import ABANDON_SITE

SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]


@pytest.fixture(autouse=True)
def _fresh_registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


# ---------------------------------------------------------------------------
# WAL


class TestWal:
    def test_append_and_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        s1 = wal.append("accept", {"event": 0, "msg": {"t": "a"}})
        s2 = wal.append("flush", {"events": [0]})
        wal.close()
        assert (s1, s2) == (1, 2)
        records, info = replay_wal(tmp_path)
        records = list(records)
        assert [r.seq for r in records] == [1, 2]
        assert records[0].kind == "accept"
        assert records[0].data == {"event": 0, "msg": {"t": "a"}}
        assert info.last_seq == 2
        assert info.truncated_bytes == 0

    def test_reopen_continues_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("accept", {"event": 0})
        wal.close()
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 1
        assert wal.append("accept", {"event": 1}) == 2
        wal.close()
        assert [r.seq for r in replay_wal(tmp_path)[0]] == [1, 2]

    def test_segment_rotation(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=200)
        for i in range(20):
            wal.append("accept", {"event": i})
        wal.close()
        segments = sorted(tmp_path.glob("wal-*.jsonl"))
        assert len(segments) > 1
        records, info = replay_wal(tmp_path)
        assert [r.seq for r in records] == list(range(1, 21))
        assert info.segments == len(segments)

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_every_policy_survives_reopen(self, tmp_path, policy):
        wal = WriteAheadLog(tmp_path / policy, fsync=policy, sync_every=2)
        for i in range(5):
            wal.append("accept", {"event": i})
        wal.close()
        records, _ = replay_wal(tmp_path / policy)
        assert len(records) == 5

    def test_corrupt_crc_truncates_from_there(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(5):
            wal.append("accept", {"event": i})
        wal.close()
        seg = next(tmp_path.glob("wal-*.jsonl"))
        lines = seg.read_bytes().splitlines(keepends=True)
        # flip one byte inside record 3's payload
        lines[2] = lines[2].replace(b'"event":2', b'"event":9')
        seg.write_bytes(b"".join(lines))
        records, info = replay_wal(tmp_path)
        assert [r.data["event"] for r in records] == [0, 1]
        assert info.truncated_bytes > 0
        # opening repairs: the torn tail is gone, appends continue
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 2
        wal.append("accept", {"event": 2})
        wal.close()
        assert len(replay_wal(tmp_path)[0]) == 3

    def test_later_segments_dropped_behind_torn_one(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=200)
        for i in range(12):
            wal.append("accept", {"event": i})
        wal.close()
        segments = sorted(tmp_path.glob("wal-*.jsonl"))
        assert len(segments) >= 3
        n0 = len(segments[0].read_bytes().splitlines())
        assert n0 >= 2
        # tear the last record of the FIRST segment: everything behind
        # it is unreachable and must be dropped on repair
        segments[0].write_bytes(segments[0].read_bytes()[:-5])
        wal = WriteAheadLog(tmp_path)
        assert wal.recovery.dropped_segments == len(segments) - 1
        assert wal.last_seq == n0 - 1
        assert sorted(tmp_path.glob("wal-*.jsonl")) == [segments[0]]
        wal.close()

    def test_a_record_is_slotted_and_still_pickles(self):
        record = WalRecord(seq=3, kind="flush", data={"events": [1, 2]})
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
        assert replace(record, seq=4) == WalRecord(seq=4, kind="flush", data={"events": [1, 2]})
        with pytest.raises(FrozenInstanceError):
            record.seq = 5

    def test_a_dead_letter_is_slotted_and_still_pickles(self):
        from repro.faults.dlq import DeadLetter

        entry = DeadLetter(seq=3, site="ingest.parse", payload=_msg(1), error="bad header")
        assert not hasattr(entry, "__dict__")
        assert pickle.loads(pickle.dumps(entry)) == entry
        assert replace(entry, seq=4) == DeadLetter(4, "ingest.parse", _msg(1), "bad header")
        with pytest.raises(FrozenInstanceError):
            entry.seq = 5
        other = DeadLetter(seq=4, site="ingest.parse", payload="x", error="e")
        assert entry.context == {} and entry.context is not other.context

    def test_records_are_flushed_before_fsync(self, tmp_path):
        # batch policy with a huge sync_every: a reader sees every
        # append immediately (user-space flush per record is what makes
        # SIGKILL lossless)
        wal = WriteAheadLog(tmp_path, fsync="batch", sync_every=10_000)
        wal.append("accept", {"event": 0})
        records, _ = replay_wal(tmp_path)
        assert len(records) == 1
        wal.close()


class TestTornTailFuzz:
    """Truncate a valid WAL at every byte offset of its final record."""

    def test_every_truncation_point_recovers(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "src")
        for i in range(4):
            wal.append("accept", {"event": i, "msg": {"text": f"m{i}"}})
        wal.close()
        seg = next((tmp_path / "src").glob("wal-*.jsonl"))
        raw = seg.read_bytes()
        lines = raw.splitlines(keepends=True)
        last_start = len(raw) - len(lines[-1])

        for cut in range(last_start, len(raw)):
            d = tmp_path / f"cut{cut}"
            d.mkdir()
            (d / seg.name).write_bytes(raw[:cut])
            # read-only scan never raises, never yields a partial record
            records, info = replay_wal(d)
            assert [r.data["event"] for r in records] == [0, 1, 2]
            if cut > last_start:
                assert info.truncated_bytes == cut - last_start
            # repair-on-open truncates and appends continue cleanly
            w = WriteAheadLog(d)
            assert w.last_seq == 3
            w.append("accept", {"event": 99})
            w.close()
            records, info = replay_wal(d)
            assert [r.data["event"] for r in records] == [0, 1, 2, 99]
            assert info.truncated_bytes == 0

    def test_truncation_inside_earlier_records_too(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "src")
        for i in range(3):
            wal.append("accept", {"event": i})
        wal.close()
        seg = next((tmp_path / "src").glob("wal-*.jsonl"))
        raw = seg.read_bytes()
        # sparse sweep over the whole file: recovery never raises and
        # always returns a clean prefix
        for cut in range(0, len(raw), 7):
            d = tmp_path / f"cut{cut}"
            d.mkdir()
            (d / seg.name).write_bytes(raw[:cut])
            records, _ = replay_wal(d)
            assert [r.seq for r in records] == list(range(1, len(records) + 1))


def _journaled_wal(directory: Path, lines: int, batch: int = 16) -> None:
    """The live listener's journal: every identity synthetic, each poll
    one ``accept_many`` with its bodies, each flush moving it out."""
    wal = WriteAheadLog(directory, fsync="off", segment_bytes=16_384, registry=MetricsRegistry())
    journal = StreamJournal(wal)
    for start in range(0, lines, batch):
        k = min(batch, lines - start)
        journal.accept_many([None] * k, [
            SyslogMessage(
                timestamp=float(start + i), hostname=f"cn{(start + i) % 50:03d}", app="kernel",
                text=f"event {start + i} on link eth{i} code {start * 7 + i}",
            )
            for i in range(k)
        ])
        journal.flushed(k)
    wal.close()


def _traced(fn) -> tuple[int, int]:
    """``tracemalloc`` bytes while ``fn`` ran: the peak, and what its
    result still holds, both above the level it started at."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - start, held - start


def _drain(records) -> int:
    n = 0
    for _record in records:
        n += 1
    return n


def _tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _rows(records) -> list:
    return [(r.seq, r.kind, r.data) for r in records]


@functools.cache
def _equivalence_wal() -> dict:
    """Segment name → bytes of a small journal over several segments:
    accepts with synthetic bodies, flushes, a reject and an abandon."""
    with tempfile.TemporaryDirectory() as d:
        wal = WriteAheadLog(d, segment_bytes=700, registry=MetricsRegistry())
        journal = StreamJournal(wal)
        for start in range(0, 12, 3):
            journal.accept_many([None, start, None], [_msg(start + i) for i in range(3)])
            journal.flushed(2, offsets={"cn000": start + 2})
            journal.reject(100 + start)
            journal.abandoned(1, "fluentd.flush_abandoned", "gave up")
        wal.close()
        segments = _tree(Path(d))
    assert len(segments) >= 4
    return segments


class TestReplayMemory:
    """Reading the WAL back holds one record, not the history.

    Counted, not timed: ``tracemalloc`` peaks at H journaled lines and
    at 4H.  A streaming read pays a few bytes per segment on top of one
    record (reads 0.95× for the open, 1.05× for a replay and 1.04× for
    ``recover_state`` net of the state it returns); the list-building
    scan it replaced, ``tests/reference_wal.py``, reads 3.7× and is the
    contrast that keeps the floor from passing blind."""

    H = 512
    FLOOR = 1.25

    @pytest.fixture(scope="class")
    def wals(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("replay-memory")
        dirs = {}
        for n in (self.H // 4, self.H, 4 * self.H):
            dirs[n] = root / f"lines{n}"
            _journaled_wal(dirs[n], n)
        # first sights (imports, enum members, encoder caches) land here
        warm = dirs.pop(self.H // 4)
        WriteAheadLog(warm, fsync="off", registry=MetricsRegistry()).close()
        _drain(replay_wal(warm)[0])
        recover_state(warm)
        reference_wal._scan(warm, repair=False)
        return dirs[self.H], dirs[4 * self.H]

    def _ratio(self, wals, fn) -> float:
        small, large = (fn(d) for d in wals)
        return large / small

    def test_opening_the_log_keeps_no_record(self, wals):
        registry = MetricsRegistry()
        ratio = self._ratio(wals, lambda d: _traced(
            lambda: WriteAheadLog(d, fsync="off", registry=registry).close())[0])
        assert ratio <= self.FLOOR, ratio

    def test_a_replay_holds_one_record(self, wals):
        ratio = self._ratio(wals, lambda d: _traced(lambda: _drain(replay_wal(d)[0]))[0])
        assert ratio <= self.FLOOR, ratio

    def test_recovery_holds_its_state_not_the_log(self, wals):
        def transient(d):
            peak, held = _traced(lambda: recover_state(d))
            return peak - held

        ratio = self._ratio(wals, transient)
        assert ratio <= self.FLOOR, ratio

    def test_the_list_building_scan_is_seen(self, wals):
        ratio = self._ratio(wals, lambda d: _traced(
            lambda: reference_wal._scan(d, repair=False))[0])
        assert ratio >= 3.0, ratio

    def test_a_view_counts_and_rereads(self, wals):
        small, _large = wals
        records, info = replay_wal(small)
        expected, ref_info = reference_wal.reference_replay_wal(small)
        assert len(records) == info.records == len(expected) == 2 * self.H // 16
        assert _rows(records) == _rows(records) == _rows(expected)
        assert asdict(info) == asdict(ref_info)
        with pytest.raises(TypeError):
            records[0]

    def test_no_read_decodes_a_record_more_often_than_before(self, wals, monkeypatch):
        """Records decoded (``WalRecord``s built) per read, as before the
        reads streamed: one validating pass to open a log and one to
        recover a directory, the open plus one to resume through an open
        log; ``replay_wal`` alone decodes twice — its info is complete
        before the first record is handed out."""
        from repro.durability import wal as wal_mod

        built = [0]

        def counting(*args, **kwargs):
            built[0] += 1
            return WalRecord(*args, **kwargs)

        monkeypatch.setattr(wal_mod, "WalRecord", counting)

        def decodes(read) -> int:
            built[0] = 0
            read()
            return built[0]

        small, _large = wals
        n = len(replay_wal(small)[0])
        registry = MetricsRegistry()
        wal = WriteAheadLog(small, fsync="off", registry=registry)
        assert decodes(lambda: WriteAheadLog(small, fsync="off", registry=registry).close()) == n
        assert decodes(lambda: recover_state(small)) == n
        assert decodes(lambda: recover_state(small, wal=wal)) == n
        assert decodes(lambda: _drain(replay_wal(small)[0])) == 2 * n
        wal.close()

    @pytest.mark.parametrize("change", ["flip", "cut"])
    def test_a_view_of_a_changed_log_raises(self, tmp_path, change):
        """A view re-validates what it reads: a data byte flipped or a
        segment cut after ``replay_wal`` returned is not handed out as
        history."""
        for name, data in _equivalence_wal().items():
            (tmp_path / name).write_bytes(data)
        records, info = replay_wal(tmp_path)
        first = sorted(tmp_path.glob("wal-*.jsonl"))[0]
        body = bytearray(first.read_bytes())
        if change == "flip":
            at = body.index(b'"event":') + len(b'"event":')
            body[at] = ord("9") if body[at] != ord("9") else ord("8")
        else:
            del body[body.index(b"\n") + 1:]
        first.write_bytes(bytes(body))
        with pytest.raises(ValueError, match=f"of the {info.records} records"):
            _drain(records)

    def test_a_live_log_reads_back_what_a_scan_finds(self, tmp_path):
        """``records()`` reads back what a scan finds through rotations,
        a held record, a close and a reopen."""
        wal = WriteAheadLog(tmp_path, segment_bytes=300, registry=MetricsRegistry())
        for i in range(25):
            if i % 7 == 3:
                wal.hold()
            wal.append("accept", {"events": [i], "note": "x" * (i % 5)})
            if i % 4 == 0:
                view = wal.records()
                assert _rows(view) == _rows(reference_wal._scan(tmp_path, repair=False)[0])
                assert len(view) == wal.last_seq == i + 1
        wal.close()
        assert _rows(wal.records()) == _rows(reference_wal._scan(tmp_path, repair=False)[0])
        reopened = WriteAheadLog(tmp_path, segment_bytes=300, registry=MetricsRegistry())
        reopened.append("flush", {"events": [0]})
        assert [r.seq for r in reopened.records()] == list(range(1, 27))
        reopened.close()

    @seed(SEED_SHIFT)
    @settings(max_examples=150, deadline=None)
    @example(damage="clean", segment=0, at=0, bit=0)
    @example(damage="drop", segment=1, at=0, bit=0)
    @example(damage="cut", segment=0, at=10**6, bit=0)
    @given(
        damage=st.sampled_from(["clean", "cut", "flip", "drop"]),
        segment=st.integers(0, 10**6),
        at=st.integers(0, 10**6),
        bit=st.integers(0, 7),
    )
    def test_the_stream_equals_the_list(self, damage, segment, at, bit):
        """Clean, torn, bit-flipped and missing-segment logs: the same
        records, the same :class:`WalScanInfo`, the same recovered
        journal, and a repairing open leaves the directory byte for byte
        as the list-building scan's repair does."""
        raw = _equivalence_wal()
        names = sorted(raw)
        victim = names[segment % len(names)]
        files = dict(raw)
        body = bytearray(files[victim])
        if damage == "cut":
            files[victim] = bytes(body[: at % (len(body) + 1)])
        elif damage == "flip":
            body[at % len(body)] ^= 1 << bit
            files[victim] = bytes(body)
        elif damage == "drop":
            del files[victim]
        with tempfile.TemporaryDirectory() as root:
            new, ref = Path(root) / "new", Path(root) / "ref"
            for d in (new, ref):
                d.mkdir()
                for name, data in files.items():
                    (d / name).write_bytes(data)
            records, info = replay_wal(new)
            expected, ref_info = reference_wal.reference_replay_wal(ref)
            assert _rows(records) == _rows(expected)
            assert len(records) == len(expected)
            assert asdict(info) == asdict(ref_info)
            replayed = JournalState()
            for record in expected:
                replayed.apply(record)
            assert recover_state(new).state.to_payload() == replayed.to_payload()
            assert _tree(new) == _tree(ref)  # reading repairs nothing

            wal = WriteAheadLog(new, registry=MetricsRegistry())
            _repaired, repair_info = reference_wal._scan(ref, repair=True)
            assert asdict(wal.recovery) == asdict(repair_info)
            assert _tree(new) == _tree(ref)
            assert _rows(wal.records()) == _rows(expected)
            wal.close()


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpoint:
    def test_roundtrip_and_newest_wins(self, tmp_path):
        write_checkpoint(tmp_path, {"n": 1}, seq=10)
        write_checkpoint(tmp_path, {"n": 2}, seq=20)
        payload, path = load_latest_checkpoint(tmp_path)
        assert payload == {"n": 2}
        assert path.name == "checkpoint-0000000020.json"

    def test_corrupt_newest_falls_back(self, tmp_path):
        write_checkpoint(tmp_path, {"n": 1}, seq=10)
        newest = write_checkpoint(tmp_path, {"n": 2}, seq=20)
        newest.write_text(newest.read_text()[:-30])
        payload, path = load_latest_checkpoint(tmp_path)
        assert payload == {"n": 1}
        assert load_checkpoint(newest) is None

    def test_empty_dir_means_no_checkpoint(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) == (None, None)

    def test_pruning_keeps_newest(self, tmp_path):
        for seq in range(1, 7):
            write_checkpoint(tmp_path, {"n": seq}, seq=seq, keep=3)
        names = sorted(p.name for p in tmp_path.glob("checkpoint-*.json"))
        assert len(names) == 3
        assert names[-1] == "checkpoint-0000000006.json"

    def test_crash_mid_write_leaves_previous_authoritative(self, tmp_path):
        write_checkpoint(tmp_path, {"n": 1}, seq=10)

        class Boom(RuntimeError):
            pass

        def crash():
            raise Boom()

        with pytest.raises(Boom):
            write_checkpoint(tmp_path, {"n": 2}, seq=20, crash_hook=crash)
        payload, _ = load_latest_checkpoint(tmp_path)
        assert payload == {"n": 1}  # the temp file never became a checkpoint


# ---------------------------------------------------------------------------
# journal + state replay


def _msg(i):
    from repro.core.message import SyslogMessage

    return SyslogMessage(
        timestamp=float(i), hostname="cn000", app="test", text=f"msg {i}"
    )


class TestJournal:
    def test_state_equals_replay_of_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal)
        j.accept(0, _msg(0))
        j.accept(1, _msg(1))
        j.flushed(1)
        j.accept(2, _msg(2))
        j.reject(3)
        j.abandoned(1, "fluentd.flush_abandoned", "gave up")
        wal.close()

        replayed = JournalState()
        for rec in replay_wal(tmp_path)[0]:
            replayed.apply(rec)
        assert replayed.applied_seq == j.state.applied_seq
        assert replayed.buffer_events == j.state.buffer_events
        assert replayed.buffer_messages == j.state.buffer_messages
        assert replayed.indexed_events == j.state.indexed_events
        assert replayed.indexed_messages == j.state.indexed_messages
        assert replayed.dead == j.state.dead
        assert replayed.rejected == j.state.rejected
        assert replayed.seen == j.state.seen
        # disposition check: 0 indexed, 1 abandoned, 2 still buffered,
        # 3 rejected
        assert list(replayed.indexed_events) == [0]
        assert {d["event"] for d in replayed.dead} == {1}
        assert replayed.rejected == [3]
        assert replayed.buffer_events == [2]

    def test_apply_is_idempotent_by_seq(self):
        state = JournalState()
        rec = WalRecord(seq=1, kind="accept", data={"events": [0]})
        state.apply(rec)
        state.apply(rec)  # duplicate delivery must be a no-op
        assert state.buffer_events == [0] and state.buffer_messages == [None]

    def test_payload_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal)
        j.accept(0, _msg(0))
        j.accept(1, _msg(1))
        j.flushed(1)
        wal.close()
        restored = JournalState.from_payload(j.state.to_payload())
        assert restored.seen == {0, 1}
        assert restored.buffer_events == j.state.buffer_events
        assert restored.buffer_messages == j.state.buffer_messages
        assert restored.indexed_events == j.state.indexed_events
        assert restored.indexed_messages == j.state.indexed_messages

    def test_auto_identity_for_untracked_messages(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal)
        j.accept(None, _msg(0))
        j.accept(None, _msg(1))
        j.flush_pending()
        wal.close()
        events = j.state.buffer_events
        assert events == [-1, -2]
        # synthetic bodies are embedded (no trace to regenerate from)
        replayed = JournalState()
        for rec in replay_wal(tmp_path)[0]:
            replayed.apply(rec)
        # and come back from the WAL as the messages the journal was handed
        assert replayed.buffer_events == j.state.buffer_events
        assert replayed.buffer_messages == j.state.buffer_messages
        assert replayed.buffer_messages[0] == _msg(0)
        # synthetic identities survive a restart without colliding
        j2 = StreamJournal(
            WriteAheadLog(tmp_path),
            state=recover_state(tmp_path).state,
        )
        j2.accept(None, _msg(2))
        assert j2.state.buffer_events == [-1, -2, -3]
        j2.wal.close()

    @staticmethod
    def _held_lowest(state: JournalState) -> int:
        """The next-identity rule a journal used to open with: the lowest
        synthetic identity of a ``seen`` set that held every published
        one — the buffer, the indexed set, the dead letters and the
        rejects (``JournalState.from_payload`` built it so)."""
        held = {*state.buffer_events, *state.indexed_events, *state.rejected,
                *(d["event"] for d in state.dead)}
        return min((e for e in held if e < 0), default=0)

    def _live_journal(self, wal_dir, *, checkpoint_at=None):
        """A listener-shaped journal: synthetic accepts, flushes, a
        reject, an abandon, a requeue of the tail, and trace events
        beside them; optionally the payload a checkpoint would take."""
        wal = WriteAheadLog(wal_dir, registry=MetricsRegistry())
        j = StreamJournal(wal)
        payload = None
        steps = [
            lambda: j.accept_many([None] * 3, [_msg(i) for i in range(3)]),
            lambda: j.flushed(2),
            lambda: j.accept_many([5, None, 6], [_msg(5), _msg(7), _msg(6)]),
            lambda: j.reject(None),
            lambda: j.abandoned(2, "fluentd.flush_abandoned", "gave up"),
            lambda: j.accept_many([None] * 2, [_msg(8), _msg(9)]),
            lambda: j.requeue_buffer(),
            lambda: j.accept_many([None], [_msg(10)]),
            lambda: j.flushed(1),
        ]
        for k, step in enumerate(steps):
            step()
            if k == checkpoint_at:
                j.flush_pending()
                payload = j.state.to_payload()
        j.flush_pending()
        wal.close()
        return j, payload

    def test_an_all_synthetic_run_leaves_seen_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path, registry=MetricsRegistry())
        j = StreamJournal(wal)
        for i in range(0, 60, 3):
            j.accept_many([None] * 3, [_msg(i + k) for k in range(3)])
            j.flushed(3)
        j.reject(None)
        wal.close()
        assert j.state.seen == set() and j.state.lowest_synthetic == -61
        replayed = recover_state(tmp_path).state
        assert replayed.seen == set() and replayed.lowest_synthetic == -61
        restored = JournalState.from_payload(j.state.to_payload())
        assert restored.seen == set() and restored.lowest_synthetic == -61

    @pytest.mark.parametrize("checkpoint_at", [None, 1, 4, 6])
    def test_a_reopened_journal_draws_the_next_identity_it_did(self, tmp_path, checkpoint_at):
        """After a replay, or a checkpoint plus the replay past it, the
        reopened journal draws below the lowest synthetic identity still
        held — what a ``seen`` set of every identity gave — and keeps
        only trace identities in ``seen``."""
        j, payload = self._live_journal(tmp_path / "wal", checkpoint_at=checkpoint_at)
        if payload is not None:
            state = JournalState.from_payload(payload)
            for record in replay_wal(tmp_path / "wal")[0]:
                if record.seq > state.applied_seq:
                    state.apply(record)
        else:
            state = recover_state(tmp_path / "wal").state
        assert state.seen == j.state.seen == {5}  # 6 went back with the requeue
        want = self._held_lowest(state)
        assert state.lowest_synthetic == j.state.lowest_synthetic == want < 0
        wal = WriteAheadLog(tmp_path / "wal", registry=MetricsRegistry())
        reopened = StreamJournal(wal, state=state)
        reopened.accept_many([None], [_msg(11)])
        assert reopened.state.buffer_events[-1] == want - 1
        wal.close()

    def test_a_checkpoint_payload_keeps_its_bytes(self, tmp_path):
        """``seen`` and the lowest synthetic identity are derived, never
        written: the payload is the one it was."""
        j, _payload = self._live_journal(tmp_path)
        body = lambda m: m and m.to_dict()  # noqa: E731
        assert json.dumps(j.state.to_payload(), sort_keys=True) == json.dumps({
            "applied_seq": j.state.applied_seq,
            "buffer": [],
            "indexed": [[e, body(m)] for e, m in zip(j.state.indexed_events,
                                                    j.state.indexed_messages)],
            "dead": [{**d, "msg": body(d["msg"])} for d in j.state.dead],
            "rejected": [-5],
            "offsets": {},
            "control": None,
        }, sort_keys=True)
        assert list(j.state.indexed_events) == [-1, -2, -8]
        assert [d["event"] for d in j.state.dead] == [-3, 5]

    def test_crash_site_fires_at_exact_ordinal(self, tmp_path):
        # verify at_calls fires at the exact arming-check ordinal (one
        # check per accept and per commit), the contract run_child's
        # kill points rely on (without dying here: we consult the plan
        # spec, not os.kill)
        plan = FaultPlan.from_dict(
            {"seed": 0, "sites": {SITE_CRASH: {"at_calls": [3]}}}
        )
        inj = FaultInjector(plan)
        fired = []
        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal)
        j.injector = None  # drive should_fire manually to observe it
        for i in range(5):
            j.accept(i, _msg(i))
            fired.append(inj.should_fire(SITE_CRASH))
        wal.close()
        assert fired == [False, False, True, False, False]

    @pytest.mark.parametrize("n_events", [1, 5])
    def test_accept_many_refuses_columns_of_different_lengths(self, tmp_path, n_events):
        """One identity for three messages used to journal one accept and
        drop two without a word while the forwarder buffered all three:
        the write-ahead invariant broken.  Refused before anything is
        journaled, like ``LogStore.index_many``."""
        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal)
        with pytest.raises(ValueError, match=f"{n_events} events for 3 messages"):
            j.accept_many([None] * n_events, [_msg(i) for i in range(3)])
        j.flush_pending()
        wal.close()
        assert j.state.buffer_events == [] and j.state.seen == set()
        assert list(replay_wal(tmp_path)[0]) == []

    def test_all_synthetic_accepts_draw_one_range(self, tmp_path):
        """The live listener's poll: every identity synthetic, drawn in
        order below the last one, the message kept beside each."""
        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal)
        j.accept_many([None, None], [_msg(0), _msg(1)])
        j.accept_many((None, None, None), [_msg(i) for i in range(2, 5)])
        j.accept_many([], [])
        j.flush_pending()
        wal.close()
        assert j.state.buffer_events == [-1, -2, -3, -4, -5]
        assert j.state.buffer_messages == [_msg(i) for i in range(5)]
        # a synthetic identity is never in ``seen``: only the lowest drawn is kept
        assert j.state.seen == set() and j.state.lowest_synthetic == -5
        replayed = recover_state(tmp_path).state
        assert replayed.buffer_events == j.state.buffer_events
        assert replayed.buffer_messages == j.state.buffer_messages

    def test_accept_many_is_one_crash_check_per_accept(self, tmp_path):
        checks = []

        class Counting(FaultInjector):
            def should_fire(self, site):
                checks.append(site)
                return False

        wal = WriteAheadLog(tmp_path)
        j = StreamJournal(wal, injector=Counting(FaultPlan.never()))
        j.accept_many([0, 1, None, 3, None], [_msg(i) for i in range(5)])
        wal.close()
        assert checks == [SITE_CRASH] * 5
        assert j.state.buffer_events == [0, 1, -1, 3, -2]


_HOSTILE = "\"\\\x00\x1f\x7f\n\t é€ \ud83d\U0001f600"
_texts = st.text(st.one_of(st.sampled_from(_HOSTILE), st.characters(exclude_categories=())))
_stamps = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.sampled_from([-0.0, 1e308, -1e-310, 1.5e16, 0.1]),
    st.integers(-(2**70), 2**70),
)
_messages = st.builds(
    SyslogMessage, timestamp=_stamps, hostname=_texts, app=_texts, text=_texts,
    severity=st.sampled_from(Severity), facility=st.sampled_from(Facility),
    pid=st.one_of(st.none(), st.integers(-(2**40), 2**40)),
)


class TestAcceptRecordBytes:
    """The journal keeps messages and writes their bodies in one pass;
    the line is the one the dict form used to produce, byte for byte."""

    @seed(SEED_SHIFT)
    @settings(max_examples=200)
    @example(batch=[(SyslogMessage(float("nan"), "hé", "a\"b", "c\\d\x01", pid=None), True)] * 12)
    @given(batch=st.lists(st.tuples(_messages, st.booleans()), min_size=1, max_size=14))
    def test_the_bytes_are_the_to_dict_encoding(self, batch):
        """Ten synthetic events or more put "-10" before "-2" in the
        ``msgs`` keys: the bodies are ordered as strings, like the dict's."""
        messages = [m for m, _synthetic in batch]
        idents = [None if synthetic else i for i, (_m, synthetic) in enumerate(batch)]
        with tempfile.TemporaryDirectory() as d:
            wal = WriteAheadLog(d, registry=MetricsRegistry())
            journal = StreamJournal(wal)
            journal.accept_many(idents, messages)
            journal.flush_pending()
            wal.close()
            (segment,) = Path(d).glob("wal-*.jsonl")
            got = segment.read_bytes()
            records, info = replay_wal(d)
            records = list(records)
        events = journal.state.buffer_events
        data = {"events": events}
        msgs = {str(e): m.to_dict() for e, m in zip(events, messages) if e < 0}
        if msgs:
            data["msgs"] = msgs
        assert got == _encode_record(1, "accept", data)
        assert info.truncated_bytes == 0 and [r.kind for r in records] == ["accept"]


class TestAcceptRecordCap:
    """A replay decodes one batch of accepts at a time, however large the
    poll: the barrier after one 5,000-line poll of the live listener's
    shape (every identity synthetic, its body embedded) writes accept
    records of at most ``ACCEPT_RECORD_EVENTS``, and reading them back
    peaks at one such record.  The same poll as one record is the
    contrast that keeps the bound from passing blind."""

    POLL, FLUSH = 5_000, 500
    #: tracemalloc peak of a ``replay_wal`` pass (reads 1.37 MiB capped,
    #: 1.03 for a 500-line poll; one 5,000-event record reads 7.9 MiB)
    PEAK_MIB = 2.0

    @staticmethod
    def _poll(n: int) -> list[SyslogMessage]:
        return [
            SyslogMessage(timestamp=float(i), hostname=f"cn{i % 50:03d}", app="kernel",
                          text=f"event {i} on link eth{i % 8} code {i * 7}")
            for i in range(n)
        ]

    @pytest.fixture(scope="class")
    def journaled(self, tmp_path_factory):
        """The capped log after one poll and its flushes, the journal that
        wrote it, and the same poll written as one record."""
        root = tmp_path_factory.mktemp("accept-cap")
        wal = WriteAheadLog(root / "capped", fsync="off", registry=MetricsRegistry())
        journal = StreamJournal(wal)
        journal.accept_many([None] * self.POLL, self._poll(self.POLL))
        for _ in range(self.POLL // self.FLUSH):
            journal.flushed(self.FLUSH)
        wal.close()
        whole = WriteAheadLog(root / "whole", fsync="off", registry=MetricsRegistry())
        whole.append("accept", {
            "events": list(range(-1, -self.POLL - 1, -1)),
            "msgs": {str(-1 - i): m.to_dict() for i, m in enumerate(self._poll(self.POLL))},
        })
        whole.close()
        # first sights (imports, enum members, encoder caches) land here
        _drain(replay_wal(root / "capped")[0])
        return root / "capped", journal, root / "whole"

    def test_no_accept_record_exceeds_the_cap(self, journaled):
        capped, _journal, _whole = journaled
        sizes = [len(r.data["events"]) for r in replay_wal(capped)[0] if r.kind == "accept"]
        assert sum(sizes) == self.POLL and max(sizes) <= 512, sizes
        assert sizes == [512] * 9 + [392]  # consecutive, each full but the last

    def test_a_replay_rebuilds_the_journal_state(self, journaled):
        capped, journal, _whole = journaled
        replayed = JournalState()
        for record in replay_wal(capped)[0]:
            replayed.apply(record)
        assert replayed == journal.state
        assert replayed.to_payload() == journal.state.to_payload()
        assert recover_state(capped).state == journal.state

    def test_a_replay_peaks_at_one_batch(self, journaled):
        capped, _journal, whole = journaled
        peak = _traced(lambda: _drain(replay_wal(capped)[0]))[0] / 2**20
        assert peak <= self.PEAK_MIB, f"a capped replay peaks at {peak:.2f} MiB"
        was = _traced(lambda: _drain(replay_wal(whole)[0]))[0] / 2**20
        assert was > self.PEAK_MIB, f"one 5,000-event record reads {was:.2f} MiB: a blind bound"


# ---------------------------------------------------------------------------
# conservation arithmetic


class TestReconcile:
    def test_clean_ledger_is_ok(self):
        state = JournalState()
        state.indexed_events = [0, 1]
        state.rejected = [2]
        state.seen = {0, 1, 2}
        rep = reconcile(state, produced=3)
        assert rep.ok and rep.indexed == 2 and rep.rejected == 1

    def test_lost_and_duplicated_detected(self):
        state = JournalState()
        state.indexed_events = [0, 0]  # 0 doubled, 1 missing
        rep = reconcile(state, produced=2)
        assert not rep.ok
        assert rep.duplicated == 1
        assert rep.lost == 1
        assert "VIOLATED" in rep.render()

    def test_synthetic_identities_ignored(self):
        state = JournalState()
        state.indexed_events = [0, -1]
        rep = reconcile(state, produced=1)
        assert rep.ok and rep.indexed == 1


# ---------------------------------------------------------------------------
# in-process durable runs


def _quick_config(seed=1, **kw):
    kw.setdefault("duration_s", 40.0)
    kw.setdefault("rate", 4.0)
    kw.setdefault("model_dir", None)
    kw.setdefault("service_time_s", 0.004)
    kw.setdefault("checkpoint_every_s", 8.0)
    return SimConfig(seed=seed, **kw)


class TestResume:
    def test_fresh_run_conserves_and_checkpoints(self, tmp_path):
        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        report = cluster.run(config.duration_s + 30.0)
        journal.wal.close()
        assert report.produced > 0
        assert reconcile(journal.state, report.produced).ok
        assert list(tmp_path.glob("checkpoint-*.json"))
        assert list(tmp_path.glob("wal-*.jsonl"))

    def test_resume_after_completion_is_idempotent(self, tmp_path):
        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        first = cluster.run(config.duration_s + 30.0)
        journal.wal.close()

        cluster2, _config, journal2 = resume_simulation(tmp_path)
        second = cluster2.run(config.duration_s + 30.0)
        journal2.wal.close()
        rep = reconcile(journal2.state, second.produced)
        assert rep.ok
        assert rep.indexed == reconcile(journal.state, first.produced).indexed
        assert second.produced == first.produced

    def test_recovery_without_checkpoint_is_pure_replay(self, tmp_path):
        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        cluster.run(config.duration_s + 30.0)
        journal.wal.close()
        for ckpt in tmp_path.glob("checkpoint-*.json"):
            ckpt.unlink()
        recovered = recover_state(tmp_path)
        assert recovered.checkpoint is None
        assert recovered.replayed > 0
        assert reconcile(
            recovered.state, len(_quick_config().events())
        ).ok

    def test_checkpoint_bounds_replay(self, tmp_path):
        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        cluster.run(config.duration_s + 30.0)
        total = journal.wal.last_seq
        journal.wal.close()
        recovered = recover_state(tmp_path)
        # the final checkpoint was written after the settle drain, so
        # replay past it touches few (often zero) records
        assert recovered.checkpoint is not None
        assert recovered.replayed < total

    def test_store_and_categories_rebuilt(self, tmp_path):
        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        cluster.run(config.duration_s + 30.0)
        indexed = len(cluster.store)
        journal.wal.close()
        cluster2, _c, journal2 = resume_simulation(tmp_path)
        assert len(cluster2.store) == indexed
        assert cluster2.forwarder.stats.flushed_messages == indexed
        journal2.wal.close()

    def test_meta_required(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="meta.json"):
            resume_simulation(tmp_path)

    def test_volatile_equals_durable(self, tmp_path):
        """One SimConfig, both doors of the one assembly: the journal
        and the checkpoints change nothing a run reports or stores."""
        from repro.core.pipeline import ClassificationPipeline
        from repro.core.serialize import save_pipeline
        from repro.datagen.generator import CorpusGenerator
        from repro.ml import ComplementNB

        corpus = CorpusGenerator(scale=0.005, seed=1).generate()
        pipe = ClassificationPipeline(classifier=ComplementNB())
        pipe.fit(corpus.texts, corpus.labels)
        save_pipeline(pipe, tmp_path / "model")
        config = _quick_config(
            model_dir=str(tmp_path / "model"), incident=True,
            template_cache=64, degrade_backlog=8,
        )

        volatile = build_cluster(config)
        volatile.load_events(config.events())
        durable, _config, journal = resume_simulation(
            tmp_path / "wal", config=config
        )
        # the accepted config became the directory's meta.json
        assert SimConfig.load(tmp_path / "wal") == config
        reports = [
            cluster.run(config.duration_s + 30.0)
            for cluster in (volatile, durable)
        ]
        journal.wal.close()
        counts = [
            (r.produced, r.relay_received, r.relay_dropped, r.indexed,
             r.classified, r.final_backlog, r.drained,
             r.classified_degraded, r.broker_published, r.broker_polled)
            for r in reports
        ]
        assert counts[0] == counts[1]
        # both classify paths ran: the model and the fail-closed cheap one
        assert 0 < reports[0].classified_degraded < reports[0].classified
        categories = [
            [doc.category for doc in cluster.store.iter_documents()]
            for cluster in (volatile, durable)
        ]
        assert categories[0] == categories[1]
        assert len(set(categories[0])) > 1

    def test_a_brownout_shed_is_a_journaled_reject(self, tmp_path):
        """Brownout L3 sheds half the arrivals at the relay: each shed
        line is journaled as a ``reject`` — a disposition, not a loss —
        and a later resume does not republish it."""
        config = _quick_config()
        cluster, _config, _journal = resume_simulation(tmp_path, config=config)
        cluster.apply_brownout(0, 3)
        _report, conservation = run_to_completion(cluster, config)
        assert conservation.ok, conservation.render()
        assert conservation.rejected == cluster.n_shed > 0
        assert conservation.indexed == conservation.produced - cluster.n_shed

        again, _config, _journal = resume_simulation(tmp_path)
        _report, after = run_to_completion(again, config)
        assert after.ok and after.rejected == cluster.n_shed
        assert after.indexed == conservation.indexed

    def test_a_line_listed_twice_is_published_at_each_position(self, tmp_path):
        """A trace may list one frozen message at several positions: each
        is its own identity, published at its own per-host offset."""
        from repro.core.message import SyslogMessage
        from repro.datagen.workload import StreamEvent
        from repro.stream.tivan import TivanCluster

        line = SyslogMessage(1.0, "cn001", "kernel", "the same line")
        journal = StreamJournal(WriteAheadLog(tmp_path))
        cluster = TivanCluster(journal=journal)
        cluster.load_events([StreamEvent(message=line, label=None)] * 3)
        report = cluster.run(10.0)
        journal.wal.close()
        records = cluster.broker.partitions["cn001"].read_from(0, 10)
        assert [(r.offset, r.ident) for r in records] == [(0, 0), (1, 1), (2, 2)]
        conservation = reconcile(journal.state, report.produced)
        assert conservation.ok and conservation.indexed == 3, conservation.render()

    def _legacy_meta(self, directory, **keys):
        """``meta.json`` as a run before the broker became the only intake
        wrote it: the two retired keys beside the current ones."""
        data = asdict(_quick_config())
        data.update(keys)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "meta.json").write_text(json.dumps(data))

    def test_a_push_mode_directory_is_refused_in_one_line(self, tmp_path):
        from repro.cli import main

        self._legacy_meta(tmp_path, via_broker=False, overflow="drop_oldest")
        with pytest.raises(ValueError, match="push-mode") as refused:
            SimConfig.load(tmp_path)
        assert str(tmp_path) in str(refused.value)
        assert "\n" not in str(refused.value)
        with pytest.raises(SystemExit, match="push-mode"):
            main(["recover", "--wal-dir", str(tmp_path)])
        assert not list(tmp_path.glob("wal-*.jsonl"))

    def test_a_broker_mode_directory_still_resumes(self, tmp_path):
        self._legacy_meta(tmp_path, via_broker=True, overflow="block")
        assert SimConfig.load(tmp_path) == _quick_config()
        cluster, config, _journal = resume_simulation(tmp_path)
        report, conservation = run_to_completion(cluster, config)
        assert conservation.ok, conservation.render()
        assert conservation.indexed == report.produced > 0

    def test_a_fan_out_era_directory_still_resumes(self, tmp_path, capsys):
        """A finished run whose ``meta.json`` still carries the retired
        fan-out keys (hashed partitions, consumer count) recovers: the
        keys are left unread and the file is left as it was."""
        from repro.cli import main

        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        cluster.run(config.duration_s + 30.0)
        journal.wal.close()
        data = json.loads((tmp_path / "meta.json").read_text())
        data.update(broker_partitions=None, n_consumers=1)
        (tmp_path / "meta.json").write_text(json.dumps(data))
        meta = (tmp_path / "meta.json").read_bytes()

        loaded = SimConfig.load(tmp_path)
        assert loaded == _quick_config()
        assert not hasattr(loaded, "broker_partitions") and not hasattr(loaded, "n_consumers")
        assert main(["recover", "--wal-dir", str(tmp_path)]) == 0
        assert "conservation OK" in capsys.readouterr().out
        assert (tmp_path / "meta.json").read_bytes() == meta

    def test_a_checkpoint_that_carries_telemetry_still_resumes(self, tmp_path):
        """A directory from when a checkpoint embedded the registry and
        the spans, and no ``telemetry.json`` was written: the keys are
        left unread and the run resumes to the same dispositions."""
        _quick_config().save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        first = reconcile(journal.state, cluster.run(config.duration_s + 30.0).produced)
        journal.wal.close()
        payload, path = load_latest_checkpoint(tmp_path)
        payload.update(
            metrics=wellknown.declare_all(MetricsRegistry()).snapshot(),
            spans=default_tracer().export(clear=False),
        )
        path.unlink()
        write_checkpoint(tmp_path, payload, seq=payload["last_wal_seq"])
        (tmp_path / "telemetry.json").unlink()

        again, config, _journal = resume_simulation(tmp_path)
        _report, after = run_to_completion(again, config)
        assert after.ok, after.render()
        assert (after.indexed, after.produced) == (first.indexed, first.produced)

    def test_rejected_recover_override_changes_nothing(self, tmp_path, capsys):
        """`recover --replicas 9` on a 3-node run is refused *before*
        the override is persisted: meta.json stays byte-identical and
        a plain recover still resumes the directory."""
        from repro.cli import main

        _quick_config(store_nodes=3).save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        cluster.run(config.duration_s + 30.0)
        journal.wal.close()
        meta = (tmp_path / "meta.json").read_bytes()

        with pytest.raises(SystemExit, match="n_replicas"):
            main(["recover", "--wal-dir", str(tmp_path), "--replicas", "9"])
        assert (tmp_path / "meta.json").read_bytes() == meta
        assert main(["recover", "--wal-dir", str(tmp_path)]) == 0
        assert "conservation OK" in capsys.readouterr().out

        # an accepted override is persisted for later resumes
        assert main(["recover", "--wal-dir", str(tmp_path),
                     "--replicas", "2"]) == 0
        assert SimConfig.load(tmp_path).store_replicas == 2


# ---------------------------------------------------------------------------
# the subprocess SIGKILL harness (the real thing)


class TestCrashRecovery:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_sigkill_never_loses_or_doubles(self, tmp_path, seed):
        config = _quick_config(seed=seed)
        kills = [15 + 5 * (seed % 3), 40, 9]
        report = crash_recovery_scenario(tmp_path, config, kills, timeout=120)
        c = report["conservation"]
        assert c["lost"] == 0, c
        assert c["duplicated"] == 0, c
        assert c["produced"] > 0
        assert c["indexed"] + c["rejected"] \
            + c["dead_lettered"] + c["in_buffer"] == c["produced"]

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_sigkill_under_overflow_pressure(self, tmp_path, seed):
        """A 20-message buffer under 12 msg/s: the overflow waits as
        broker lag, and kills land while the consumer is behind."""
        config = _quick_config(
            seed=seed, rate=12.0,
            buffer_limit=20, flush_interval_s=2.0, forward_batch=8,
        )
        report = crash_recovery_scenario(
            tmp_path, config, [30 + seed, 70], timeout=120
        )
        c = report["conservation"]
        assert c["lost"] == 0 and c["duplicated"] == 0, c

    def test_counts_survive_a_sigkill_and_resume(self, tmp_path, _fresh_registry):
        """``simulate --duration 120 --rate 4 --incident --checkpoint-every
        10`` SIGKILLed at crash call 420, resumed and run out: the
        registry reads what the WAL and the forwarder hold, not the last
        checkpoint's copy (at seed 0 that copy read last seq 94 and 682
        flushed)."""
        SimConfig(
            duration_s=120.0, rate=4.0, seed=SEED_SHIFT, incident=True, checkpoint_every_s=10.0,
        ).save(tmp_path)
        assert run_child(tmp_path, crash_at=420, timeout=120).returncode == -signal.SIGKILL
        cluster, config, journal = resume_simulation(tmp_path)
        last_seq = wellknown.wal_last_seq(_fresh_registry).value()
        assert last_seq == journal.wal.last_seq
        _report, conservation = run_to_completion(cluster, config)
        flushed = wellknown.fluentd_flushed_messages(_fresh_registry).value()
        assert flushed == cluster.forwarder.stats.flushed_messages == len(cluster.store)
        assert conservation.ok, conservation.render()
        if SEED_SHIFT == 0:
            assert (last_seq, flushed) == (110, 788)

    def test_relay_counts_survive_a_sigkill_and_resume(self, tmp_path, _fresh_registry):
        """The same SIGKILL at crash call 420: the relay families read the
        relay's counts, which the resume seeds from the journal, not the
        checkpoint's copy (at seed 0 that copy read 216 right after the
        resume and 699 at the end)."""
        SimConfig(
            duration_s=120.0, rate=4.0, seed=SEED_SHIFT, incident=True, checkpoint_every_s=10.0,
        ).save(tmp_path)
        assert run_child(tmp_path, crash_at=420, timeout=120).returncode == -signal.SIGKILL
        cluster, config, _journal = resume_simulation(tmp_path)

        def families():
            return (
                wellknown.relay_received(_fresh_registry).value(),
                wellknown.relay_dropped(_fresh_registry).value(),
            )

        resumed = families()
        assert resumed == (cluster.relay.received, cluster.relay.dropped)
        report, conservation = run_to_completion(cluster, config)
        assert families() == (report.relay_received, report.relay_dropped)
        assert conservation.ok, conservation.render()
        if SEED_SHIFT == 0:
            assert (resumed[0], report.relay_received) == (305, 788)

    @pytest.mark.parametrize("trace_sample", [0.0, 0.5])
    def test_a_checkpoint_is_the_same_bytes_in_every_run(self, tmp_path, trace_sample):
        """One config run twice — SIGKILLed at crash call 420, then
        recovered — writes the same checkpoint bytes at both points,
        traced or not: a checkpoint holds state only, and the wall-clock
        histograms and the spans go to ``telemetry.json``."""
        config = SimConfig(
            duration_s=120.0, rate=4.0, seed=SEED_SHIFT, incident=True, checkpoint_every_s=10.0,
            trace_sample=trace_sample,
        )
        runs = [tmp_path / "a", tmp_path / "b"]

        def checkpoints(run):
            return {p.name: p.read_bytes() for p in run.glob("checkpoint-*.json")}

        for run in runs:
            config.save(run)
            assert run_child(run, crash_at=420, timeout=120).returncode == -signal.SIGKILL
        killed = [checkpoints(run) for run in runs]
        for run in runs:
            proc = run_child(run, timeout=120)
            assert proc.returncode == 0, proc.stderr
        recovered = [checkpoints(run) for run in runs]
        assert killed[0] and killed[0] == killed[1]
        assert recovered[0] and recovered[0] == recovered[1] != killed[0]
        assert all((run / "telemetry.json").exists() for run in runs)

    def test_the_dead_letter_count_survives_a_sigkill_and_resume(
        self, tmp_path, _fresh_registry
    ):
        """Flushes fail at p=0.3 with one try each and the child is
        SIGKILLed at crash call 420: after the resume the dead-letter
        family reads the forwarder's queue, which holds what the journal
        does (at seed 0 the checkpoint's copy of the count read 81 of
        107)."""
        SimConfig(
            duration_s=60.0, rate=6.0, seed=SEED_SHIFT, incident=True, checkpoint_every_s=10.0,
            flush_retry_limit=1,
        ).save(tmp_path)
        plan = tmp_path / "flush-crash-plan.json"
        plan.write_text(json.dumps({"seed": SEED_SHIFT + 3, "sites": {
            SITE_FLUSH_FAIL: {"probability": 0.3}, SITE_CRASH: {"at_calls": [420]},
        }}))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        child = subprocess.run(
            [sys.executable, "-m", "repro.durability.harness", str(tmp_path),
             "--crash-plan", str(plan)],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        cluster, config, journal = resume_simulation(tmp_path)

        def counts():
            return (
                wellknown.faults_dead_letters(_fresh_registry).value(site=ABANDON_SITE),
                len(cluster.forwarder.dead_letters.entries(ABANDON_SITE)),
                sum(1 for d in journal.state.dead if d["site"] == ABANDON_SITE),
            )

        resumed = counts()
        assert resumed[0] == resumed[1] == resumed[2] > 0
        _report, conservation = run_to_completion(cluster, config)
        assert conservation.ok, conservation.render()
        assert counts() == resumed  # the resumed run injects no fault
        if SEED_SHIFT == 0:
            assert resumed[0] == 107

    def test_child_actually_dies_by_sigkill(self, tmp_path):
        _quick_config(seed=5).save(tmp_path)
        proc = run_child(tmp_path, crash_at=10, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        # the WAL holds at most the records committed before the 10th
        # arming check (group-committed accepts may still be pending)
        records, _ = replay_wal(tmp_path)
        assert len(records) <= 10
        # ...and a clean resume still conserves every message
        proc = run_child(tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["conservation"]["lost"] == 0
        assert report["conservation"]["duplicated"] == 0

    def test_clean_child_writes_report(self, tmp_path):
        _quick_config(seed=6).save(tmp_path)
        proc = run_child(tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["conservation"]["lost"] == 0
        assert "conservation OK" in proc.stdout
