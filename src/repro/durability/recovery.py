"""Durable ingest: journal, checkpoint payloads, resume, conservation.

The simulation trace is deterministic — ``generate_stream(seed)``
produces the same events every run — so each message's position in the
trace is a durable identity that survives process death.  The
:class:`StreamJournal` writes one WAL record *before* every transition
a message makes (accepted into the forwarder's buffer, rejected at the
relay, flushed, abandoned), keyed by that identity.  Recovery then has
an effectively-exactly-once story without distributed-systems
machinery:

1. load the newest valid checkpoint (bounded replay),
2. replay WAL records past its ``last_wal_seq`` — apply is idempotent,
   deduplicated by sequence number,
3. requeue what was polled but not committed, regenerate the trace and
   republish only events whose identity the journal has never seen.

Because the trace is regenerable, WAL records for trace events carry
only the index — message bodies are rematerialized from the trace on
resume, which keeps the per-message journal cost to a few bytes.  Only
synthetic identities (messages published outside the trace, negative
indices) embed the full body.  In memory the journal keeps the
:class:`~repro.core.message.SyslogMessage` it was handed, never a dict
copy; bodies are serialised once, when their accept record is written,
and converted to dicts only at the checkpoint boundary.

Accepts are also *group-committed*: they accumulate in memory and are
written at the next write barrier, in ``accept`` records of at most
:data:`ACCEPT_RECORD_EVENTS` events each — any other
record kind (flush, reject, abandon, requeue, control) and every
checkpoint — so the WAL stays ordered (an event's accept always
precedes any record that moves it) while the hot path costs a list
extend per poll instead of an encode+write per message.  A crash can lose the
pending window, but those events were still buffered, so recovery
simply republishes them from the regenerated trace: conservation holds;
the window is only visible as reprocessing, never as loss.

Conservation is the correctness contract, enforced by
:func:`reconcile`: at the end of a run — through any number of
SIGKILLs — every generated message has exactly one disposition
(indexed, rejected, dead-lettered, or still buffered), never zero
(lost) and never two (duplicated).
"""

from __future__ import annotations

import json
import os
import signal
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from repro.durability.checkpoint import (
    load_latest_checkpoint, load_telemetry, write_checkpoint, write_telemetry,
)
from repro.durability.wal import (
    JsonText,
    WalRecord,
    WriteAheadLog,
    _encode_json,
    iter_wal,
)
from repro.faults.plan import SITE_CRASH

__all__ = [
    "ConservationReport",
    "JournalState",
    "RECORD_KINDS",
    "SimConfig",
    "StreamJournal",
    "build_checkpoint_payload",
    "build_cluster",
    "checkpoint_cluster",
    "reconcile",
    "recover_state",
    "resume_simulation",
    "run_to_completion",
]

#: WAL record kinds the journal writes (one per message transition;
#: ``requeue`` is recovery returning polled-but-uncommitted events to
#: the broker; ``control`` is the controller's post-tick decision
#: state — setpoints, ladder rung, hysteresis — newest wins)
RECORD_KINDS = ("accept", "reject", "flush", "abandon", "requeue", "control")

META_FILENAME = "meta.json"

#: the most events one ``accept`` record carries: a write barrier splits
#: its pending accepts into consecutive records of at most this many, so
#: a replay decodes one such batch at a time, however large the poll
ACCEPT_RECORD_EVENTS = 512

_INF = float("inf")


# ---------------------------------------------------------------------------
# message bodies: kept as messages, written as their to_dict() JSON


def _json_number(value) -> str:
    """A number (or ``None``) exactly as the WAL's JSON encoder writes it."""
    kind = type(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _encode_body(message) -> str:
    """``message.to_dict()`` as the WAL encodes it — sorted keys, compact
    separators, ASCII — formatted in one pass, no dict built."""
    pid, ts = message.pid, message.timestamp
    try:
        return '{"app":%s,"fac":%d,"host":%s,"pid":%s,"sev":%d,"text":%s,"ts":%s}' % (
            _json_str(message.app), message.facility, _json_str(message.hostname),
            int.__repr__(pid) if type(pid) is int else _json_number(pid),
            message.severity, _json_str(message.text),
            # a finite float as repr() writes it; anything else decides itself
            float.__repr__(ts) if type(ts) is float and ts - ts == 0.0 else _json_number(ts),
        )
    except TypeError:  # a field of an unexpected type: the generic encoder decides
        return json.dumps(message.to_dict(), sort_keys=True, separators=(",", ":"))


def _message(body: dict | None):
    """A journaled body back as a message (``None`` stays ``None``)."""
    if body is None:
        return None
    from repro.core.message import SyslogMessage

    return SyslogMessage.from_dict(body)


def _accept_data(events: list, messages: list) -> JsonText:
    """One ``accept`` record's data: ``events``, and the body of each
    one whose message is kept (a synthetic event's)."""
    if messages.count(None) == len(messages):
        return JsonText('{"events":%s}' % _encode_json(events))
    # "msgs" keys are str(event), in the encoder's (string) order
    bodies = sorted(dict(zip(map(str, events), messages)).items())
    return JsonText('{"events":%s,"msgs":{%s}}' % (_encode_json(events), ",".join(
        ['"%s":%s' % (key, _encode_body(m)) for key, m in bodies if m is not None]
    )))


def _body(message) -> dict | None:
    return None if message is None else message.to_dict()


# ---------------------------------------------------------------------------
# journal state: the durable truth about every message's disposition


@dataclass
class JournalState:
    """Replayable projection of the WAL: where every message is now.

    Events are identified by their position in the deterministic trace
    (negative indices are synthetic, for messages published outside the
    trace).  Each identity lives in exactly one place — the buffer, the
    indexed columns, ``dead``, or ``rejected`` — and
    :meth:`apply` moves it between them.  Applies are idempotent:
    records at or below :attr:`applied_seq` are skipped, so replaying a
    prefix that a checkpoint already covers is harmless.

    The buffer and the indexed set are each two parallel columns: the
    events, and beside each its ``SyslogMessage`` for a synthetic event
    or None for a trace event (rematerialized from the trace on resume).
    A journaled line is its event and its message, no pair object; an
    indexed line's event is a machine word (``array('q')``), not an
    ``int`` object.
    """

    #: last WAL sequence applied (dedup line for replay)
    applied_seq: int = 0
    #: in-flight: accepted, not yet flushed/abandoned, in accept order
    buffer_events: list = field(default_factory=list)
    buffer_messages: list = field(default_factory=list)
    #: delivered to the store, in doc-id order
    indexed_events: array = field(default_factory=lambda: array("q"))
    indexed_messages: list = field(default_factory=list)
    #: dead-lettered: {"event", "msg", "site", "error"}
    dead: list = field(default_factory=list)
    #: refused at the relay: a brownout shed or a stalled partition
    rejected: list = field(default_factory=list)  # [event, ...]
    #: every trace identity ever published (resume skips these); a
    #: synthetic one is never in it
    seen: set = field(default_factory=set)
    #: the lowest synthetic identity held anywhere above (0 when none):
    #: a journal opened on this state draws its next one below it
    lowest_synthetic: int = 0
    #: committed consumer offsets (partition → next offset),
    #: carried by flush/abandon records — the durable commit log that
    #: outlives the broker's in-memory committed offsets
    offsets: dict = field(default_factory=dict)
    #: latest journaled controller decision state (``control`` records;
    #: None when the run has no controller) — resume rebinds the policy
    #: and restores this verbatim, so crashed control runs keep their
    #: setpoints, ladder rung, and hysteresis instead of cold defaults
    control: dict | None = None

    def apply(self, record: WalRecord) -> None:
        """Apply one WAL record; no-op when already applied."""
        if record.seq <= self.applied_seq:
            return
        self.applied_seq = record.seq
        kind, data = record.kind, record.data
        if kind == "accept":
            # group-committed batch: {"events": [...], "msgs": {str(e):
            # dict}} with bodies only for synthetic (negative) events
            events = data["events"]
            msgs = data.get("msgs")
            self.buffer_events.extend(events)
            if msgs:
                self.buffer_messages.extend([_message(msgs.get(str(e))) for e in events])
            else:
                self.buffer_messages.extend([None] * len(events))
            self._saw(events)
        elif kind == "reject":
            self.rejected.append(data["event"])
            self._saw((data["event"],))
        elif kind == "flush":
            self.flushed(data["events"], data.get("offsets"))
        elif kind == "abandon":
            events = data["events"]
            self.dead.extend(
                {"event": event, "msg": msg, "site": data["site"], "error": data["error"]}
                for event, msg in zip(events, self._retire_head(events))
            )
            self._merge_offsets(data.get("offsets"))
        elif kind == "requeue":
            # recovery: the events leave the buffer AND the seen set, so
            # the regenerated trace republishes them at their stable
            # offsets and the consumer re-polls them past the committed
            # offsets (at-least-once re-delivery)
            events = data["events"]
            self.seen.difference_update(events)
            self._retire_head(events)
            if events and min(events) <= self.lowest_synthetic:
                self.lowest_synthetic = self._lowest_held()
        elif kind == "control":
            # full post-tick snapshot, so newest-wins is the whole story
            self.control = data["state"]
        else:
            raise ValueError(f"unknown WAL record kind {kind!r}")

    def flushed(self, events: list, offsets: dict | None) -> None:
        """A ``flush`` record's move: ``events``, the buffer's head, are
        indexed, and ``offsets`` committed.  :meth:`apply` calls it for a
        replayed record, the journal for the record it just wrote."""
        self.indexed_messages.extend(self._retire_head(events))
        self.indexed_events.extend(events)
        self._merge_offsets(offsets)

    def _saw(self, events) -> None:
        """Note newly published ``events``: a trace identity joins
        :attr:`seen`, a synthetic one may lower :attr:`lowest_synthetic`."""
        low = min(events, default=0)
        if low >= 0:
            self.seen.update(events)
            return
        if low < self.lowest_synthetic:
            self.lowest_synthetic = low
        if max(events) >= 0:
            self.seen.update([e for e in events if e >= 0])

    def _lowest_held(self) -> int:
        """The lowest synthetic identity in the buffer, the indexed set,
        the dead letters or the rejects (0 when none)."""
        return min(
            0, min(self.buffer_events, default=0), min(self.indexed_events, default=0),
            min(self.rejected, default=0), min((d["event"] for d in self.dead), default=0),
        )

    def _merge_offsets(self, offsets: dict | None) -> None:
        """Max-wins merge of a record's committed-offset payload."""
        if offsets:
            mine = self.offsets
            for partition, next_offset in offsets.items():
                if next_offset > mine.get(partition, 0):
                    mine[partition] = int(next_offset)

    def _retire_head(self, events: list) -> list:
        """Remove the buffer's head, which must be ``events``, and return
        its messages: the journal retires a batch from the front, in the
        order it accepted it, so one slice of each column does it."""
        n = len(events)
        if self.buffer_events[:n] != events:
            raise ValueError(
                f"WAL record names events {events[:5]}… that are not the "
                f"head of the journal buffer"
            )
        messages = self.buffer_messages[:n]
        del self.buffer_events[:n]
        del self.buffer_messages[:n]
        return messages

    def to_payload(self) -> dict:
        """JSON-ready form for embedding in a checkpoint."""
        return {
            "applied_seq": self.applied_seq,
            "buffer": [[e, _body(m)] for e, m in zip(self.buffer_events, self.buffer_messages)],
            "indexed": [
                [e, _body(m)] for e, m in zip(self.indexed_events, self.indexed_messages)
            ],
            "dead": [{**d, "msg": _body(d["msg"])} for d in self.dead],
            "rejected": list(self.rejected),
            "offsets": dict(self.offsets),
            "control": self.control,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalState":
        state = cls(
            applied_seq=int(payload["applied_seq"]),
            buffer_events=[int(e) for e, _m in payload["buffer"]],
            buffer_messages=[_message(m) for _e, m in payload["buffer"]],
            indexed_events=array("q", (int(e) for e, _m in payload["indexed"])),
            indexed_messages=[_message(m) for _e, m in payload["indexed"]],
            dead=[{**d, "msg": _message(d["msg"])} for d in payload["dead"]],
            rejected=[int(e) for e in payload["rejected"]],
            # absent in pre-broker checkpoints
            offsets={
                str(p): int(o)
                for p, o in (payload.get("offsets") or {}).items()
            },
            # absent in pre-control checkpoints
            control=payload.get("control"),
        )
        state._saw(state.buffer_events)
        state._saw(state.indexed_events)
        state._saw([d["event"] for d in state.dead])
        state._saw(state.rejected)
        return state


class StreamJournal:
    """Write-ahead journal of message transitions.

    Accepts are group-committed: :meth:`accept_many` (one call per
    forwarder poll) updates the in-memory :class:`JournalState` and
    queues the events; the pending batch is written at the next *write
    barrier*, as consecutive ``accept`` records of at most
    :data:`ACCEPT_RECORD_EVENTS` events, with one arming check — any other
    record kind, or an explicit :meth:`flush_pending` (which every
    checkpoint takes first).  Barriers keep the WAL causally ordered:
    an event's accept record always precedes any record that moves it.
    Between barriers the in-memory state runs ahead of the log; a crash
    there loses only pending accepts, which recovery republishes from the
    regenerated trace (reprocessing, never loss).

    When a fault injector is armed at ``durability.crash``, each accept
    and each committed record is one arming check; a fire SIGKILLs the
    process on the spot, which is how the crash-recovery harness
    schedules kills at exact journal ordinals.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        *,
        injector=None,
        state: JournalState | None = None,
    ) -> None:
        self.wal = wal
        self.injector = injector
        self.state = state if state is not None else JournalState()
        # synthetic identities for messages published outside the trace
        self._auto = self.state.lowest_synthetic
        # accepts awaiting group commit: the last this many of the
        # state's buffer (a barrier writes them before anything retires)
        self._pending = 0

    @property
    def seen(self) -> set:
        """Trace identities already published (resume skips these)."""
        return self.state.seen

    def accept(self, event: int | None, message) -> None:
        """The forwarder is about to buffer ``message``: :meth:`accept_many` of one."""
        self.accept_many((event,), (message,))

    def accept_many(self, events: Sequence[int | None], messages: Sequence) -> None:
        """The forwarder is about to buffer ``messages`` (one poll).

        ``events`` are their identities, ``None`` for a message published
        outside the trace (it draws a synthetic one).  Trace events
        (``event >= 0``) journal only the index; the body is regenerable
        from the trace.  Synthetic events keep the message itself; its
        body is serialised when the accept record is written.  A call
        whose events are all ``None`` (the live listener's) draws its
        synthetic identities as one range.  ``events`` and ``messages``
        of different lengths raise ``ValueError`` before anything is
        journaled.  Each accept is one ``durability.crash`` arming
        check, in order.
        """
        n = len(messages)
        if len(events) != n:
            raise ValueError(f"accept_many: {len(events)} events for {n} messages")
        state = self.state
        if events.count(None) == n:
            if n:
                first = self._auto - 1
                self._auto -= n
                events = range(first, self._auto - 1, -1)
                state.lowest_synthetic = self._auto
            kept = messages
        else:
            events = [self._resolve(e) for e in events]
            kept = [m if e < 0 else None for e, m in zip(events, messages)]
            state._saw(events)
        state.buffer_events.extend(events)
        state.buffer_messages.extend(kept)
        self._pending += n
        if self.injector is not None:
            for _ in range(n):
                self._crash_check()

    def reject(self, event: int | None) -> None:
        """The relay is about to refuse a message: a brownout shed or a
        publish a stalled partition turned away."""
        self._barrier_commit("reject", {"event": self._resolve(event)})

    def flushed(self, n: int, *, offsets: dict | None = None) -> None:
        """The sink accepted the head batch of ``n`` messages.

        ``offsets`` records the batch's committed consumer offsets — the
        flush record *is* the durable offset commit; the broker's
        in-memory commit happens after and may be lost without harm.
        """
        events = self.state.buffer_events[:n]
        # the record's data, formatted as the WAL's encoder would
        if offsets:
            data = JsonText('{"events":%s,"offsets":%s}' % (
                _encode_json(events), _encode_json(offsets)))
        else:
            data = JsonText('{"events":%s}' % _encode_json(events))
        self.state.applied_seq = self._barrier_write("flush", data)
        self.state.flushed(events, offsets)
        self._crash_check()

    def abandoned(
        self, n: int, site: str, error: str, *, offsets: dict | None = None
    ) -> None:
        """The head batch of ``n`` is about to be dead-lettered."""
        data: dict = {
            "events": self.state.buffer_events[:n],
            "site": site, "error": error,
        }
        if offsets:
            data["offsets"] = dict(offsets)
        self._barrier_commit("abandon", data)

    def requeue_buffer(self) -> int:
        """Recovery: in-flight events go back to the broker.

        The buffer holds events that were polled but not committed when
        the process died.  A ``requeue`` record removes them from the
        buffer *and* the seen set: the regenerated trace republishes them
        at their stable offsets and the consumer re-polls them from the
        journal's committed offsets — Kafka's contract, an in-flight
        batch returns to the log on consumer death.  Returns the number
        of events requeued.
        """
        events = list(self.state.buffer_events)
        if not events:
            return 0
        self._barrier_commit("requeue", {"events": events})
        return len(events)

    def control_state(self, state: dict) -> None:
        """Journal the controller's post-tick decision state.

        One ``control`` record per tick, carrying the complete
        :meth:`~repro.control.controller.Controller.export_state`
        snapshot — setpoint moves, ladder transitions, and cooldown/
        hold state are all inside it, and newest-wins replay makes the
        record trivially idempotent.  A write barrier like any other
        non-accept record, so the control decision is totally ordered
        against the message dispositions it reacted to.
        """
        self._barrier_commit("control", {"state": state})

    def flush_pending(self) -> None:
        """Write barrier: group-commit any pending accepts to the WAL.

        Checkpoints call this before syncing so their ``last_wal_seq``
        covers every event in the snapshotted state.
        """
        self._write_pending(hold=False)

    def _write_pending(self, *, hold: bool) -> None:
        """Write the pending accepts as consecutive ``accept`` records of
        at most :data:`ACCEPT_RECORD_EVENTS` events, then make the one
        ``durability.crash`` check of the barrier; ``hold`` lets every one
        of them ride with the record appended after them."""
        k = self._pending
        if not k:
            return
        self._pending = 0
        state, wal = self.state, self.wal
        events = state.buffer_events[-k:]
        messages = state.buffer_messages[-k:]
        for i in range(0, k, ACCEPT_RECORD_EVENTS):
            if hold:
                wal.hold()
            # the events are already applied to the in-memory state; only
            # the dedup line moves (replay applies these records instead)
            state.applied_seq = wal.append("accept", _accept_data(
                events[i:i + ACCEPT_RECORD_EVENTS], messages[i:i + ACCEPT_RECORD_EVENTS]
            ))
        self._crash_check()

    def _resolve(self, event: int | None) -> int:
        if event is not None:
            return event
        self._auto -= 1
        return self._auto

    def _barrier_write(self, kind: str, data) -> int:
        """Write the pending accepts, then the record that moves them;
        returns the second's sequence number."""
        # they go out in one write — unless a kill may be scheduled
        # between them, which must still find only the accepts on disk
        self._write_pending(
            hold=not (self.injector is not None and self.injector.armed(SITE_CRASH))
        )
        return self.wal.append(kind, data)

    def _barrier_commit(self, kind: str, data: dict) -> None:
        seq = self._barrier_write(kind, data)
        self.state.apply(WalRecord(seq=seq, kind=kind, data=data))
        self._crash_check()

    def _crash_check(self) -> None:
        if self.injector is not None and self.injector.should_fire(SITE_CRASH):
            os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# the durable run configuration (meta.json beside the WAL)


@dataclass
class SimConfig:
    """Everything :func:`build_cluster` needs; ``meta.json`` on durable runs.

    The trace is regenerated from ``(duration_s, rate, seed,
    incident)`` — determinism is what makes trace positions durable
    identities — and the cluster/stage knobs are rebuilt from the rest.
    ``model_dir=None`` runs the classifier stage without real
    predictions at ``service_time_s`` per message (the pure queueing
    study), which is also what the subprocess harness uses to stay
    fast.
    """

    duration_s: float
    rate: float
    seed: int = 0
    incident: bool = False
    fsync: str = "batch"
    checkpoint_every_s: float = 60.0
    segment_bytes: int = 4_000_000
    flush_retry_limit: int | None = None
    degrade_backlog: int | None = None
    model_dir: str | None = None
    service_time_s: float = 0.01
    batch_size: int = 64
    #: forwarder knobs (defaults match TivanCluster's)
    flush_interval_s: float = 1.0
    forward_batch: int = 1000
    buffer_limit: int = 100_000
    #: replicated store (None keeps the single in-process LogStore)
    store_nodes: int | None = None
    store_replicas: int = 1
    write_quorum: int | None = None
    read_quorum: int | None = None
    #: cross-hop trace sampling (0.0 disables); the seed keys the
    #: deterministic per-event decision, so a resumed process re-traces
    #: the same messages with the same trace IDs
    trace_sample: float = 0.0
    trace_seed: int = 0
    #: template-dedup cache capacity for the classifier stage's
    #: pipeline (None = no cache); exact memoization, so a resumed run
    #: classifies identically with or without it
    template_cache: int | None = None
    #: offered-load shape ("standard", "surge", "diurnal", "constant");
    #: all profiles are pure functions of (duration, rate, swing, seed),
    #: so any of them is a regenerable durable trace
    load_profile: str = "standard"
    load_swing: float = 10.0
    #: serialized ControlPolicy (``ControlPolicy.to_dict``); resume
    #: rebinds it and restores the journaled controller state, which is
    #: what makes ``--control`` + ``--wal-dir`` legal
    control: dict | None = None

    def events(self):
        """Regenerate the deterministic trace this config describes."""
        from repro.datagen.workload import (
            offered_load_events,
            standard_simulation_events,
        )

        if self.load_profile != "standard":
            return offered_load_events(
                profile=self.load_profile, duration_s=self.duration_s,
                base_rate=self.rate, swing=self.load_swing, seed=self.seed,
            )
        return standard_simulation_events(
            duration_s=self.duration_s, background_rate=self.rate,
            seed=self.seed, incident=self.incident,
        )

    def save(self, directory: str | Path) -> Path:
        """Write ``meta.json`` into ``directory`` (created if missing)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / META_FILENAME
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "SimConfig":
        path = Path(directory) / META_FILENAME
        if not path.exists():
            raise FileNotFoundError(
                f"{path}: no simulation metadata — not a durable run "
                f"directory (start one with simulate --wal-dir)"
            )
        data = json.loads(path.read_text())
        if data.get("via_broker") is False:
            raise ValueError(
                f"{directory}: written by a push-mode run (via_broker=false); "
                f"only broker-fed runs can be resumed"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


# ---------------------------------------------------------------------------
# checkpoint payloads


def build_checkpoint_payload(cluster) -> dict:
    """Snapshot a running durable cluster's state as a JSON-ready payload."""
    from repro.faults.dlq import entry_to_dict

    journal = cluster.journal
    stage = cluster._stage
    categories = {}
    for doc in cluster.store.iter_documents():
        if doc.category is not None:
            categories[str(doc.doc_id)] = doc.category.value
    return {
        "sim_time": cluster.engine.now,
        "last_wal_seq": journal.wal.last_seq,
        "journal": journal.state.to_payload(),
        "cluster": {
            "stats": asdict(cluster.forwarder.stats),
            "stage": {
                "n_done": stage.n_done if stage else 0,
                "n_degraded": stage.n_degraded if stage else 0,
            },
            "degraded": cluster.degraded,
            "transitions": cluster.n_degrade_transitions,
            "backlog_samples": [[t, b] for t, b in cluster._backlog_samples],
            "categories": categories,
            "dlq": [entry_to_dict(e) for e in cluster.forwarder.dead_letters],
        },
    }


def checkpoint_cluster(cluster, *, crash_hook=None) -> Path:
    """Write one atomic checkpoint for a running durable cluster.

    Pending accepts are group-committed and the WAL fsynced first, so
    the checkpoint never claims a ``last_wal_seq`` the log might lose
    and never snapshots state the log has not yet seen.  The telemetry
    file follows it; its spans accumulate across generations, so one
    trace survives any number of SIGKILLs.
    """
    journal = cluster.journal
    journal.flush_pending()
    wal = journal.wal
    wal.sync()
    path = write_checkpoint(
        wal.directory, build_checkpoint_payload(cluster), seq=wal.last_seq, crash_hook=crash_hook,
    )
    write_telemetry(wal.directory)
    return path


# ---------------------------------------------------------------------------
# recovery


@dataclass
class RecoveredState:
    """What recovery reconstructed before the cluster is rebuilt."""

    state: JournalState
    checkpoint: dict | None
    checkpoint_path: Path | None
    replayed: int


def recover_state(wal_dir: str | Path, *, wal: WriteAheadLog | None = None) -> RecoveredState:
    """Newest valid checkpoint + idempotent WAL replay past it.

    Opening the :class:`WriteAheadLog` repairs any torn tail first;
    replay then applies only records with ``seq`` greater than the
    checkpoint's ``applied_seq`` (records the checkpoint already
    covers are skipped by :meth:`JournalState.apply`).

    Records are applied as they stream, one held at a time: through
    ``wal.records()`` when an open log is given, else through one
    read-only validating pass of ``wal_dir`` (:func:`iter_wal`, which
    repairs nothing).
    What recovery holds is the state it rebuilds, not the log.
    """
    from repro.obs import wellknown

    wal_dir = Path(wal_dir)
    payload, path = load_latest_checkpoint(wal_dir)
    if payload is not None:
        state = JournalState.from_payload(payload["journal"])
    else:
        state = JournalState()
    records = wal.records() if wal is not None else iter_wal(wal_dir)
    replayed = 0
    for record in records:
        if record.seq > state.applied_seq:
            state.apply(record)
            replayed += 1
    if replayed:
        wellknown.wal_replayed_records().inc(replayed)
    return RecoveredState(
        state=state, checkpoint=payload, checkpoint_path=path, replayed=replayed,
    )


def build_cluster(config: SimConfig, *, injector=None, journal=None):
    """Assemble the cluster ``config`` describes — the one assembly.

    Constructs the :class:`~repro.stream.tivan.TivanCluster`, attaches
    the classifier stage (the ``model_dir`` pipeline with its template
    cache and the injector, else pure queueing at ``service_time_s``)
    and binds the controller if the config carries a policy.  Loading
    the trace is the caller's (``load_events(config.events())``, or
    :func:`resume_simulation`); refused combinations raise ValueError.
    """
    from repro.core.taxonomy import Category
    from repro.stream.tivan import ClassifierStage, TivanCluster

    cluster = TivanCluster(
        flush_interval_s=config.flush_interval_s,
        batch_size=config.forward_batch,
        buffer_limit=config.buffer_limit,
        flush_retry_limit=config.flush_retry_limit,
        degrade_backlog=config.degrade_backlog,
        fault_injector=injector,
        journal=journal,
        checkpoint_every_s=config.checkpoint_every_s,
        store_nodes=config.store_nodes,
        store_replicas=config.store_replicas,
        write_quorum=config.write_quorum,
        read_quorum=config.read_quorum,
        trace_sample=config.trace_sample,
        trace_seed=config.trace_seed,
    )
    service_time_s, classify_batch = config.service_time_s, None
    if config.model_dir is not None:
        from repro.core.serialize import load_pipeline

        pipe = load_pipeline(config.model_dir)
        if config.template_cache is not None:
            from repro.core.template_cache import TemplateCache

            pipe.template_cache = TemplateCache(max_entries=config.template_cache)
        if injector is not None:
            pipe.fault_injector = injector
        service_time_s = max(pipe.mean_service_time, 1e-4)

        def classify_batch(texts):
            return [r.category for r in pipe.classify_batch(texts)]

    cluster.attach_classifier(ClassifierStage(
        service_time_s=service_time_s,
        classify_batch=classify_batch,
        batch_size=config.batch_size,
        # degraded path: no model inference — everything fails closed
        # to UNIMPORTANT so the queue keeps draining
        cheap_classify_batch=lambda texts: [
            Category.UNIMPORTANT for _ in texts
        ],
    ))
    if config.control is not None:
        from repro.control import ControlPolicy

        cluster.attach_controller(ControlPolicy.from_dict(config.control))
    return cluster


def run_to_completion(cluster, config: SimConfig):
    """Run a built and loaded cluster out — the tail every run shares.

    Runs to ``config.duration_s + SETTLE_MARGIN_S`` (``run`` clamps a
    resumed clock already past that) and, when the run is journaled,
    checks conservation and closes the WAL.  Returns ``(report,
    conservation)``; ``conservation`` is ``None`` on a volatile run.
    """
    from repro.stream.tivan import SETTLE_MARGIN_S

    report = cluster.run(config.duration_s + SETTLE_MARGIN_S)
    journal = cluster.journal
    if journal is None:
        return report, None
    conservation = reconcile(journal.state, report.produced)
    journal.wal.close()
    return report, conservation


def resume_simulation(wal_dir: str | Path, *, injector=None, config=None):
    """Build a durable :class:`~repro.stream.tivan.TivanCluster` from disk.

    This is the *only* way durable runs start: a fresh run is a resume
    from a directory holding nothing but ``meta.json``.  ``config``
    replaces it, saved only once this build accepted it.  Returns
    ``(cluster, config, journal)`` ready for ``cluster.run(...)``.

    Restore order matters: the WAL opens first (repairing any torn
    tail), the journal state is rebuilt (checkpoint + replay), the
    store/forwarder/stats are
    reconstructed *from the journal* — the single source of truth for
    dispositions; checkpoint counters only seed the cosmetic fields
    replay cannot see (batch counts, peak buffer) — the in-flight
    buffer is requeued to the broker, and finally the trace is
    regenerated and republished minus the identities seen.  Metrics
    restart with the process (a counter reads the owner this rebuilds);
    the earlier generations' hop spans are adopted from
    ``telemetry.json``, so one trace spans every pid that carried it.
    """
    from repro.core.message import SyslogMessage
    from repro.core.taxonomy import Category
    from repro.faults.dlq import DeadLetter, entry_from_dict
    from repro.obs import default_tracer

    wal_dir = Path(wal_dir)
    saved = config is None
    if saved:
        config = SimConfig.load(wal_dir)
    events = config.events()
    wal = WriteAheadLog(
        wal_dir, fsync=config.fsync, segment_bytes=config.segment_bytes,
    )
    recovered = recover_state(wal_dir, wal=wal)
    state, checkpoint = recovered.state, recovered.checkpoint

    def materialize(event: int, msg) -> SyslogMessage:
        # trace events journal only their index; the body comes from
        # the regenerated trace (same config, same seed, same message)
        return msg if msg is not None else events[event].message

    telemetry = load_telemetry(wal_dir)
    if telemetry is not None:
        default_tracer().adopt(telemetry.get("spans") or [])
    journal = StreamJournal(wal, injector=injector, state=state)
    cluster = build_cluster(config, injector=injector, journal=journal)
    if not saved:
        config.save(wal_dir)
    stage, stats = cluster._stage, cluster.forwarder.stats

    # -- restore from the checkpoint (cosmetics + clock) ------------------
    n_prior_dead = 0
    if checkpoint is not None:
        cluster.engine.now = float(checkpoint["sim_time"])
        cl = checkpoint["cluster"]
        for name, value in cl["stats"].items():
            setattr(stats, name, int(value))
        st = cl["stage"]
        stage.n_done = int(st["n_done"])
        stage.n_degraded = int(st["n_degraded"])
        cluster.degraded = bool(cl["degraded"])
        cluster.n_degrade_transitions = int(cl["transitions"])
        cluster._backlog_samples = [
            (float(t), int(b)) for t, b in cl["backlog_samples"]
        ]
        prior = [entry_from_dict(d) for d in cl["dlq"]]
        n_prior_dead = cluster.forwarder.dead_letters.restore(prior)

    # -- rebuild dispositions from the journal (the source of truth) ------
    categories = (
        checkpoint["cluster"].get("categories", {}) if checkpoint else {}
    )
    for doc_id, (event, msg) in enumerate(zip(state.indexed_events, state.indexed_messages)):
        cat = categories.get(str(doc_id))
        cluster.store.index(
            materialize(event, msg),
            Category(cat) if cat is not None else None,
        )
    stage.n_done = min(stage.n_done, len(cluster.store))
    # events that were polled but not committed go *back to the
    # broker* — the requeue record drops them from the buffer and the
    # seen set, so the regenerated trace republishes them at their
    # stable offsets and the consumer re-polls them from the journal's
    # committed offsets.  This must happen before the stats recompute
    # below so the formulas see the post-requeue (empty) buffer.
    journal.requeue_buffer()
    cluster.broker.restore_offsets(cluster.forwarder.consumer_group, state.offsets)
    replay_dead = [
        DeadLetter(seq=0, site=d["site"],
                   payload=materialize(d["event"], d["msg"]),
                   error=d["error"])
        for d in state.dead[n_prior_dead:]
    ]
    cluster.forwarder.dead_letters.restore(replay_dead)

    # conservation counters come from the journal, not the checkpoint:
    # replay may have moved messages since the snapshot was taken
    stats.accepted = len(state.indexed_events) + len(state.buffer_events) + len(state.dead)
    stats.flushed_messages = len(state.indexed_events)
    stats.abandoned_messages = len(state.dead)
    stats.max_buffer_seen = max(stats.max_buffer_seen, len(state.buffer_events))
    cluster.relay.received = stats.accepted + len(state.rejected)
    cluster.relay.dropped = len(state.rejected)

    if cluster.controller is not None and state.control is not None:
        cluster.controller.restore_state(state.control)

    cluster.load_events(events, skip=state.seen)
    return cluster, config, journal


# ---------------------------------------------------------------------------
# conservation


@dataclass
class ConservationReport:
    """Message accounting across crashes: nothing lost, nothing doubled.

    ``lost`` counts trace messages with no disposition at all;
    ``duplicated`` counts extra dispositions beyond the first.  Both
    must be zero at the end of a completed run, no matter how many
    times the process was killed along the way.
    """

    produced: int
    indexed: int
    dead_lettered: int
    rejected: int
    in_buffer: int
    duplicated: int
    lost: int

    @property
    def ok(self) -> bool:
        return self.duplicated == 0 and self.lost == 0

    def render(self) -> str:
        """One-line human-readable verdict with every count."""
        verdict = "OK" if self.ok else "VIOLATED"
        return (
            f"conservation {verdict}: produced={self.produced} "
            f"indexed={self.indexed} dead_lettered={self.dead_lettered} "
            f"rejected={self.rejected} "
            f"in_buffer={self.in_buffer} duplicated={self.duplicated} "
            f"lost={self.lost}"
        )


def reconcile(state: JournalState, produced: int) -> ConservationReport:
    """Check the conservation invariant over a journal's final state."""
    counts: Counter = Counter(state.indexed_events)
    counts.update(state.buffer_events)
    for d in state.dead:
        counts[d["event"]] += 1
    for e in state.rejected:
        counts[e] += 1
    trace = {e: n for e, n in counts.items() if 0 <= e < produced}
    return ConservationReport(
        produced=produced,
        indexed=sum(1 for e in state.indexed_events if 0 <= e < produced),
        dead_lettered=sum(1 for d in state.dead if 0 <= d["event"] < produced),
        rejected=sum(1 for e in state.rejected if 0 <= e < produced),
        in_buffer=sum(1 for e in state.buffer_events if 0 <= e < produced),
        duplicated=sum(n - 1 for n in trace.values() if n > 1),
        lost=produced - len(trace),
    )
