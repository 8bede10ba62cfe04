"""Dead-letter capture: poison messages survive with their context.

The resilience invariant the chaos suite enforces is *no silent loss*:
every message offered to the system is delivered, dropped-and-counted,
or parked here with the exception that condemned it.  A
:class:`DeadLetterQueue` is deliberately boring — an append-only run
of :class:`DeadLetter` records, the oldest dropped (and counted) at an
optional cap — because it must keep working while everything around it
is failing.

Queues travel across process boundaries (shard workers return their
new entries by value so the parent can adopt them), so entries hold
only picklable data: the payload, a string error, and a flat context
dict.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import wellknown

__all__ = ["DeadLetter", "DeadLetterQueue", "entry_to_dict", "entry_from_dict"]


def _payload_to_jsonable(payload) -> dict | str:
    """Encode a dead-letter payload for JSON persistence.

    Syslog messages round-trip exactly; strings pass through; anything
    else degrades to its ``repr`` (still inspectable, not rebuildable).
    """
    from repro.core.message import SyslogMessage

    if isinstance(payload, SyslogMessage):
        return {"__syslog__": payload.to_dict()}
    if isinstance(payload, str):
        return payload
    return {"__repr__": repr(payload)}


def _payload_from_jsonable(data):
    from repro.core.message import SyslogMessage

    if isinstance(data, dict) and "__syslog__" in data:
        return SyslogMessage.from_dict(data["__syslog__"])
    if isinstance(data, dict) and "__repr__" in data:
        return data["__repr__"]
    return data


def entry_to_dict(entry: "DeadLetter") -> dict:
    """JSON-ready form of one entry; inverse of :func:`entry_from_dict`."""
    return {
        "seq": entry.seq,
        "site": entry.site,
        "payload": _payload_to_jsonable(entry.payload),
        "error": entry.error,
        "context": dict(entry.context),
    }


def entry_from_dict(data: dict) -> "DeadLetter":
    """Rebuild one entry from :func:`entry_to_dict` output."""
    return DeadLetter(
        seq=int(data["seq"]),
        site=str(data["site"]),
        payload=_payload_from_jsonable(data["payload"]),
        error=str(data["error"]),
        context=dict(data.get("context", {})),
    )


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One captured message (slotted: a full queue carries no
    ``__dict__`` per entry).

    Attributes
    ----------
    seq:
        1-based position in the owning queue at capture time.
    site:
        Where the message was condemned (e.g. ``pipeline.quarantine``,
        ``fluentd.flush_abandoned``, ``ingest.parse``).
    payload:
        The message itself — text for pipeline quarantines, the
        :class:`~repro.core.message.SyslogMessage` for forwarder
        captures.
    error:
        ``repr`` of the exception (or a short reason string).
    context:
        Extra site-specific detail (attempt counts, batch position).
    """

    seq: int
    site: str
    payload: object
    error: str
    context: dict = field(default_factory=dict)


class DeadLetterQueue:
    """Bounded capture of condemned messages (oldest evicted at cap).

    Every capture increments ``repro_faults_dead_letters_total{site=}``
    in this process's registry — :meth:`extend` too, so captures adopted
    from another queue are counted once, where they land.  The per-site
    child and the eviction counter are bound once per registry
    (:class:`~repro.obs.wellknown.Bound`): a capture is one append and
    one increment, and only the recipes travel when the queue is
    pickled.

    ``max_entries`` caps the queue: sustained faults cannot grow the
    no-silent-loss backstop without bound.  Beyond the cap the *oldest*
    entry is dropped and counted into
    ``repro_faults_dlq_evicted_total`` (and :attr:`n_evicted`) — the
    loss is still never silent, it just moves from entry to counter.
    ``None`` (the default) keeps the queue unbounded.

    Sequence numbers are monotone over the queue's lifetime (they are
    assigned at capture and never reused), so :meth:`since` keeps
    returning exactly the post-cursor entries even after evictions.
    """

    def __init__(self, *, max_entries: int | None = None, registry=None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.registry = registry
        self._entries: deque[DeadLetter] = deque()
        self._next_seq = 0
        #: oldest entries dropped by the ``max_entries`` cap
        self.n_evicted = 0
        self._m_evicted = wellknown.Bound(wellknown.faults_dlq_evicted)
        self._m_captured: dict[str, wellknown.Bound] = {}

    def _append(self, site: str, payload, error: str, context: dict) -> DeadLetter:
        self._next_seq += 1
        entry = DeadLetter(self._next_seq, site, payload, error, context)
        self._entries.append(entry)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popleft()
            self.n_evicted += 1
            self._m_evicted(self.registry).inc()
        return entry

    def push(self, site: str, payload, error: str, **context) -> DeadLetter:
        """Capture one message; returns its record."""
        entry = self._append(site, payload, error, context)
        self._count(site)
        return entry

    def extend(self, entries) -> int:
        """Adopt entries captured elsewhere (renumbered); returns count."""
        n = 0
        for e in entries:
            self._append(e.site, e.payload, e.error, dict(e.context))
            self._count(e.site)
            n += 1
        return n

    def _count(self, site: str) -> None:
        captured = self._m_captured.get(site)
        if captured is None:
            captured = self._m_captured[site] = wellknown.Bound(
                wellknown.faults_dead_letters, site=site
            )
        captured(self.registry).inc()

    def entries(self, site: str | None = None) -> list[DeadLetter]:
        """All entries, optionally filtered to one site.

        A snapshot (one C-level copy), as every reader below takes: the
        listener's thread may capture while another reads, and a deque
        refuses to be iterated across an append.
        """
        snapshot = list(self._entries)
        if site is None:
            return snapshot
        return [e for e in snapshot if e.site == site]

    def since(self, n: int) -> list[DeadLetter]:
        """Entries with sequence number past ``n`` (the delta since a cursor)."""
        return [e for e in self.entries() if e.seq > n]

    def restore(self, entries) -> int:
        """Adopt entries *without* counting them (checkpoint/file restore).

        Unlike :meth:`extend`, the ``repro_faults_dead_letters_total``
        counters are not incremented: these captures were already
        counted when they happened, and the metrics snapshot travels
        separately in the checkpoint.  Entries are renumbered to stay
        consistent with any existing contents.
        """
        n = 0
        for e in entries:
            self._append(e.site, e.payload, e.error, dict(e.context))
            n += 1
        return n

    def to_jsonl(self, path: str | Path) -> Path:
        """Persist every entry as one JSON object per line.

        Dead letters are the no-silent-loss backstop, so they must
        survive restarts even outside the checkpoint path.
        """
        path = Path(path)
        with path.open("w") as fh:
            for e in self.entries():
                fh.write(json.dumps(entry_to_dict(e), sort_keys=True) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path, *, registry=None) -> "DeadLetterQueue":
        """Load a queue written by :meth:`to_jsonl`.

        Entries are restored without re-counting (see :meth:`restore`).

        Raises
        ------
        ValueError
            A line is not valid JSON or lacks the entry fields.
        """
        path = Path(path)
        queue = cls(registry=registry)
        entries = []
        with path.open() as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(entry_from_dict(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError) as e:
                    raise ValueError(
                        f"{path}:{lineno}: bad dead-letter record: {e}"
                    ) from e
        queue.restore(entries)
        return queue

    def counts_by_site(self) -> dict[str, int]:
        """Entry counts per site (the stats-reconciliation view)."""
        out: dict[str, int] = {}
        for e in self.entries():
            out[e.site] = out.get(e.site, 0) + 1
        return out

    def clear(self) -> None:
        """Drop all entries (metric counters are cumulative and stay)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeadLetterQueue(n={len(self._entries)})"
