"""Dead-letter capture: poison messages survive with their context.

The resilience invariant the chaos suite enforces is *no silent loss*:
every message offered to the system is delivered, dropped-and-counted,
or parked here with the exception that condemned it.  A
:class:`DeadLetterQueue` is deliberately boring — an append-only run
of :class:`DeadLetter` records, the oldest dropped (and counted) at an
optional cap — because it must keep working while everything around it
is failing.

Entries hold only plain data — the payload, a string error, and a
flat context dict — so a checkpoint carries them as JSON
(:func:`entry_to_dict`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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

    The queue counts its own captures per site in :attr:`captured`;
    ``repro_faults_dead_letters_total{site=}`` is a view of that dict,
    bound in ``registry`` (default: the process registry) when the
    queue is constructed, so a capture is one append and one dict
    increment.  That registry holds the queue from then on, as it holds
    every view's owner.

    ``max_entries`` caps the queue: sustained faults cannot grow the
    no-silent-loss backstop without bound.  Beyond the cap the *oldest*
    entry is dropped and counted in :attr:`n_evicted`, which
    ``repro_faults_dlq_evicted_total`` views — the loss is still never
    silent, it just moves from entry to counter.  ``None`` (the
    default) keeps the queue unbounded.

    Sequence numbers are monotone over the queue's lifetime (they are
    assigned at capture and never reused), so the entries past a cursor
    are exactly those whose ``seq`` exceeds it, evictions or not.
    """

    def __init__(self, *, max_entries: int | None = None, registry=None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: deque[DeadLetter] = deque()
        self._next_seq = 0
        #: captures per site: every push, and every entry a restore adopted
        self.captured: dict[str, int] = {}
        #: oldest entries dropped by the ``max_entries`` cap
        self.n_evicted = 0
        wellknown.faults_dead_letters(registry).view(self.captured, dict.copy)
        wellknown.faults_dlq_evicted(registry).view(self, "n_evicted")

    def _append(self, site: str, payload, error: str, context: dict) -> DeadLetter:
        self._next_seq += 1
        entry = DeadLetter(self._next_seq, site, payload, error, context)
        self._entries.append(entry)
        captured = self.captured
        captured[site] = captured.get(site, 0) + 1
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popleft()
            self.n_evicted += 1
        return entry

    def push(self, site: str, payload, error: str, **context) -> DeadLetter:
        """Capture one message; returns its record."""
        return self._append(site, payload, error, context)

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

    def restore(self, entries) -> int:
        """Adopt entries an earlier life of the queue captured (a
        checkpoint's, or the journal's), renumbered after any existing
        contents.

        Each adopted entry is counted in :attr:`captured`: the process
        that made the capture is gone, and its count with it.
        """
        n = 0
        for e in entries:
            self._append(e.site, e.payload, e.error, dict(e.context))
            n += 1
        return n

    def counts_by_site(self) -> dict[str, int]:
        """Entry counts per site (the stats-reconciliation view)."""
        out: dict[str, int] = {}
        for e in self.entries():
            out[e.site] = out.get(e.site, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeadLetterQueue(n={len(self._entries)})"
