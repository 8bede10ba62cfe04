"""Trace spans: where one batch's wall-clock time actually went.

Metrics (:mod:`repro.obs.metrics`) aggregate; spans explain a single
request.  A :class:`Span` is one timed operation with a trace ID shared
by every span in the same logical request, a span ID of its own, and a
parent link.  :class:`Tracer` hands out spans through a context-manager
API and keeps the finished ones for export.

Spans cross process boundaries by value: one process parents its
spans on another's ``span.context()`` dict and returns them serialized
(:meth:`Tracer.export`), and the receiver stitches them back into one
trace with :meth:`Tracer.adopt`.  The cross-hop spine
(:mod:`repro.obs.propagation`) chains its hop spans the same way, so a
trace survives a SIGKILL and a resume.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "default_tracer",
    "set_default_tracer",
]


def _new_id(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


@dataclass
class Span:
    """One timed operation inside a trace.

    Attributes
    ----------
    name:
        Operation label (``"broker.publish"``).
    trace_id:
        32-hex-char ID shared by every span of one logical request.
    span_id:
        16-hex-char ID of this span.
    parent_id:
        ``span_id`` of the enclosing span, ``None`` for a root.
    start_s / end_s:
        Wall-clock epoch seconds; ``end_s`` is ``None`` while open.
    attributes:
        Free-form string/number annotations (batch size, pid).
    """

    name: str
    trace_id: str = field(default_factory=lambda: _new_id(16))
    span_id: str = field(default_factory=lambda: _new_id(8))
    parent_id: str | None = None
    start_s: float = field(default_factory=time.time)
    end_s: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self.end_s if self.end_s is not None else time.time()
        return end - self.start_s

    def context(self) -> dict[str, str]:
        """The propagation context: what a child on the far side needs."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def to_dict(self) -> dict:
        """JSON/pickle-friendly form for crossing process boundaries."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


class _SpanHandle:
    """Context manager produced by :meth:`Tracer.span`."""

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.end_s = time.time()
        if exc_type is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        assert self._token is not None
        self._tracer._current.reset(self._token)
        self._tracer._finish(self.span)


class Tracer:
    """Creates, nests, and collects spans.

    ::

        tracer = Tracer()
        with tracer.span("classify", n=500) as root:
            with tracer.span("vectorize"):   # child of root, automatically
                ...
        timeline = render_waterfall(tracer.finished)  # repro.obs.propagation

    Nesting is tracked per :mod:`contextvars` context, so concurrent
    asyncio tasks or threads each get their own current-span stack
    while sharing one finished-span list (guarded by a lock).
    """

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_obs_current_span", default=None
        )
        self._lock = threading.Lock()
        self.finished: list[Span] = []

    def span(self, name: str, parent: Span | dict | None = None, **attributes):
        """Open a span; use as a context manager.

        ``parent`` overrides the ambient current span: pass a
        :class:`Span` or a ``span.context()`` dict (the cross-process
        case).  Keyword arguments become span attributes.
        """
        if parent is None:
            parent = self._current.get()
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif isinstance(parent, dict):
            trace_id, parent_id = parent["trace_id"], parent["span_id"]
        else:
            trace_id, parent_id = _new_id(16), None
        span = Span(
            name=name,
            trace_id=trace_id,
            parent_id=parent_id,
            attributes=dict(attributes),
        )
        return _SpanHandle(self, span)

    def current(self) -> Span | None:
        """The innermost open span in this context, if any."""
        return self._current.get()

    def _finish(self, span: Span) -> None:
        with self._lock:
            self.finished.append(span)

    # -- cross-process stitching --------------------------------------

    def export(self, clear: bool = True) -> list[dict]:
        """Finished spans as dicts (what another tracer adopts)."""
        with self._lock:
            out = [s.to_dict() for s in self.finished]
            if clear:
                self.finished.clear()
        return out

    def adopt(self, spans: list[dict]) -> None:
        """Fold spans exported by another tracer into this one."""
        with self._lock:
            self.finished.extend(Span.from_dict(d) for d in spans)

    def drain(self) -> list[Span]:
        """Remove and return all finished spans."""
        with self._lock:
            out = list(self.finished)
            self.finished.clear()
        return out

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by ``trace_id``."""
        out: dict[str, list[Span]] = {}
        with self._lock:
            for s in self.finished:
                out.setdefault(s.trace_id, []).append(s)
        return out

    def index(self) -> list[dict]:
        """One summary row per trace, in trace-id order: hop count, the
        distinct span names, first start to last end (the ``/trace``
        body and the ``repro-syslog trace`` listing)."""
        out = []
        for trace_id, spans in sorted(self.traces().items()):
            starts = [s.start_s for s in spans]
            ends = [s.end_s if s.end_s is not None else s.start_s for s in spans]
            out.append({
                "trace_id": trace_id,
                "hops": len(spans),
                "names": sorted({s.name for s in spans}),
                "span_s": max(ends) - min(starts),
            })
        return out


_default_tracer = Tracer()
_default_tracer_lock = threading.Lock()


def default_tracer() -> Tracer:
    """The process-wide tracer instrumented code records into."""
    return _default_tracer


def set_default_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _default_tracer
    with _default_tracer_lock:
        previous = _default_tracer
        _default_tracer = tracer
    return previous
