"""Cross-hop trace propagation: one trace from accept to fsync.

The tracer (:mod:`repro.obs.trace`) explains a single *batch*
inside one process.  The ingest spine is longer: listener accept → broker publish → consumer
poll → forwarder flush → quorum write → WAL append, possibly with a
SIGKILL and a resume in the middle.  This module carries a compact
:class:`TraceContext` along that whole path:

- :class:`TraceSampler` decides *deterministically* (splitmix64 over a
  seed and a stable per-message key) whether a message is traced, and
  derives its 32-hex trace ID from the same bits.  A resumed process
  with the same seed re-derives the same decisions and the same IDs,
  so a trace whose head was recorded before a SIGKILL is continued —
  not forked — by the replacement process.
- :func:`record_hop` appends one point-in-time span for a hop and
  returns the chained context (the new span becomes the parent of the
  next hop), stitching through the existing ``Tracer.adopt`` machinery.
  Every hop span carries a ``pid`` attribute, so a stitched trace shows
  its process boundaries explicitly.
- :func:`carrying`/:func:`carried` pass sampled contexts through call
  layers that have no parameter for them (the forwarder's sink is just
  a callable), via a :mod:`contextvars` variable.
- :func:`render_waterfall` draws the per-hop timeline the
  ``repro-syslog trace`` subcommand prints.

Contexts are plain frozen dataclasses and spans are plain dicts, so
both cross the telemetry file beside a checkpoint and process
boundaries untouched.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.obs import wellknown
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, default_tracer

__all__ = [
    "TraceContext",
    "TraceSampler",
    "derive_trace_id",
    "record_hop",
    "carrying",
    "carried",
    "render_waterfall",
    "EXPECTED_HOPS",
    "trace_is_complete",
]

#: The hop names a fully stitched broker-spine trace contains, in path
#: order.  The store hop is ``store.quorum_write`` (replicated) or
#: ``store.index`` (single-node); :func:`trace_is_complete` treats
#: them as one slot.
EXPECTED_HOPS: tuple[str, ...] = (
    "ingest.accept",
    "broker.publish",
    "broker.poll",
    "fluentd.flush",
    "store.quorum_write",
    "wal.append",
)


def trace_is_complete(span_names, *, journal: bool = True) -> bool:
    """Did this trace cover every hop of the broker spine?

    ``span_names`` is any iterable of hop names from one trace.  The
    WAL hop only exists on journalled runs, so pass ``journal=False``
    for volatile pipelines.
    """
    names = set(span_names)
    required = {"ingest.accept", "broker.publish", "broker.poll", "fluentd.flush"}
    if journal:
        required.add("wal.append")
    return required <= names and bool(
        {"store.quorum_write", "store.index"} & names
    )

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 output step: uniform 64-bit mixing, pure function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _key_bits(key: int | str) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "replace"))
    return int(key) & _MASK64


#: per-process ordinal feeding span-id generation in :func:`record_hop`
_span_seq = itertools.count(1)

#: ordinal sampling decisions are computed in vectorized blocks of this
#: many keys (a power of two, so the block base is a bit mask away)
_BLOCK = 4096


def _sample_block(seed_bits: int, base: int, threshold: int) -> np.ndarray:
    """Splitmix64 decisions for ordinals ``[base, base + _BLOCK)``.

    Bit-for-bit the same mixing as :meth:`TraceSampler.sample`, just
    over a uint64 lane per key — the per-message cost of deciding
    whether to trace drops from a Python hash to an array index.
    """
    if threshold > _MASK64:  # rate == 1.0: strictly-less-than can't see it
        return np.ones(_BLOCK, dtype=bool)
    keys = np.arange(base, base + _BLOCK, dtype=np.uint64)
    x = (np.uint64(seed_bits) ^ keys) + np.uint64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z < np.uint64(threshold)


def _base_bits(seed: int, key: int | str) -> int:
    return _splitmix64(_splitmix64(seed & _MASK64) ^ _key_bits(key))


def derive_trace_id(seed: int, key: int | str) -> str:
    """Deterministic 32-hex trace ID for ``key`` under ``seed``.

    Two chained splitmix64 outputs — the same function a resumed
    process applies, so the trace started before a crash and the one
    continued after it share an ID and stitch into a single trace.
    """
    base = _base_bits(seed, key)
    hi = _splitmix64(base ^ 0x1)
    lo = _splitmix64(base ^ 0x2)
    return f"{hi:016x}{lo:016x}"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """What travels with a sampled message.

    ``trace_id`` names the trace, ``span_id`` is the most recent hop
    (the parent of the next one), ``origin_s`` is the accept timestamp
    the e2e latency histogram measures from.  Frozen and tiny: brokers
    store it on records, the telemetry file serializes it implicitly
    through the exported spans.
    """

    trace_id: str
    span_id: str | None
    origin_s: float


def record_hop(
    ctx: TraceContext,
    name: str,
    start_s: float,
    end_s: float | None = None,
    *,
    tracer: Tracer | None = None,
    **attributes,
) -> TraceContext:
    """Append one hop span to ``ctx``'s trace; return the chained context.

    The span parents on ``ctx.span_id`` and the returned context points
    at the new span, so successive hops form a chain.  ``pid`` is
    stamped automatically — it is the evidence that a stitched trace
    really crossed a process boundary.
    """
    pid = os.getpid()
    # unique enough without an os.urandom syscall: a process-local
    # ordinal mixed with the pid (hops are recorded per sampled
    # message, so this runs hot)
    span_id = "%016x" % _splitmix64((pid << 20) ^ next(_span_seq))
    attributes["pid"] = pid  # the **kwargs dict is fresh: mutate, don't copy
    span = Span(
        name=name,
        trace_id=ctx.trace_id,
        span_id=span_id,
        parent_id=ctx.span_id,
        start_s=start_s,
        end_s=end_s if end_s is not None else start_s,
        attributes=attributes,
    )
    (tracer if tracer is not None else default_tracer())._finish(span)
    return TraceContext(ctx.trace_id, span_id, ctx.origin_s)


class TraceSampler:
    """Seedable head sampler: decides at accept, once, deterministically.

    ``rate`` is the sampled fraction in ``[0, 1]``.  The decision for a
    given ``key`` (the durable per-message ordinal, or any stable int /
    string) depends only on ``(seed, key)`` — never on wall clock or
    call order — which is what lets a SIGKILLed-and-resumed pipeline
    keep tracing the same messages.
    """

    def __init__(
        self,
        rate: float,
        *,
        seed: int = 0,
        tracer: Tracer | None = None,
        clock=time.time,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self.tracer = tracer
        self.clock = clock
        # < threshold over the full 64-bit range == probability `rate`
        self._threshold = int(rate * float(1 << 64))
        # the seed half of the mix never changes: fold it once so the
        # per-message decision is a single splitmix round (this runs
        # for every accepted message, sampled or not)
        self._seed_bits = _splitmix64(seed & _MASK64)
        self._block_base = -1
        self._block: np.ndarray | None = None
        self._m_sampled = wellknown.trace_sampled(registry).labels()

    def sample(self, key: int | str) -> bool:
        """Would ``key`` be traced?  Pure; safe to re-ask after resume.

        The splitmix round is inlined: this runs for every accepted
        message, sampled or not, and must stay in the telemetry budget.
        """
        bits = key & _MASK64 if type(key) is int else _key_bits(key)
        x = ((self._seed_bits ^ bits) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) < self._threshold

    def sample_ordinal(self, n: int) -> bool:
        """:meth:`sample` for dense non-negative ordinal keys.

        Decisions (identical to ``sample(n)``) come from a vectorized
        block cached across consecutive ordinals, so the steady-state
        per-message cost is an array index.
        """
        base = n & ~(_BLOCK - 1)
        if base != self._block_base:
            self._block = _sample_block(self._seed_bits, base, self._threshold)
            self._block_base = base
        return bool(self._block[n - base])

    def next_sampled_after(self, n: int) -> int | float:
        """The smallest ordinal ``> n`` that samples true (``inf`` at rate 0).

        The listener's accept path compares the incoming ordinal against
        this instead of asking :meth:`sample` per message — the untraced
        majority then costs one integer comparison.
        """
        if self._threshold <= 0:
            return float("inf")
        start = n + 1
        while True:
            base = start & ~(_BLOCK - 1)
            if base != self._block_base:
                self._block = _sample_block(
                    self._seed_bits, base, self._threshold
                )
                self._block_base = base
            hits = np.nonzero(self._block[start - base:])[0]
            if hits.size:
                return start + int(hits[0])
            start = base + _BLOCK

    def trace_id(self, key: int | str) -> str:
        """The trace ID ``key`` gets under this sampler's seed."""
        return derive_trace_id(self.seed, key)

    def begin(
        self, key: int | str, name: str = "ingest.accept", **attributes
    ) -> TraceContext | None:
        """Start a trace for ``key`` if sampled; else ``None``.

        Records the root hop span and returns the chained context to
        attach to the message.
        """
        if not self.sample(key):
            return None
        now = self.clock()
        self._m_sampled.inc()
        ctx = TraceContext(
            trace_id=derive_trace_id(self.seed, key), span_id=None, origin_s=now
        )
        return record_hop(ctx, name, now, tracer=self.tracer, **attributes)


# -- carrying contexts through parameterless call layers ----------------

_carried: contextvars.ContextVar[tuple[tuple[TraceContext, ...], object] | None] = (
    contextvars.ContextVar("repro_obs_carried_ctxs", default=None)
)


@contextlib.contextmanager
def carrying(ctxs, clock=time.time):
    """Expose ``ctxs`` to callees that take no trace parameter.

    The forwarder wraps its sink call in this so the store — whose
    ``bulk_index(messages)`` signature predates tracing — can pick the
    contexts up with :func:`carried` and record its own hop against the
    caller's clock.
    """
    token = _carried.set((tuple(ctxs), clock))
    try:
        yield
    finally:
        _carried.reset(token)


def carried() -> tuple[tuple[TraceContext, ...], object]:
    """The contexts (and clock) the current call stack carries, if any."""
    state = _carried.get()
    if state is None:
        return (), time.time
    return state


# -- waterfall rendering ------------------------------------------------

_BAR_WIDTH = 28


def render_waterfall(spans) -> str:
    """Horizontal per-hop timeline for one trace.

    Accepts :class:`Span` objects or exported span dicts.  Hops are
    sorted by start time; each row shows the hop's position in the
    trace's total span, its offset from the first hop, its own duration,
    and its attributes (including which pid recorded it).
    """
    spans = [Span.from_dict(s) if isinstance(s, dict) else s for s in spans]
    if not spans:
        return "(no spans)"
    spans = sorted(spans, key=lambda s: (s.start_s, s.name))
    t0 = spans[0].start_s
    t1 = max((s.end_s if s.end_s is not None else s.start_s) for s in spans)
    total = max(t1 - t0, 1e-12)
    name_w = max(len(s.name) for s in spans)
    lines = [
        f"trace {spans[0].trace_id}  ({len(spans)} hops, {t1 - t0:.3f}s)"
    ]
    for s in spans:
        end = s.end_s if s.end_s is not None else s.start_s
        lo = int((s.start_s - t0) / total * (_BAR_WIDTH - 1))
        hi = max(lo, int((end - t0) / total * (_BAR_WIDTH - 1)))
        bar = "".join(
            "█" if lo <= i <= hi else "·" for i in range(_BAR_WIDTH)
        )
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(s.attributes.items())
        )
        attrs = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"  {s.name:<{name_w}}  |{bar}|  +{s.start_s - t0:9.3f}s  "
            f"{(end - s.start_s) * 1e3:8.2f}ms{attrs}"
        )
    return "\n".join(lines)
