"""Metrics primitives: counters, gauges, histograms, and the registry.

The paper's Tivan stack terminates in Grafana panels fed by OpenSearch —
monitoring *is* the deliverable (§4.2) — so the reproduction needs live
operational telemetry, not just after-the-fact reports.  This module is
the metrics half of :mod:`repro.obs`: a process-wide registry of
:class:`Counter` / :class:`Gauge` / :class:`Histogram` families with
labels, thread-safe updates, and two exposition formats (Prometheus
text and a JSON snapshot) so the counters a run accumulates can feed a
real scrape endpoint or a file handed to ``repro-syslog metrics``.

Design notes
------------
- A *family* is one named metric (``repro_pipeline_stage_seconds``)
  with a fixed label-name tuple; a *child* is one label-value
  combination.  Unlabeled families materialize their single child at
  construction, so declared metrics expose a zero sample before the
  first event — standard Prometheus client behaviour.
- A count is kept once: a counter or gauge whose number a layer owns
  is a *view* of it (Prometheus's custom-collector pattern, see
  :meth:`_Viewable.view`), read at every read — the hot path writes
  nothing.  A view holds a small state object, never the layer, so a
  registry keeps no store or buffer alive.
- Writes take the family's lock, and every family one registry
  creates shares the registry's one write lock, so a layer observing
  several histograms at one point takes it once (``observe_held``).
- Everything pickles: locks are dropped on ``__getstate__`` and
  recreated on ``__setstate__`` (a pipeline holding metric references
  can be copied to another process), and a view is stored as the plain
  value it reads.
"""

from __future__ import annotations

import json
import re
import threading
import time
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import nullcontext
from operator import attrgetter
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Views",
    "default_latency_buckets",
    "default_registry",
    "set_default_registry",
    "use_registry",
    "histogram_quantile",
    "parse_prometheus",
    "write_snapshot",
    "load_snapshot",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def default_latency_buckets() -> tuple[float, ...]:
    """Fixed log-scale latency buckets: 1µs to 50s, 1-2.5-5 per decade.

    Wide enough to hold both a single vectorize stage on a small batch
    (tens of µs) and a long end-to-end request (seconds) in one scheme,
    so every latency histogram in the repo shares bucket edges and
    panels are directly comparable.
    """
    return tuple(m * 10.0 ** e for e in range(-6, 2) for m in (1.0, 2.5, 5.0))


def _validate_labels(label_names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(label_names)
    for n in names:
        if not _LABEL_RE.match(n):
            raise ValueError(f"invalid label name {n!r}")
    return names


class _Child:
    """One label-value combination of a family; holds the value(s)."""

    __slots__ = ("_family", "lock")

    def __init__(self, family: "_Family") -> None:
        self._family = family
        #: the lock every write of this child takes (its family's).
        #: Every family a :class:`MetricsRegistry` creates shares the
        #: registry's one write lock, so a caller that writes several of
        #: its children at one point takes the lock once and writes them
        #: with the ``*_held`` methods inside it
        self.lock = family._lock

    # locks do not pickle: the family re-links its children on load
    def __getstate__(self):
        return {name: getattr(self, name) for cls in type(self).__mro__
                for name in getattr(cls, "__slots__", ()) if name != "lock"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "_Family") -> None:
        super().__init__(family)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self.lock:
            self.value += amount


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "_Family") -> None:
        super().__init__(family)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self.lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self.lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("bucket_counts", "sum", "count", "_buckets")

    def __init__(self, family: "Histogram") -> None:
        super().__init__(family)
        # one slot per finite upper edge, plus the +Inf overflow slot
        self.bucket_counts = [0] * (len(family.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._buckets = family.buckets

    def observe(self, value: float) -> None:
        with self.lock:
            # Prometheus buckets are "le": a value on an edge counts in
            # that edge's bucket, so the first edge >= value wins
            self.bucket_counts[bisect_left(self._buckets, value)] += 1
            self.sum += value
            self.count += 1

    def observe_held(self, value: float) -> None:
        """:meth:`observe` for a caller holding :attr:`lock`."""
        self.bucket_counts[bisect_left(self._buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper-edge, cumulative-count) pairs; the last edge is +Inf."""
        out, running = [], 0
        edges = (*self._family.buckets, float("inf"))
        for edge, n in zip(edges, self.bucket_counts):
            running += n
            out.append((edge, running))
        return out


class _Family:
    """Base of one named metric with a fixed label-name tuple."""

    kind = "untyped"
    _child_cls: type = _Child

    def __init__(
        self, name: str, help: str = "", labels: Sequence[str] = (), *, lock=None
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.label_names = _validate_labels(labels)
        #: guards the children map and every child write; a registry
        #: hands all its families one (see :attr:`_Child.lock`)
        self._lock = lock if lock is not None else threading.Lock()
        self._children: dict[tuple[str, ...], _Child] = {}
        if not self.label_names:
            self._child(())

    def _child(self, key: tuple[str, ...]):
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._child_cls(self)
            return child

    def labels(self, **labels: str):
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return self._child(tuple(str(labels[n]) for n in self.label_names))

    def samples(self) -> list[tuple[dict[str, str], _Child]]:
        """(label-dict, child) pairs in insertion order."""
        with self._lock:
            self._refresh()
            items = list(self._children.items())
        return [(dict(zip(self.label_names, key)), c) for key, c in items]

    def _refresh(self) -> None:
        """Bring the children up to date before a read (lock held)."""

    # locks do not pickle; recreate them on load
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._relink(threading.Lock())

    def _relink(self, lock) -> None:
        """Make ``lock`` the one this family and its children write under."""
        self._lock = lock
        for child in self._children.values():
            child.lock = lock


class _Source:
    """One owner's share of a view family (see :meth:`_Viewable.view`)."""

    __slots__ = ("owner", "read", "key", "base")

    def __init__(self, owner, read, key, base) -> None:
        self.owner, self.read, self.key, self.base = owner, read, key, base

    def items(self) -> list:
        """(label values, number) pairs as the owner holds them now, less the base."""
        got = self.read(self.owner)
        if self.key is not None:
            got = {self.key: got}
        base = self.base or {}
        return [
            (key if type(key) is tuple else (key,), n - base.get(key, 0))
            for key, n in list(got.items())
        ]


class _Viewable(_Family):
    """A counter or gauge family: written, or read from its owners."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sources: list[_Source] = []

    def view(self, owner, read, *, base=None, **labels: str) -> _Source:
        """Read samples from ``owner`` at every read from now on; returns
        the handle :meth:`unview` takes.

        ``read`` (an attribute name, or a function of ``owner``) gives
        the child for ``labels`` its number — that child exists from now
        on — or, with no labels on a labelled family, a dict of label
        values (a tuple, or the one value) to numbers, a child appearing
        once its number is nonzero.  ``base`` (a number, or a dict keyed
        as ``read``'s) is subtracted.  Owners are summed per label
        set, and a counter never reads lower than it did.  A view added
        to a family with none drops the values it held.
        """
        key = None
        if labels or not self.label_names:
            self.labels(**labels)  # checks them; the child exists from now on
            key = tuple(str(labels[n]) for n in self.label_names)
        if base is not None and key is not None:
            base = {key: base}
        source = _Source(owner, attrgetter(read) if isinstance(read, str) else read, key, base)
        with self._lock:
            if not self._sources:
                for child in self._children.values():
                    child.value = 0.0
            self._sources.append(source)
        return source

    def unview(self, source: _Source) -> None:
        """Stop reading ``source``'s owner; a counter keeps what it counted."""
        with self._lock:
            if self.kind == "counter":  # the source reads what it counted, for good
                source.owner, source.read, source.key, source.base = (
                    dict(source.items()), dict.copy, None, None
                )
            else:
                self._refresh()
                self._sources.remove(source)

    def _refresh(self) -> None:
        if not self._sources:
            return
        totals: dict = {}
        for source in self._sources:
            for key, n in source.items():
                totals[key] = totals.get(key, 0) + n
        children, gauge = self._children, self.kind == "gauge"
        for key, n in totals.items():
            child = children.get(key)
            if child is None:
                if not n:
                    continue
                child = children[key] = self._child_cls(self)
            if gauge or n > child.value:
                child.value = float(n)

    def value(self, **labels: str) -> float:
        """Current value of the child for ``labels``."""
        with self._lock:
            self._refresh()
        return (self.labels(**labels) if labels else self._child(())).value

    # a view pickles as the value it reads
    def __getstate__(self):
        with self._lock:
            self._refresh()
        state = super().__getstate__()
        state["_sources"] = []
        return state


class Counter(_Viewable):
    """Monotonically increasing count (messages, drops, batches)."""

    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the child for ``labels``."""
        (self.labels(**labels) if labels else self._child(())).inc(amount)


class Gauge(_Viewable):
    """Point-in-time level (buffer depth, backlog)."""

    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float, **labels: str) -> None:
        """Set the child for ``labels`` to ``value``."""
        (self.labels(**labels) if labels else self._child(())).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the child for ``labels``."""
        (self.labels(**labels) if labels else self._child(())).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Subtract ``amount`` from the child for ``labels``."""
        (self.labels(**labels) if labels else self._child(())).dec(amount)


class Histogram(_Family):
    """Distribution over fixed buckets (log-scale latency by default)."""

    kind = "histogram"
    _child_cls = _HistogramChild

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
        *,
        lock=None,
    ) -> None:
        edges = tuple(buckets) if buckets is not None else default_latency_buckets()
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges):
            raise ValueError(f"bucket edges must be sorted, got {edges}")
        self.buckets = edges
        super().__init__(name, help, labels, lock=lock)

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the child for ``labels``."""
        (self.labels(**labels) if labels else self._child(())).observe(value)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Views:
    """The views one owner keeps in the registry it reports to.

    :meth:`follow` is true when the registry (and ``key``: the owner's
    process, say) is not where the views were attached: they are let go
    there — a counter keeps what it counted — and the owner attaches
    afresh with :meth:`attach`.  A pickled copy holds none.
    """

    __slots__ = ("_families", "_key", "views")

    def __init__(self) -> None:
        self._families = self._key = None
        #: the (family, source) pairs attached
        self.views: list = []

    def follow(self, registry: "MetricsRegistry", *key) -> bool:
        """True, with the views let go, when ``registry`` and ``key`` are
        not where they were attached."""
        if registry._families is self._families and key == self._key:
            return False
        self.clear()
        self._families, self._key = registry._families, key
        return True

    def attach(self, family: "_Viewable", owner, read, **kwargs) -> None:
        """``family.view(owner, read, **kwargs)``, let go at the next move."""
        self.views.append((family, family.view(owner, read, **kwargs)))

    def clear(self) -> None:
        """Let every view go; the next :meth:`follow` is true."""
        for family, source in self.views:
            family.unview(source)
        self._families, self.views = None, []

    def __reduce__(self):
        return Views, ()


class MetricsRegistry:
    """Process-wide home of metric families.

    Factory methods are get-or-create: instrumented modules can resolve
    the same family independently without coordinating, and asking for
    an existing name with a different type or label set is an error
    (silent divergence would corrupt the exposition).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: the one lock every family created here writes under
        self._write_lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self.created_at = time.time()

    # -- factories -----------------------------------------------------

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> _Family:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = cls(
                    name, help, labels, lock=self._write_lock, **kwargs
                )
                return fam
        if not isinstance(fam, cls):
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"requested {cls.kind}"
            )
        if fam.label_names != _validate_labels(labels):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{fam.label_names}, requested {tuple(labels)}"
            )
        return fam

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        """Get or create the :class:`Counter` family ``name``."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """Get or create the :class:`Gauge` family ``name``."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """Get or create the :class:`Histogram` family ``name``."""
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- access --------------------------------------------------------

    def collect(self) -> list[_Family]:
        """All families in registration order."""
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> _Family | None:
        """The family registered as ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Drop every family (tests and benchmark isolation)."""
        with self._lock:
            # a fresh dict, not clear(): ``Views.follow`` notices by its identity
            self._families = {}
        self.created_at = time.time()

    # registries ride along when a pipeline crosses a process boundary
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"], state["_write_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        for fam in self._families.values():
            fam._relink(self._write_lock)

    # -- exposition ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every family.

        Histogram buckets are cumulative ``[upper_edge, count]`` pairs
        with the overflow edge spelled ``"+Inf"`` (JSON has no
        Infinity literal).
        """
        metrics = []
        for fam in self.collect():
            entry: dict = {
                "name": fam.name,
                "type": fam.kind,
                "help": fam.help,
                "label_names": list(fam.label_names),
                "samples": [],
            }
            for labels, child in fam.samples():
                if fam.kind == "histogram":
                    entry["samples"].append({
                        "labels": labels,
                        "buckets": [
                            ["+Inf" if edge == float("inf") else edge, n]
                            for edge, n in child.cumulative()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    entry["samples"].append({"labels": labels, "value": child.value})
            metrics.append(entry)
        return {
            "uptime_seconds": time.time() - self.created_at,
            "metrics": metrics,
        }

    def to_json(self) -> str:
        """The snapshot as an indented JSON string."""
        return json.dumps(self.snapshot(), indent=2)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        return render_prometheus(self.snapshot())


class _NullMetric:
    """A metric that forgets everything; answers every family API."""

    lock = nullcontext()

    def labels(self, **labels: str) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def view(self, owner, read, *, base=None, **labels: str) -> None:
        pass

    def unview(self, source) -> None:
        pass

    def observe_held(self, value: float) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """A registry whose metrics are shared no-ops.

    Install with :func:`set_default_registry` (or :func:`use_registry`)
    to measure the hot path with instrumentation compiled down to
    nothing — ``benchmarks/bench_obs_overhead.py`` uses exactly this to
    bound the cost of the default registry.
    """

    def counter(self, name, help="", labels=()):  # type: ignore[override]
        """The shared no-op metric."""
        return _NULL_METRIC

    def gauge(self, name, help="", labels=()):  # type: ignore[override]
        """The shared no-op metric."""
        return _NULL_METRIC

    def histogram(self, name, help="", labels=(), buckets=None):  # type: ignore[override]
        """The shared no-op metric."""
        return _NULL_METRIC

    def collect(self):  # type: ignore[override]
        """Always empty: nothing is ever recorded."""
        return []


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code writes to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


class use_registry:
    """Context manager: install ``registry`` as the process default.

    ::

        with use_registry(MetricsRegistry()) as reg:
            pipe.classify_batch(batch)
        print(reg.to_prometheus())
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_default_registry(self.registry)
        return self.registry

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_default_registry(self._previous)


# -- quantiles ---------------------------------------------------------


def histogram_quantile(buckets: Sequence[tuple[float, int]], q: float) -> float:
    """Estimate the q-quantile from cumulative (edge, count) buckets.

    Linear interpolation inside the winning bucket, the same estimator
    Prometheus' ``histogram_quantile`` uses; values beyond the last
    finite edge clamp to it.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    rank = q * total
    prev_edge, prev_cum = 0.0, 0
    for edge, cum in buckets:
        if cum >= rank:
            if edge == float("inf"):
                return prev_edge
            if cum == prev_cum:
                return edge
            frac = (rank - prev_cum) / (cum - prev_cum)
            return prev_edge + frac * (edge - prev_edge)
        prev_edge, prev_cum = (0.0 if edge == float("inf") else edge), cum
    return prev_edge


# -- Prometheus text rendering / parsing -------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt_labels(labels: dict[str, str], extra: tuple[str, str] | None = None) -> str:
    pairs = [(k, v) for k, v in labels.items()]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _fmt_edge(edge) -> str:
    return "+Inf" if edge in ("+Inf", float("inf")) else _fmt_value(float(edge))


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text format."""
    lines: list[str] = []
    for metric in snapshot["metrics"]:
        name, kind = metric["name"], metric["type"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in metric["samples"]:
            labels = sample.get("labels", {})
            if kind == "histogram":
                for edge, count in sample["buckets"]:
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels(labels, ('le', _fmt_edge(edge)))} {count}"
                    )
                lines.append(f"{name}_sum{_fmt_labels(labels)} "
                             f"{_fmt_value(sample['sum'])}")
                lines.append(f"{name}_count{_fmt_labels(labels)} "
                             f"{sample['count']}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)} "
                             f"{_fmt_value(sample['value'])}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text format back into a snapshot dict.

    The inverse of :func:`render_prometheus` (modulo ``uptime_seconds``,
    which a text file does not carry): ``repro-syslog metrics file.prom``
    uses this to re-render a scraped/dumped exposition as panels.
    """
    metrics: dict[str, dict] = {}
    types: dict[str, str] = {}
    helps: dict[str, str] = {}

    def base_name(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name.removesuffix(suffix)
            if stripped != name and types.get(stripped) == "histogram":
                return stripped
        return name

    def entry(name: str) -> dict:
        if name not in metrics:
            metrics[name] = {
                "name": name,
                "type": types.get(name, "untyped"),
                "help": helps.get(name, ""),
                "label_names": [],
                "samples": [],
            }
        return metrics[name]

    def sample_for(metric: dict, labels: dict) -> dict:
        for s in metric["samples"]:
            if s["labels"] == labels:
                return s
        s = {"labels": labels}
        if metric["type"] == "histogram":
            s.update(buckets=[], sum=0.0, count=0)
        metric["samples"].append(s)
        metric["label_names"] = sorted({k for smp in metric["samples"]
                                        for k in smp["labels"]})
        return s

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: cannot parse sample: {raw!r}")
        full_name = m.group("name")
        labels = {
            k: _unescape_label(v)
            for k, v in _LABEL_PAIR_RE.findall(m.group("labels") or "")
        }
        value = _parse_value(m.group("value"))
        name = base_name(full_name)
        metric = entry(name)
        if metric["type"] == "histogram":
            le = labels.pop("le", None)
            sample = sample_for(metric, labels)
            if full_name.endswith("_bucket") and le is not None:
                edge = "+Inf" if le == "+Inf" else float(le)
                sample["buckets"].append([edge, int(value)])
            elif full_name.endswith("_sum"):
                sample["sum"] = value
            elif full_name.endswith("_count"):
                sample["count"] = int(value)
        else:
            sample_for(metric, labels)["value"] = value
    return {"uptime_seconds": None, "metrics": list(metrics.values())}


# -- snapshot files ----------------------------------------------------


def write_snapshot(path: str | Path, registry: MetricsRegistry | None = None) -> Path:
    """Write the registry to ``path``; format picked by extension.

    ``.prom`` (and ``.txt``) get Prometheus text format, anything else
    the JSON snapshot.
    """
    registry = registry if registry is not None else default_registry()
    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        path.write_text(registry.to_prometheus())
    else:
        path.write_text(registry.to_json())
    return path


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot file written by :func:`write_snapshot`.

    JSON is detected by content (leading ``{``), so both formats load
    regardless of extension.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    return parse_prometheus(text)
