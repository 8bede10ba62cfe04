"""The paced round, assembled from public constructors and counted.

One round is what the spine does for every flush it makes:
``LogBroker.publish_many`` → ``FluentdForwarder.poll_broker`` →
``flush``, whose sink (``classifying_sink``) runs ``bulk_index``,
``classify_batch`` and ``set_category``, then the ``StreamJournal``
barrier and ``commit_many``.  :func:`count_opcodes` counts the bytecodes
a call executes in ``src/repro`` frames (``sys.settrace`` with
``f_trace_opcodes``), split by layer: deterministic, so a floor on it
does not move with the machine; :func:`count_metric_writes` counts the
metric writes a call makes.  ``tests/test_perf_smoke.py::TestFlushToll``
gates on both and ``benchmarks/bench_flush_toll.py`` reports them beside
µs per round.  :func:`retained` is the same split for memory: the bytes
rounds leave behind, by the layer that allocated them
(``TestLineBytes`` and ``benchmarks/bench_line_bytes.py``).
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import repro
from repro.core.message import Facility, SyslogMessage
from repro.core.pipeline import ClassificationPipeline
from repro.core.template_cache import TemplateCache
from repro.datagen import CorpusGenerator
from repro.datagen.templates import TEMPLATES, fill_slots
from repro.durability import StreamJournal, WriteAheadLog
from repro.ingest import LogBroker
from repro.ml.bayes import ComplementNB
from repro.obs import MetricsRegistry, metrics
from repro.replication import ReplicatedLogStore
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder, classifying_sink
from repro.textproc.normalize import MaskingNormalizer
from repro.textproc.tfidf import TfidfVectorizer

_SRC = os.path.dirname(repro.__file__) + os.sep

#: layer → path prefixes under ``src/repro``; the first match wins and
#: what matches none is ``pipeline`` (pipeline, cache, masking, model)
LAYERS = (
    ("store", ("replication" + os.sep, os.path.join("stream", "opensearch.py"))),
    ("telemetry", ("obs" + os.sep, os.path.join("runtime", "timing.py"))),
    ("broker", (os.path.join("ingest", "broker.py"),)),
    ("journal", ("durability" + os.sep,)),
    ("forwarder", (os.path.join("stream", "fluentd.py"),)),
)
LAYER_NAMES = (*(name for name, _ in LAYERS), "pipeline")


def _layer(filename: str) -> str | None:
    if not filename.startswith(_SRC):
        return None
    rel = filename[len(_SRC):]
    for name, prefixes in LAYERS:
        if rel.startswith(prefixes):
            return name
    return "pipeline"


def count_opcodes(call) -> Counter:
    """Run ``call()``; returns the bytecodes it executed in ``src/repro``
    frames, per layer (``total`` is their sum).

    The tracer in place before the call (a coverage tool's, say) is put
    back afterwards, whatever ``call`` does.
    """
    counts: Counter = Counter()
    layers: dict = {}  # code object → layer, or None outside src/repro
    tracers: dict = {}

    def local_for(layer: str):
        def local(frame, event, arg):
            if event == "opcode":
                counts[layer] += 1
            return local
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        layer = layers.get(code, 0)
        if layer == 0:
            layer = layers[code] = _layer(code.co_filename)
        if layer is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        local = tracers.get(layer)
        if local is None:
            local = tracers[layer] = local_for(layer)
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    counts["total"] = sum(counts[name] for name in LAYER_NAMES)
    return counts


#: the child methods that write a metric: a call of one is one write
_WRITES = frozenset(method.__code__ for method in (
    metrics._CounterChild.inc, metrics._GaugeChild.set, metrics._GaugeChild.inc,
    metrics._HistogramChild.observe, metrics._HistogramChild.observe_held,
))


def count_metric_writes(call) -> int:
    """Run ``call()``; returns the metric writes it made: calls of a
    child's ``inc``, ``set``, ``observe`` or ``observe_held``, however
    reached.  The tracer in place before the call is put back."""
    writes = 0

    def tracer(frame, event, arg):
        nonlocal writes
        if frame.f_code in _WRITES:
            writes += 1

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return writes


def retained(call) -> tuple[Counter, Counter]:
    """Run ``call()`` under ``tracemalloc``; returns what it left on the
    heap (after a collection), allocated in ``src/repro`` frames: bytes
    per layer, and objects per allocation site (``path:line`` under
    ``src/repro``).  Memory allocated before the call is not counted."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        call()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_layer: Counter = Counter()
    by_site: Counter = Counter()
    for stat in after.compare_to(before, "lineno"):
        frame = stat.traceback[0]
        layer = _layer(frame.filename)
        if layer is not None:
            by_layer[layer] += stat.size_diff
            by_site[f"{frame.filename[len(_SRC):]}:{frame.lineno}"] += stat.count_diff
    return by_layer, by_site


@functools.lru_cache(maxsize=1)
def _stable_templates(n: int = 64):
    """The ``n`` templates whose slot values mask best (the spine's
    ``hot_templates`` choice)."""
    norm = MaskingNormalizer()
    rng = np.random.default_rng(12345)
    forms = [len({norm.normalize(fill_slots(t, rng)) for _ in range(48)}) for t in TEMPLATES]
    order = sorted(range(len(TEMPLATES)), key=lambda i: (forms[i], i))
    return [TEMPLATES[i] for i in sorted(order[:n])]


def hot_messages(n: int, *, seed: int = 0, hosts: int = 200) -> list[SyslogMessage]:
    """``n`` hot-shaped lines: Zipf over the 64 stable templates, from
    ``hosts`` hosts, one second apart."""
    templates = _stable_templates()
    weights = 1.0 / np.arange(1, len(templates) + 1) ** 1.2
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(templates), size=n, p=weights / weights.sum())
    host_ix = rng.integers(0, hosts, size=n)
    out = []
    for i in range(n):
        tpl = templates[picks[i]]
        out.append(SyslogMessage(
            timestamp=3_456_000.0 + i, hostname=f"cn{host_ix[i]:04d}", app=tpl.app,
            text=fill_slots(tpl, rng), severity=tpl.severity,
            facility=Facility.KERN if tpl.app == "kernel" else Facility.DAEMON, pid=i,
        ))
    return out


def cold_messages(n: int, *, start: int = 0, hosts: int = 200) -> list[SyslogMessage]:
    """``n`` lines whose masked form no other line has (template-cache
    misses), from ``hosts`` hosts."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for i in range(start, start + n):
        word = "".join(letters[i // 26 ** k % 26] for k in range(4))
        out.append(SyslogMessage(
            timestamp=3_456_000.0 + i, hostname=f"cn{i * 7 % hosts:04d}", app="kernel",
            text=f"unit {word} entered state {word}x after event", pid=i,
        ))
    return out


class Spine:
    """The spine's round, wired as ``benchmarks/spine/spine.py`` wires it,
    with ``classifying_sink`` as the sink and an ``fsync="off"`` WAL."""

    def __init__(self, wal_dir: Path, registry: MetricsRegistry, *, corpus_scale: float = 0.01):
        corpus = CorpusGenerator(scale=corpus_scale, seed=0).generate()
        self.pipe = ClassificationPipeline(
            vectorizer=TfidfVectorizer(), classifier=ComplementNB(),
            template_cache=TemplateCache(4096),
        )
        self.pipe.fit(corpus.texts, corpus.labels)
        self.store = ReplicatedLogStore(n_nodes=3, n_replicas=2, registry=registry)
        self.broker = LogBroker(registry=registry)
        self.wal = WriteAheadLog(wal_dir, fsync="off", registry=registry)
        self.forwarder = FluentdForwarder(
            engine=EventEngine(), sink=classifying_sink(self.store, self.pipe),
            batch_size=500, buffer_limit=50_000, broker=self.broker,
            journal=StreamJournal(self.wal), consumer_group="fluentd", clock=time.time,
        )

    def round(self, messages) -> None:
        """One publish → poll → flush round; every line is flushed."""
        self.broker.publish_many(messages)
        self.forwarder.poll_broker()
        flushed = self.forwarder.flush()
        assert flushed == len(messages), (flushed, len(messages))

    def rounds(self, messages, size: int) -> None:
        for i in range(0, len(messages), size):
            self.round(messages[i:i + size])

    def close(self) -> None:
        self.wal.close()
