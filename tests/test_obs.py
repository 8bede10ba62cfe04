"""Unit tests for the observability layer (repro.obs).

Covers the metrics registry (bucket semantics, exposition formats,
thread safety, pickling), trace spans (nesting, cross-process
export/adopt), the StageTimer adapter, and the pipeline's metrics.
"""

import json
import pickle
import threading
from types import SimpleNamespace

import pytest

from repro.core.pipeline import ClassificationPipeline
from repro.ml import ComplementNB
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
    Tracer,
    default_latency_buckets,
    default_registry,
    histogram_quantile,
    load_snapshot,
    parse_prometheus,
    render_waterfall,
    set_default_tracer,
    use_registry,
    wellknown,
    write_snapshot,
)
from repro.runtime import StageTimer
from repro.runtime.timing import StageReport, StageStat


# -- histogram bucket semantics --------------------------------------------


class TestHistogramBuckets:
    def test_boundary_value_lands_in_edge_bucket(self):
        """Prometheus `le` semantics: a value equal to an edge counts
        in that edge's bucket, not the next one."""
        h = Histogram("h", buckets=[1.0, 2.0, 5.0])
        h.observe(2.0)
        child = h._child(())
        assert child.bucket_counts == [0, 1, 0, 0]

    def test_underflow_lands_in_first_bucket(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(0.0001)
        assert h._child(()).bucket_counts == [1, 0, 0]

    def test_overflow_lands_in_inf_bucket(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(99.0)
        assert h._child(()).bucket_counts == [0, 0, 1]

    def test_cumulative_counts(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        for v in (0.5, 1.5, 1.7, 99.0):
            h.observe(v)
        cum = h._child(()).cumulative()
        assert cum == [(1.0, 1), (2.0, 3), (float("inf"), 4)]

    def test_sum_and_count(self):
        h = Histogram("h", buckets=[1.0])
        h.observe(0.25)
        h.observe(0.75)
        child = h._child(())
        assert child.count == 2
        assert child.sum == pytest.approx(1.0)

    def test_default_latency_buckets_shape(self):
        edges = default_latency_buckets()
        assert len(edges) == 24
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] == pytest.approx(50.0)
        assert list(edges) == sorted(edges)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", buckets=[2.0, 1.0])

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=[])


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("m")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m", labels=("a",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("m", labels=("b",))

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("0bad")

    def test_wrong_label_set_on_use_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("m", labels=("shard",))
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(worker="1")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_unlabeled_family_has_zero_sample(self):
        reg = MetricsRegistry()
        reg.counter("c", "help me")
        snap = reg.snapshot()
        assert snap["metrics"][0]["samples"] == [{"labels": {}, "value": 0.0}]

    def test_labeled_family_starts_empty(self):
        reg = MetricsRegistry()
        reg.counter("c", labels=("x",))
        assert reg.snapshot()["metrics"][0]["samples"] == []

    def test_thread_safe_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("c", labels=("t",))

        def spin():
            for _ in range(1000):
                c.inc(t="a")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(t="a") == 8000

    def test_grouped_and_single_writes_lose_no_update(self):
        """Threads writing the same children, half one write at a time,
        half several under one acquisition of the registry's write lock
        (``observe_held``), with the interpreter switching threads as
        often as it can: every count is exact."""
        import sys

        reg = MetricsRegistry()
        a, b = reg.counter("a_total").labels(), reg.counter("b_total", labels=("k",)).labels(k="x")
        h, g = reg.histogram("h_seconds").labels(), reg.histogram("g_seconds").labels()
        assert a.lock is b.lock is h.lock is g.lock  # one write lock a registry

        def single():
            for _ in range(3000):
                a.inc()
                b.inc(2)
                h.observe(0.002)
                g.observe(0.002)

        def grouped():
            for _ in range(3000):
                with a.lock:
                    h.observe_held(0.001)
                    g.observe_held(0.001)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=(single, grouped)[i % 2]) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert (a.value, b.value, h.count, sum(h.bucket_counts)) == (9000, 18000, 18000, 18000)
        assert (g.count, sum(g.bucket_counts)) == (18000, 18000)

    def test_pickle_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.counter("c").value() == 3
        clone.counter("c").inc()  # recreated locks must work
        assert clone.counter("c").value() == 4
        # and the families share the clone's one write lock again
        assert clone.counter("c").labels().lock is clone.histogram("h").labels().lock

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.collect() == []

    def test_use_registry_restores_previous(self):
        before = default_registry()
        with use_registry(MetricsRegistry()) as reg:
            assert default_registry() is reg
        assert default_registry() is before

    def test_null_registry_forgets_everything(self):
        reg = NullRegistry()
        c = reg.counter("c")
        c.inc(100)
        c.labels(x="y").inc()
        reg.histogram("h").observe(1.0)
        reg.gauge("g").set(5)
        assert c.value() == 0.0
        assert reg.collect() == []


# -- exposition -------------------------------------------------------------


class TestViews:
    """A counter or gauge read from the state object that owns its number."""

    def test_a_view_reads_its_owner_at_every_read(self):
        reg = MetricsRegistry()
        owner = SimpleNamespace(n=0)
        counter = reg.counter("c_total")
        counter.view(owner, "n")
        owner.n = 3
        assert counter.value() == 3
        assert "c_total 3" in reg.to_prometheus().splitlines()
        assert reg.snapshot()["metrics"][0]["samples"] == [{"labels": {}, "value": 3.0}]

    def test_owners_are_summed_and_a_counter_never_reads_lower(self):
        reg = MetricsRegistry()
        a, b = SimpleNamespace(n=2), SimpleNamespace(n=5)
        counter, gauge = reg.counter("c_total"), reg.gauge("g")
        for family in (counter, gauge):
            family.view(a, "n")
            family.view(b, "n")
        assert (counter.value(), gauge.value()) == (7, 7)
        b.n = 0  # an owner that starts over
        assert (counter.value(), gauge.value()) == (7, 2)

    def test_a_labelled_view_shows_a_child_once_it_is_nonzero(self):
        reg = MetricsRegistry()
        counts = {"x": 0}
        family = reg.counter("c_total", labels=("k",))
        family.view(counts, dict.copy)
        assert family.samples() == []
        counts.update(x=1, y=0)
        assert [(labels, child.value) for labels, child in family.samples()] == [({"k": "x"}, 1)]

    def test_an_unviewed_counter_keeps_what_it_counted(self):
        reg = MetricsRegistry()
        owner = SimpleNamespace(n=4)
        counter = reg.counter("c_total")
        source = counter.view(owner, "n", base=1)
        assert counter.value() == 3
        counter.unview(source)
        owner.n = 100
        assert counter.value() == 3

    def test_the_first_view_drops_the_values_the_family_held(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(682)
        reg.counter("c_total").view(SimpleNamespace(n=5), "n")
        assert reg.counter("c_total").value() == 5

    def test_a_scrape_beside_a_writer_never_fails_and_never_reads_back(self):
        """The owner's thread counts and adds label sets while another
        scrapes, switching as often as the interpreter can: every scrape
        renders, no counter reads lower than the one before, and the
        last read is exact."""
        import sys

        reg = MetricsRegistry()
        stats, per_key = SimpleNamespace(n=0), {}
        reg.counter("n_total").view(stats, "n")
        reg.counter("k_total", labels=("k",)).view(per_key, dict.copy)

        def write():
            for i in range(20_000):
                stats.n += 1
                per_key[f"k{i % 500}"] = per_key.get(f"k{i % 500}", 0) + 1

        seen: list[float] = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=write)
        try:
            writer.start()
            while writer.is_alive():
                reg.to_prometheus()
                seen.append(reg.counter("n_total").value())
            writer.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not writer.is_alive()
        assert seen == sorted(seen)
        assert reg.counter("n_total").value() == 20_000
        keyed = reg.counter("k_total", labels=("k",)).samples()
        assert len(keyed) == 500 and sum(child.value for _labels, child in keyed) == 20_000

    def test_a_pickle_keeps_the_value_a_view_read(self):
        reg = MetricsRegistry()
        owner = SimpleNamespace(n=4)
        reg.counter("c_total").view(owner, "n")
        clone = pickle.loads(pickle.dumps(reg))
        owner.n = 9
        assert clone.counter("c_total").value() == 4  # a plain value, no owner
        clone.counter("c_total").inc()
        assert (clone.counter("c_total").value(), reg.counter("c_total").value()) == (5, 9)


class TestExposition:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "Jobs run", labels=("kind",)).inc(
            3, kind="batch"
        )
        reg.gauge("depth", "Queue depth").set(7)
        h = reg.histogram("lat", "Latency", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        h.observe(2.0)
        return reg

    def test_prometheus_golden(self):
        text = self.make_registry().to_prometheus()
        assert text == (
            "# HELP jobs_total Jobs run\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{kind="batch"} 3\n'
            "# HELP depth Queue depth\n"
            "# TYPE depth gauge\n"
            "depth 7\n"
            "# HELP lat Latency\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 1\n'
            'lat_bucket{le="1"} 2\n'
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 2.55\n"
            "lat_count 3\n"
        )

    def test_prometheus_parse_roundtrip(self):
        reg = self.make_registry()
        parsed = parse_prometheus(reg.to_prometheus())
        original = reg.snapshot()
        by_name = {m["name"]: m for m in parsed["metrics"]}
        assert set(by_name) == {"jobs_total", "depth", "lat"}
        assert by_name["jobs_total"]["type"] == "counter"
        assert by_name["jobs_total"]["samples"][0] == {
            "labels": {"kind": "batch"}, "value": 3.0
        }
        assert by_name["depth"]["samples"][0]["value"] == 7.0
        lat = by_name["lat"]["samples"][0]
        want = original["metrics"][2]["samples"][0]
        assert lat["count"] == want["count"]
        assert lat["sum"] == pytest.approx(want["sum"])
        assert lat["buckets"] == [[0.1, 1], [1.0, 2], ["+Inf", 3]]

    def test_label_escaping_roundtrip(self):
        reg = MetricsRegistry()
        nasty = 'a"b\\c\nd'
        reg.counter("c", labels=("x",)).inc(x=nasty)
        parsed = parse_prometheus(reg.to_prometheus())
        assert parsed["metrics"][0]["samples"][0]["labels"]["x"] == nasty

    def test_json_snapshot_is_json_serializable(self):
        snap = self.make_registry().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_write_and_load_prom(self, tmp_path):
        path = write_snapshot(tmp_path / "m.prom", self.make_registry())
        snap = load_snapshot(path)
        assert {m["name"] for m in snap["metrics"]} == {
            "jobs_total", "depth", "lat"
        }

    def test_write_and_load_json(self, tmp_path):
        path = write_snapshot(tmp_path / "m.json", self.make_registry())
        snap = load_snapshot(path)
        assert snap["uptime_seconds"] is not None
        assert len(snap["metrics"]) == 3


class TestHistogramQuantile:
    def test_interpolates_inside_bucket(self):
        # 100 values uniform in (0, 1]: p50 should be ~0.5
        buckets = [(0.5, 50), (1.0, 100), (float("inf"), 100)]
        assert histogram_quantile(buckets, 0.5) == pytest.approx(0.5)
        assert histogram_quantile(buckets, 0.75) == pytest.approx(0.75)

    def test_clamps_to_last_finite_edge(self):
        buckets = [(1.0, 0), (float("inf"), 10)]
        assert histogram_quantile(buckets, 0.99) == 1.0

    def test_empty_and_invalid(self):
        assert histogram_quantile([], 0.5) == 0.0
        assert histogram_quantile([(1.0, 0), (float("inf"), 0)], 0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile([(1.0, 1)], 1.5)


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_nesting_sets_parent_and_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
        assert root.parent_id is None
        assert len(tracer.finished) == 2
        assert all(s.end_s is not None for s in tracer.finished)

    def test_id_formats(self):
        with Tracer().span("s") as span:
            assert len(span.trace_id) == 32
            assert len(span.span_id) == 16

    def test_explicit_parent_dict(self):
        tracer = Tracer()
        ctx = {"trace_id": "t" * 32, "span_id": "s" * 16}
        with tracer.span("child", parent=ctx) as span:
            assert span.trace_id == ctx["trace_id"]
            assert span.parent_id == ctx["span_id"]

    def test_error_attribute_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.finished[0].attributes["error"] == "RuntimeError"

    def test_export_adopt_roundtrip(self):
        worker = Tracer()
        with worker.span("work", n=5):
            pass
        exported = worker.export()
        assert worker.finished == []
        parent = Tracer()
        parent.adopt(exported)
        span = parent.finished[0]
        assert isinstance(span, Span)
        assert span.name == "work"
        assert span.attributes == {"n": 5}

    def test_render_trace_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        text = render_waterfall(tracer.finished)
        header, root, leaf = text.splitlines()
        assert header.startswith(f"trace {tracer.finished[0].trace_id}  (2 hops")
        assert root.split()[0] == "root" and leaf.split()[0] == "leaf"
        assert render_waterfall([]) == "(no spans)"

    def test_traces_groups_by_trace_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        groups = tracer.traces()
        assert len(groups) == 2  # two independent roots, two traces


# -- StageTimer adapter -----------------------------------------------------


class TestStageTimerAdapter:
    def test_add_mirrors_into_registry(self):
        reg = MetricsRegistry()
        timer = StageTimer(registry=reg)
        timer.add("vectorize", 0.25, items=100)
        timer.add("vectorize", 0.35, items=50)
        hist = wellknown.stage_seconds(reg)
        child = hist.labels(stage="vectorize")
        assert child.count == 2
        assert child.sum == pytest.approx(0.6)
        assert wellknown.stage_items(reg).value(stage="vectorize") == 150
        # local report unchanged by the mirroring
        rep = timer.report()
        assert rep.stages["vectorize"].items == 150
        assert rep.stages["vectorize"].seconds == pytest.approx(0.6)

    def test_default_registry_used_when_none(self):
        with use_registry(MetricsRegistry()) as reg:
            StageTimer().add("route", 0.01, items=5)
            assert wellknown.stage_items(reg).value(stage="route") == 5


class TestStageReportRender:
    def test_dash_for_zero_item_stages(self):
        rep = StageReport(
            stages={
                "shard": StageStat(seconds=1.0, calls=1, items=100),
                "gather": StageStat(seconds=0.5, calls=1, items=0),
            },
            total_seconds=1.5,
        )
        lines = rep.render().splitlines()
        gather = next(l for l in lines if l.startswith("gather"))
        assert gather.rstrip().endswith("-")
        shard = next(l for l in lines if l.startswith("shard"))
        assert shard.rstrip().endswith("100.0")

    def test_percent_column_aligned(self):
        rep = StageReport(
            stages={"a": StageStat(seconds=1.0, calls=1, items=10)},
            total_seconds=1.0,
        )
        lines = rep.render().splitlines()
        header, row, total = lines
        col = header.index("%")
        assert row[col] == "0"      # "100.0" right-aligned ends under "%"
        assert total[col] == "0"
        assert "100.0" in total

    def test_empty_report(self):
        assert StageReport(stages={}, total_seconds=0.0).render() == (
            "no stages timed"
        )


# -- pipeline integration --------------------------------------------------


@pytest.fixture(scope="module")
def obs_pipeline(corpus):
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts[:600], corpus.labels[:600])
    return pipe


class TestPipelineMetrics:
    def test_classify_batch_records_metrics(self, obs_pipeline, corpus):
        with use_registry(MetricsRegistry()) as reg:
            obs_pipeline.classify_batch(corpus.texts[:80])
        assert wellknown.pipeline_messages(reg).value() == 80
        assert wellknown.pipeline_batches(reg).value() == 1
        assert wellknown.pipeline_batch_seconds(reg)._child(()).count == 1
        for stage in ("normalize", "vectorize", "predict", "route"):
            assert wellknown.stage_items(reg).value(stage=stage) == 80


# -- bind-once: a steady-state batch resolves nothing ------------------------


class CountingRegistry(MetricsRegistry):
    """Counts family get-or-creates; ``labels()`` resolutions are counted
    by patching the family base class for the duration of a test."""

    def __init__(self) -> None:
        super().__init__()
        self.get_or_creates = 0
        self.label_resolutions = 0

    def _get_or_create(self, *args, **kwargs):
        self.get_or_creates += 1
        return super()._get_or_create(*args, **kwargs)


@pytest.fixture
def counting_registry(monkeypatch):
    from repro.obs import metrics

    registry = CountingRegistry()
    resolve = metrics._Family.labels

    def counted(family, **labels):
        registry.label_resolutions += 1
        return resolve(family, **labels)

    monkeypatch.setattr(metrics._Family, "labels", counted)
    return registry


def _cached_pipeline(corpus, *, blacklist=False, cls=ClassificationPipeline):
    from repro.buckets.blacklist import BlacklistFilter
    from repro.core.template_cache import TemplateCache

    pipe = cls(
        classifier=ComplementNB(), template_cache=TemplateCache(4096),
        blacklist=BlacklistFilter(threshold=3) if blacklist else None,
    )
    pipe.fit(corpus.texts[:600], corpus.labels[:600])
    return pipe


def _never_seen(start: int, n: int) -> list[str]:
    """Lines whose masked form no earlier line had (cache misses)."""
    return [f"unit{'abcdefghij'[i % 10]}{'klmnopqrst'[i // 10 % 10]}{'uvwxyz'[i // 100 % 6]} "
            f"entered state after event" for i in range(start, start + n)]


class _CallByCallTimer(StageTimer):
    """``StageTimer`` mirroring as it did before it bound its children."""

    def _mirror(self, name, seconds, items):
        wellknown.stage_seconds(self.registry).observe(seconds, stage=name)
        if items:
            wellknown.stage_items(self.registry).inc(items, stage=name)


class _CallByCallPipeline(ClassificationPipeline):
    """The pipeline's metric emission as it was: every family resolved
    through its accessor and every label through ``labels()``, on every
    batch.  The three bodies are the replaced ones."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.timer = _CallByCallTimer()

    def _record_batch_metrics(self, n_messages, n_filtered, elapsed):
        registry = self.timer.registry
        wellknown.pipeline_batches(registry).inc()
        wellknown.pipeline_messages(registry).inc(n_messages)
        if n_filtered:
            wellknown.pipeline_filtered(registry).inc(n_filtered)
        wellknown.pipeline_batch_seconds(registry).observe(elapsed)

    def _view_cache(self, cache, before):
        import os

        # ``before`` is the seam's (hits, misses, evictions, invalidations)
        before = dict(zip(("hits", "misses", "evictions", "invalidations"), before))
        after = cache.counters()
        stats = {name: after[name] - before[name] for name in after}
        stats["size"] = len(cache)
        worker = str(os.getpid())
        for stat, counter in (
            ("hits", wellknown.template_cache_hits),
            ("misses", wellknown.template_cache_misses),
            ("evictions", wellknown.template_cache_evictions),
            ("invalidations", wellknown.template_cache_invalidations),
        ):
            if delta := stats.get(stat, 0):
                counter(self.timer.registry).inc(delta, worker=worker)
        wellknown.template_cache_size(self.timer.registry).set(stats.get("size", 0), worker=worker)


def _shape_of(registry) -> list:
    """Families, children and counts of an exposition — everything but
    the seconds a histogram happened to measure."""
    out = []
    for metric in registry.snapshot()["metrics"]:
        samples = [
            (tuple(s["labels"].items()), s["count"] if "count" in s else s["value"])
            for s in metric["samples"]
        ]
        out.append((metric["name"], metric["type"], tuple(metric["label_names"]), samples))
    return out


def _child_pid_and_cache_workers(conn, pipe, texts):
    """Runs in a forked child: classify, report whom the cache views say it is."""
    import os

    with use_registry(MetricsRegistry()) as registry:
        pipe.classify_batch(texts)
    workers = [labels["worker"] for labels, _c in wellknown.template_cache_size(registry).samples()]
    conn.send((os.getpid(), workers))
    conn.close()


class TestBindOnce:
    def test_steady_state_batches_resolve_nothing(self, corpus, counting_registry):
        """Hit, miss and filtered batches: after the first of each kind,
        not one family get-or-create and not one ``labels()`` call (a hit
        batch alone cost nine and six when every call went through its
        accessor)."""
        registry = counting_registry
        pipe = _cached_pipeline(corpus, blacklist=True)
        noise = next(t for t in corpus.texts if pipe.blacklist.is_noise(t))
        kept = [t for t in corpus.texts[:200] if not pipe.blacklist.is_noise(t)][:3]
        with use_registry(registry):
            pipe.classify_batch(kept)  # misses
            pipe.classify_batch(kept)  # hits
            pipe.classify_batch([noise])  # filtered: nothing reaches the model stage
            assert registry.get_or_creates > 0 and registry.label_resolutions > 0
            registry.get_or_creates = registry.label_resolutions = 0
            pipe.classify_batch(kept)
            pipe.classify_batch(_never_seen(0, 3))
            pipe.classify_batch([noise])
            pipe.classify_batch([noise, *kept, *_never_seen(3, 2)])
        assert (registry.get_or_creates, registry.label_resolutions) == (0, 0)
        assert wellknown.pipeline_batches(registry).value() == 7
        assert wellknown.pipeline_filtered(registry).value() == 3
        assert pipe.template_cache.misses == 3 + 3 + 2

    def test_call_by_call_emission_resolves_on_every_batch(self, corpus, counting_registry):
        """The yardstick of the test above is not vacuous: the replaced
        emission pays nine get-or-creates and six ``labels()`` per hit
        batch."""
        registry = counting_registry
        pipe = _cached_pipeline(corpus, cls=_CallByCallPipeline)
        with use_registry(registry):
            pipe.classify_batch(corpus.texts[:3])
            pipe.classify_batch(corpus.texts[:3])
            registry.get_or_creates = registry.label_resolutions = 0
            pipe.classify_batch(corpus.texts[:3])
        assert (registry.get_or_creates, registry.label_resolutions) == (9, 6)

    def test_exposition_equals_call_by_call_emission(self, corpus):
        """Same families, same children in the same order, same counts —
        and nothing zero-valued shows before its first use."""
        bound, reference = (
            _cached_pipeline(corpus, blacklist=True, cls=cls)
            for cls in (ClassificationPipeline, _CallByCallPipeline)
        )
        noise = next(t for t in corpus.texts if bound.blacklist.is_noise(t))
        kept = [t for t in corpus.texts[:200] if not bound.blacklist.is_noise(t)][:5]
        shapes = []
        for pipe in (bound, reference):
            steps = []
            with use_registry(MetricsRegistry()) as registry:
                for batch in (
                    "",  # an empty batch first: "filter" is timed, with no items to count
                    kept[:2],  # misses
                    kept[:2],  # hits: no "evictions" child yet, no "filtered" family
                    [noise],  # repro_pipeline_filtered_total appears
                    [noise, *kept, *_never_seen(0, 3)],
                    "",  # an empty batch
                ):
                    pipe.classify_batch(list(batch))
                    steps.append(_shape_of(registry))
                pipe.template_cache.max_entries = 2  # the next misses evict
                pipe.classify_batch(_never_seen(10, 4))
                pipe.fit(corpus.texts[:600], corpus.labels[:600])  # invalidates
                pipe.classify_batch(kept[:1])
                steps.append(_shape_of(registry))
            shapes.append(steps)
        assert shapes[0] == shapes[1]
        empty, first, last = shapes[0][0], shapes[0][1], shapes[0][-1]
        assert [name for name, *_ in empty] == [
            "repro_pipeline_stage_seconds", "repro_pipeline_batches_total",
            "repro_pipeline_messages_total", "repro_pipeline_batch_seconds",
        ]  # no repro_pipeline_stage_items_total{stage="filter"} at zero
        assert "repro_pipeline_filtered_total" not in [name for name, *_ in first]
        assert "repro_template_cache_evictions_total" not in [name for name, *_ in first]
        by_name = {name: samples for name, _kind, _labels, samples in last}
        assert by_name["repro_pipeline_filtered_total"] == [((), 2.0)]
        assert by_name["repro_template_cache_evictions_total"][0][1] > 0
        assert by_name["repro_template_cache_invalidations_total"][0][1] == 1
        stages = [dict(labels)["stage"] for labels, _n in by_name["repro_pipeline_stage_seconds"]]
        assert stages == ["filter", "fingerprint", "normalize", "vectorize", "predict", "route"]

    def test_use_registry_mid_run_moves_the_observations(self, corpus):
        pipe = _cached_pipeline(corpus)
        with use_registry(MetricsRegistry()) as first:
            pipe.classify_batch(corpus.texts[:4])
            with use_registry(MetricsRegistry()) as second:
                pipe.classify_batch(corpus.texts[:4])
                pipe.classify_batch(corpus.texts[:2])
            pipe.classify_batch(corpus.texts[:1])
        explicit = MetricsRegistry()
        pipe.timer.registry = explicit
        pipe.classify_batch(corpus.texts[:3])
        for registry, batches, messages in ((first, 2, 5), (second, 2, 6), (explicit, 1, 3)):
            assert wellknown.pipeline_batches(registry).value() == batches
            assert wellknown.pipeline_messages(registry).value() == messages
            assert wellknown.stage_items(registry).value(stage="route") == messages
            (_labels, size), = wellknown.template_cache_size(registry).samples()
            assert size.value == len(pipe.template_cache)

    def test_only_the_recipe_pickles(self, corpus, tmp_path):
        """A pipeline that crosses a process boundary — pickled, or
        saved and loaded — carries no resolved child: it binds in the
        registry of the process it lands in."""
        from repro.core.serialize import load_pipeline, save_pipeline

        pipe = _cached_pipeline(corpus)
        with use_registry(MetricsRegistry()) as home:
            pipe.classify_batch(corpus.texts[:5])
        assert pipe._batch_metrics is not None and len(pipe.timer._bound) == 5
        held = (pipe._batch_views, pipe._cache_views, pipe.timer._items)
        assert all(views.views for views in held)
        clone = pickle.loads(pickle.dumps(pipe))
        assert clone._batch_metrics is None and clone.timer._bound == {}
        assert not any(views.views for views in (
            clone._batch_views, clone._cache_views, clone.timer._items
        ))
        with use_registry(MetricsRegistry()) as away:
            clone.classify_batch(corpus.texts[:5])
        assert wellknown.pipeline_messages(away).value() == 5
        assert wellknown.pipeline_messages(home).value() == 5
        save_pipeline(pipe, tmp_path / "model")
        loaded = load_pipeline(tmp_path / "model")
        assert loaded._batch_metrics is None and loaded.timer._bound == {}

    def test_a_forked_worker_reports_under_its_own_pid(self, corpus):
        """Shard workers forked after the parent classified inherit its
        cache views, bound to the parent's pid."""
        import multiprocessing
        import os

        pipe = _cached_pipeline(corpus)
        with use_registry(MetricsRegistry()):
            pipe.classify_batch(corpus.texts[:5])
        assert pipe._cache_views._key[0] == os.getpid()
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_child_pid_and_cache_workers, args=(theirs, pipe, corpus.texts[:5])
        )
        child.start()
        theirs.close()
        assert ours.poll(60), "the forked child never reported"
        pid, workers = ours.recv()
        child.join(60)
        assert not child.is_alive()
        assert pid != os.getpid() and workers == [str(pid)]

    def test_a_stage_whose_body_raises_is_still_timed(self):
        registry = MetricsRegistry()
        timer = StageTimer(registry=registry)
        with pytest.raises(ZeroDivisionError):
            with timer.stage("predict", items=4):
                1 / 0
        assert timer.report().stages["predict"].calls == 1
        assert wellknown.stage_seconds(registry).labels(stage="predict").count == 1
        assert wellknown.stage_items(registry).value(stage="predict") == 4

    def test_the_broker_binds_each_group_once_and_at_once(self):
        """The four per-group children exist, zero-valued, from the
        moment the group does — in the registry the broker was built
        with, whatever the default is by then."""
        from repro.ingest import LogBroker

        registry = MetricsRegistry()
        broker = LogBroker(registry=registry)
        with use_registry(MetricsRegistry()) as other:
            broker.subscribe("g")
        for family in (wellknown.broker_polled, wellknown.broker_commits,
                       wellknown.broker_lag, wellknown.broker_lag_age_seconds):
            (labels, child), = family(registry).samples()
            assert labels == {"group": "g"} and child.value == 0
        assert other.collect() == []


# -- dashboard panel --------------------------------------------------------


class TestMetricsPanel:
    def test_renders_counters_and_histograms(self):
        from repro.monitor.dashboard import render_metrics_panel

        reg = MetricsRegistry()
        reg.counter("c_total", labels=("k",)).inc(5, k="x")
        h = reg.histogram("lat", buckets=[0.1, 1.0])
        for v in (0.05, 0.5, 0.7):
            h.observe(v)
        reg.histogram("never", buckets=[1.0])
        text = render_metrics_panel(reg, title="panel")
        assert text.startswith("panel")
        assert 'c_total{k=x}' in text
        assert "n=3" in text and "p95=" in text
        assert "(no observations)" in text

    def test_renders_parsed_prometheus_snapshot(self):
        from repro.monitor.dashboard import render_metrics_panel

        reg = MetricsRegistry()
        reg.gauge("depth").set(4)
        snap = parse_prometheus(reg.to_prometheus())
        assert "depth" in render_metrics_panel(snap)

    def test_empty_registry(self):
        from repro.monitor.dashboard import render_metrics_panel

        assert "(no metrics)" in render_metrics_panel(MetricsRegistry())


# keep the process-default tracer clean for other test modules
@pytest.fixture(autouse=True, scope="module")
def _fresh_default_tracer():
    previous = set_default_tracer(Tracer())
    yield
    set_default_tracer(previous)
