"""Cross-hop trace propagation, SLOs, and the ops surface.

The tentpole claim under test: one sampled trace survives the whole
broker spine — listener accept → broker publish/poll → forwarder
flush → quorum write → WAL append — and keeps stitching across a
SIGKILL+resume, with end-to-end latency accounted for every completed
trace.  Around that sit the sampler's determinism contract (the thing
that makes trace IDs durable identities), the SLO tracker, the
``/metrics``-``/health``-``/trace`` HTTP surface, the ``trace`` and
``metrics --watch`` subcommands, and the wellknown-drift check that
keeps every runtime-emitted family declared in one place.
"""

from __future__ import annotations

import json
import os
import re
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.durability.harness import crash_recovery_scenario
from repro.durability.recovery import SimConfig, reconcile, resume_simulation
from repro.monitor.dashboard import render_metrics_panel
from repro.obs import (
    MetricsRegistry,
    OpsServer,
    SloTracker,
    TraceContext,
    TraceSampler,
    Tracer,
    default_registry,
    default_tracer,
    load_slo_file,
    parse_prometheus,
    quantile_slo,
    ratio_slo,
    record_hop,
    render_waterfall,
    set_default_tracer,
    trace_is_complete,
    use_registry,
    wellknown,
)
from repro.obs.propagation import EXPECTED_HOPS, derive_trace_id
from repro.obs.slo import default_slos

#: the chaos matrix shifts the seed window via the environment, so
#: every assertion here must hold for any small non-negative seed
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Every test gets its own registry and tracer."""
    previous = set_default_tracer(Tracer())
    with use_registry(MetricsRegistry()) as registry:
        yield registry
    set_default_tracer(previous)


# -- sampler determinism ------------------------------------------------


class TestTraceSampler:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TraceSampler(-0.1)
        with pytest.raises(ValueError):
            TraceSampler(1.5)

    def test_decision_depends_only_on_seed_and_key(self):
        a = TraceSampler(0.25, seed=7)
        b = TraceSampler(0.25, seed=7)
        assert [a.sample(k) for k in range(500)] == [
            b.sample(k) for k in range(500)
        ]
        # string keys work too, and agree across instances
        assert a.sample("host-17:42") == b.sample("host-17:42")

    def test_different_seeds_differ(self):
        a = [TraceSampler(0.5, seed=1).sample(k) for k in range(256)]
        b = [TraceSampler(0.5, seed=2).sample(k) for k in range(256)]
        assert a != b

    def test_rate_extremes(self):
        never = TraceSampler(0.0, seed=3)
        always = TraceSampler(1.0, seed=3)
        assert not any(never.sample(k) for k in range(200))
        assert all(always.sample(k) for k in range(200))
        assert never.next_sampled_after(0) == float("inf")
        assert always.next_sampled_after(0) == 1

    def test_sampled_fraction_approximates_rate(self):
        sampler = TraceSampler(1.0 / 8.0, seed=11)
        n = 20_000
        hits = sum(sampler.sample(k) for k in range(n))
        assert abs(hits / n - 1.0 / 8.0) < 0.01

    @pytest.mark.parametrize("rate", [0.0, 1.0 / 64.0, 0.25, 1.0])
    def test_vectorized_ordinal_path_matches_scalar(self, rate):
        scalar = TraceSampler(rate, seed=5)
        vector = TraceSampler(rate, seed=5)
        # spans multiple 4096-ordinal blocks, so block refills are hit
        assert [scalar.sample(n) for n in range(9000)] == [
            vector.sample_ordinal(n) for n in range(9000)
        ]

    @pytest.mark.parametrize("rate", [1.0 / 64.0, 0.25, 1.0])
    def test_next_sampled_after_matches_scalar_chain(self, rate):
        sampler = TraceSampler(rate, seed=9)
        expected = [n for n in range(1, 9000) if sampler.sample(n)]
        walked, n = [], 0
        while len(walked) < len(expected):
            n = sampler.next_sampled_after(n)
            if n >= 9000:
                break
            walked.append(n)
        assert walked == expected

    def test_trace_id_is_stable_and_distinct(self):
        assert derive_trace_id(4, 1234) == derive_trace_id(4, 1234)
        assert derive_trace_id(4, 1234) != derive_trace_id(4, 1235)
        assert derive_trace_id(4, 1234) != derive_trace_id(5, 1234)
        assert len(derive_trace_id(4, 1234)) == 32

    def test_begin_records_root_hop_and_counts(self):
        sampler = TraceSampler(1.0, seed=0)
        ctx = sampler.begin(7, proto="udp", host="web01")
        assert isinstance(ctx, TraceContext)
        assert ctx.trace_id == derive_trace_id(0, 7)
        spans = default_tracer().traces()[ctx.trace_id]
        assert [s.name for s in spans] == ["ingest.accept"]
        assert spans[0].attributes["pid"] == os.getpid()
        assert spans[0].attributes["host"] == "web01"
        sampled = default_registry().get("repro_trace_sampled_total")
        assert sampled is not None and sampled.value() == 1

    def test_begin_returns_none_when_unsampled(self):
        sampler = TraceSampler(0.0, seed=0)
        assert sampler.begin(7) is None
        assert default_tracer().traces() == {}


# -- hop chaining and completeness --------------------------------------


class TestHopChain:
    def _chain(self, tracer=None):
        ctx = TraceContext(
            trace_id=derive_trace_id(0, 42), span_id=None, origin_s=100.0
        )
        t = 100.0
        for name in EXPECTED_HOPS:
            ctx = record_hop(ctx, name, t, t + 0.01, tracer=tracer)
            t += 0.02
        return ctx

    def test_hops_chain_parent_ids(self):
        ctx = self._chain()
        spans = default_tracer().traces()[ctx.trace_id]
        assert [s.name for s in spans] == list(EXPECTED_HOPS)
        by_id = {s.span_id: s for s in spans}
        parents = [s.parent_id for s in spans]
        assert parents[0] is None
        for span, parent_id in zip(spans[1:], parents[1:]):
            assert by_id[parent_id].trace_id == span.trace_id

    def test_export_adopt_stitches_across_tracers(self):
        """The checkpoint/resume mechanism: spans cross Tracer objects."""
        first = Tracer()
        ctx = TraceContext(
            trace_id=derive_trace_id(1, 7), span_id=None, origin_s=0.0
        )
        ctx = record_hop(ctx, "ingest.accept", 0.0, tracer=first)
        ctx = record_hop(ctx, "broker.publish", 0.01, tracer=first)
        second = Tracer()
        second.adopt(first.export(clear=False))
        ctx = record_hop(ctx, "broker.poll", 0.02, tracer=second)
        ctx = record_hop(ctx, "fluentd.flush", 0.03, tracer=second)
        ctx = record_hop(ctx, "store.quorum_write", 0.04, tracer=second)
        ctx = record_hop(ctx, "wal.append", 0.05, tracer=second)
        spans = second.traces()[ctx.trace_id]
        assert trace_is_complete({s.name for s in spans})

    def test_trace_is_complete_contract(self):
        core = {"ingest.accept", "broker.publish", "broker.poll",
                "fluentd.flush"}
        assert trace_is_complete(core | {"store.quorum_write", "wal.append"})
        assert trace_is_complete(core | {"store.index", "wal.append"})
        # journal-less spine: no wal.append required
        assert trace_is_complete(core | {"store.index"}, journal=False)
        assert not trace_is_complete(core | {"store.index"})  # missing WAL
        assert not trace_is_complete(core | {"wal.append"})  # missing store
        assert not trace_is_complete(set())

    def test_waterfall_renders_hops(self):
        ctx = self._chain()
        text = render_waterfall(default_tracer().traces()[ctx.trace_id])
        assert ctx.trace_id in text
        for name in EXPECTED_HOPS:
            assert name in text


# -- the stitched spine, in process -------------------------------------


def _traced_sim_config(**overrides) -> SimConfig:
    base = dict(
        duration_s=30.0, rate=20.0, seed=1, incident=True,
        checkpoint_every_s=10.0, store_nodes=3,
        trace_sample=1.0, trace_seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestStitchedSpine:
    def test_every_trace_completes_through_the_spine(self, tmp_path):
        """Trace every message through the full durable broker spine.

        At sample rate 1.0, every produced message must end as a
        complete trace — accept, publish, poll, flush, quorum write,
        WAL append — with exactly one e2e latency observation and one
        broker-queue-age observation each.
        """
        config = _traced_sim_config()
        config.save(tmp_path)
        cluster, _, journal = resume_simulation(tmp_path)
        report = cluster.run(60.0)
        assert reconcile(journal.state, report.produced).ok

        traces = default_tracer().traces()
        assert len(traces) == report.produced > 0
        names = set()
        for spans in traces.values():
            span_names = {s.name for s in spans}
            assert trace_is_complete(span_names), sorted(span_names)
            names |= span_names
        assert names >= set(EXPECTED_HOPS)

        snap = default_registry().snapshot()

        def hist_count(family: str) -> int:
            return sum(
                int(s["count"])
                for fam in snap["metrics"] if fam["name"] == family
                for s in fam["samples"] if "count" in s
            )

        assert hist_count("repro_e2e_latency_seconds") == report.produced
        assert hist_count("repro_broker_queue_age_seconds") == report.produced
        assert hist_count("repro_stream_poll_to_flush_seconds") > 0
        assert hist_count("repro_store_quorum_write_seconds") > 0
        assert hist_count("repro_wal_fsync_seconds") > 0


class TestCrashResumeTraces:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_traces_survive_sigkill_and_resume(self, tmp_path, seed):
        """SIGKILL mid-run; the resumed process keeps the same traces.

        The kill point sits between a checkpoint and the next flush, so
        messages accepted by the dead pid are re-offered and finished
        by its successor — those traces must stitch across both pids
        (the ``multiprocess`` count) and still complete.
        """
        config = SimConfig(
            duration_s=40.0, rate=30.0, seed=seed, incident=True,
            checkpoint_every_s=5.0, flush_interval_s=2.0,
            trace_sample=0.5, trace_seed=seed,
        )
        report = crash_recovery_scenario(
            tmp_path, config, kill_points=[158 + seed]
        )
        conservation = report["conservation"]
        assert conservation["lost"] == 0
        assert conservation["duplicated"] == 0
        traces = report["traces"]
        assert traces["total"] > 0
        assert traces["complete"] >= 1
        assert traces["multiprocess"] >= 1, (
            "no trace stitched across the killed and resumed process"
        )
        assert traces["e2e_observations"] > 0


# -- wellknown drift ----------------------------------------------------


class TestWellknownDrift:
    def test_runtime_families_are_all_declared(self, tmp_path):
        """Every family the spine emits must live in obs/wellknown.

        Runs the fully-traced broker-spine simulation (the widest
        emitter in the repo) and compares the registry's family names
        against the declared universe — a new emission site that
        invents a name outside wellknown fails here, not in a
        dashboard three PRs later.
        """
        config = _traced_sim_config(duration_s=10.0)
        config.save(tmp_path)
        cluster, _, journal = resume_simulation(tmp_path)
        cluster.run(30.0)
        SloTracker().evaluate()  # the SLO gauges are runtime families too
        emitted = {
            fam["name"] for fam in default_registry().snapshot()["metrics"]
        }

        declared_registry = MetricsRegistry()
        wellknown.declare_all(declared_registry)
        declared = {
            fam["name"] for fam in declared_registry.snapshot()["metrics"]
        }
        assert emitted, "simulation emitted no metrics at all"
        undeclared = emitted - declared
        assert not undeclared, (
            f"families emitted at runtime but not declared in "
            f"obs/wellknown.py: {sorted(undeclared)}"
        )


# -- SLO tracker --------------------------------------------------------


class TestSloTracker:
    def test_quantile_target_evaluates_histogram(self):
        hist = wellknown.e2e_latency_seconds(None)
        for v in [0.05] * 98 + [30.0, 30.0]:
            hist.observe(v)
        tracker = SloTracker(
            [quantile_slo("e2e_p50", "repro_e2e_latency_seconds", 0.5, 1.0),
             quantile_slo("e2e_p999", "repro_e2e_latency_seconds", 0.999, 1.0)]
        )
        by_name = {s.name: s for s in tracker.evaluate()}
        assert by_name["e2e_p50"].ok
        assert not by_name["e2e_p999"].ok
        assert by_name["e2e_p999"].budget_remaining < 0

    def test_ratio_target_evaluates_counters(self):
        wellknown.ingest_received(None).inc(1000, proto="udp")
        wellknown.ingest_shed(None).inc(5)
        loss = ratio_slo(
            "loss", ("repro_ingest_shed_total",),
            ("repro_ingest_received_total",), 0.01,
        )
        status = SloTracker([loss]).evaluate()[0]
        assert status.value == pytest.approx(0.005)
        assert status.ok
        assert status.budget_remaining == pytest.approx(0.5)

    def test_no_data_is_vacuously_compliant(self):
        statuses = SloTracker().evaluate()  # default targets, empty registry
        assert len(statuses) == len(default_slos())
        for status in statuses:
            assert status.value == 0.0
            assert status.ok
            assert status.budget_remaining == 1.0

    def test_evaluate_publishes_gauges(self):
        SloTracker().evaluate()
        text = default_registry().to_prometheus()
        for family in ("repro_slo_value", "repro_slo_target",
                       "repro_slo_compliant",
                       "repro_slo_error_budget_remaining"):
            assert f'{family}{{slo="e2e_p99"}}' in text

    def test_slo_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        targets = default_slos()
        path.write_text(json.dumps([t.to_dict() for t in targets]))
        assert load_slo_file(path) == targets

    def test_slo_file_must_be_a_list(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ValueError):
            load_slo_file(path)


# -- ops HTTP surface ---------------------------------------------------


def _http_get(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


class TestOpsServer:
    @pytest.fixture()
    def ops(self):
        server = OpsServer(port=0, slo_tracker=SloTracker()).start()
        yield server
        server.stop()

    def test_metrics_endpoint_round_trips(self, ops):
        wellknown.ingest_received(None).inc(3, proto="udp")
        status, body = _http_get(f"http://127.0.0.1:{ops.port}/metrics")
        assert status == 200
        parsed = parse_prometheus(body)
        names = {fam["name"] for fam in parsed["metrics"]}
        # declare_all ran: every wellknown family is scrapeable, and
        # the text round-trips through the parser with values intact
        assert "repro_ingest_received_total" in names
        assert "repro_slo_compliant" in names
        received = [
            s for fam in parsed["metrics"]
            if fam["name"] == "repro_ingest_received_total"
            for s in fam["samples"] if s["labels"].get("proto") == "udp"
        ]
        assert received and received[0]["value"] == 3.0

    def test_health_endpoint(self, ops):
        TraceSampler(1.0).begin(1)
        status, body = _http_get(f"http://127.0.0.1:{ops.port}/health")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0
        assert health["traces"] == 1

    def test_trace_endpoints(self, ops):
        ctx = TraceSampler(1.0).begin(5, host="db02")
        record_hop(ctx, "broker.publish", ctx.origin_s)
        status, body = _http_get(f"http://127.0.0.1:{ops.port}/trace")
        assert status == 200
        index = json.loads(body)
        assert [e["trace_id"] for e in index] == [ctx.trace_id]
        assert index[0]["hops"] == 2
        status, body = _http_get(
            f"http://127.0.0.1:{ops.port}/trace/{ctx.trace_id}"
        )
        assert status == 200
        assert "ingest.accept" in body and "broker.publish" in body

    def test_control_endpoint(self, ops):
        wellknown.control_ticks(None).inc(9)
        wellknown.control_setpoint(None).set(6.0, lever="stage_workers")
        wellknown.control_actuations(None).inc(
            4, lever="stage_workers", direction="up"
        )
        wellknown.control_flips(None).inc(1, lever="stage_workers")
        wellknown.control_feedforward_moves(None).inc(
            2, lever="stage_workers"
        )
        wellknown.control_brownout_level(None).set(2)
        wellknown.control_shed(None).inc(7, reason="brownout")
        wellknown.control_feedforward_rate(None).set(42.0)
        wellknown.ingest_tenant_received(None).inc(10, tenant="db02/sshd")
        wellknown.ingest_tenant_accepted(None).inc(6, tenant="db02/sshd")
        wellknown.ingest_tenant_shed(None).inc(
            4, tenant="db02/sshd", reason="fair_share"
        )
        wellknown.ingest_tenants_active(None).set(1)
        status, body = _http_get(f"http://127.0.0.1:{ops.port}/control")
        assert status == 200
        summary = json.loads(body)
        assert summary["ticks"] == 9.0
        lever = summary["levers"]["stage_workers"]
        assert lever == {
            "setpoint": 6.0, "actuations": 4.0, "flips": 1.0,
            "feedforward_moves": 2.0,
        }
        assert summary["brownout_level"] == 2.0
        assert summary["shed"] == {"brownout": 7.0}
        assert summary["feedforward_rate"] == 42.0
        assert summary["tenants"]["db02/sshd"] == {
            "received": 10.0, "accepted": 6.0,
            "shed": {"fair_share": 4.0},
        }
        assert summary["tenants_active"] == 1.0

    def test_control_endpoint_empty_registry_is_benign(self, ops):
        status, body = _http_get(f"http://127.0.0.1:{ops.port}/control")
        assert status == 200
        summary = json.loads(body)
        assert summary["levers"] == {}
        assert summary["tenants"] == {}

    def test_unknown_routes_404(self, ops):
        assert _http_get(f"http://127.0.0.1:{ops.port}/trace/feed")[0] == 404
        assert _http_get(f"http://127.0.0.1:{ops.port}/nope")[0] == 404


# -- CLI: trace + metrics --watch ---------------------------------------


class TestTraceCli:
    @pytest.fixture()
    def traced_wal_dir(self, tmp_path):
        """A completed durable run whose checkpoint carries spans."""
        config = _traced_sim_config(duration_s=15.0)
        config.save(tmp_path)
        cluster, _, _ = resume_simulation(tmp_path)
        cluster.run(30.0)
        return tmp_path

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            cli_main(["trace"])

    def test_wal_dir_listing_and_waterfall(self, traced_wal_dir, capsys):
        assert cli_main(["trace", "--wal-dir", str(traced_wal_dir)]) == 0
        listing = capsys.readouterr().out
        trace_ids = [
            token for line in listing.splitlines()
            for token in line.split()[:1]
            if len(token) == 32 and token.strip("0123456789abcdef") == ""
        ]
        assert trace_ids, f"no trace ids in listing:\n{listing}"
        assert cli_main([
            "trace", "--wal-dir", str(traced_wal_dir), trace_ids[0]
        ]) == 0
        waterfall = capsys.readouterr().out
        assert trace_ids[0] in waterfall
        assert "ingest.accept" in waterfall

    def test_url_listing_against_ops_server(self, capsys):
        ctx = TraceSampler(1.0).begin(9)
        ops = OpsServer(port=0).start()
        try:
            assert cli_main(["trace", "--url", ops.url]) == 0
            assert ctx.trace_id in capsys.readouterr().out
            assert cli_main(["trace", "--url", ops.url, ctx.trace_id]) == 0
            assert "ingest.accept" in capsys.readouterr().out
        finally:
            ops.stop()


class TestMetricsWatchCli:
    def test_watch_rerenders_an_ops_endpoint(self, capsys):
        wellknown.broker_published(None).inc(12)
        ops = OpsServer(port=0).start()
        try:
            assert cli_main([
                "metrics", ops.url, "--watch", "1", "--count", "2"
            ]) == 0
        finally:
            ops.stop()
        out = capsys.readouterr().out
        assert out.count("repro_broker_published_total") >= 2


class TestMetricsDirectoryCli:
    def test_a_durable_run_renders_its_telemetry(self, tmp_path, capsys):
        """``metrics <wal dir>`` renders the ``telemetry.json`` written
        beside the last checkpoint: the spine's panel sections, and the
        checkpoint count this process wrote."""
        config = _traced_sim_config(duration_s=15.0)
        config.save(tmp_path)
        cluster, _, journal = resume_simulation(tmp_path)
        cluster.run(30.0)
        journal.wal.close()
        assert cli_main(["metrics", str(tmp_path)]) == 0
        panel = capsys.readouterr().out
        assert str(tmp_path / "telemetry.json") in panel
        for section in ("-- broker --", "-- store --", "-- e2e + slo --", "-- durability --"):
            assert section in panel
        writes = wellknown.checkpoint_writes(None).value()
        assert writes > 0
        assert re.search(rf"^repro_checkpoint_writes_total +{writes:g} ", panel, re.M)

    def test_a_directory_without_telemetry_exits_in_one_line(self, tmp_path):
        _traced_sim_config().save(tmp_path)
        with pytest.raises(SystemExit) as refused:
            cli_main(["metrics", str(tmp_path)])
        message = str(refused.value)
        assert str(tmp_path) in message and "telemetry.json" in message
        assert "\n" not in message


# -- dashboard sections -------------------------------------------------


class TestDashboardSections:
    def test_wellknown_families_group_into_sections(self):
        registry = default_registry()
        wellknown.declare_all(registry)
        panel = render_metrics_panel(registry)
        for section in ("-- ingest --", "-- broker --", "-- store --",
                        "-- e2e + slo --"):
            assert section in panel

    def test_adhoc_registry_renders_flat(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(2)
        panel = render_metrics_panel(registry)
        assert "--" not in panel.replace("jobs_total", "")
