"""Chaos suite: fault injection, resilience, and no-silent-loss.

Every scenario runs under a fixed seed (shiftable with
``REPRO_CHAOS_SEED`` for the CI seed matrix) and checks three things:

1. **Conservation** — delivered + dead-lettered + dropped-and-counted
   equals submitted, at every layer.  Nothing vanishes silently.
2. **Parity** — messages that survive a fault get the same prediction
   the fault-free path produces.
3. **Reconciliation** — the ``repro_faults_*`` metric families agree
   with the injector's own fire log and the layers' stats objects.
"""

import json
import os
import re

import pytest
from broker_feed import feed, fed_forwarder

from repro.core.pipeline import ClassificationPipeline
from repro.core.message import SyslogMessage
from repro.core.taxonomy import Category
from repro.faults import (
    KNOWN_SITES,
    SITE_FLUSH_FAIL,
    SITE_NODE_DOWN,
    SITE_POISON,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.ml import ComplementNB
from repro.obs import MetricsRegistry, use_registry, wellknown
from repro.stream.opensearch import LogStore
from repro.stream.tivan import ClassifierStage, TivanCluster


#: the CI chaos job shifts this to run the whole suite under other seeds
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]


def _messages(n, seed=0):
    return [
        SyslogMessage(timestamp=float(i), hostname=f"cn{(seed + i) % 5:03d}",
                      app="kernel", text=f"seed {seed} message number {i}")
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def fitted(corpus):
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts[:600], corpus.labels[:600])
    return pipe


# -- plan / injector -------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(probability=1.5)
        with pytest.raises(ValueError, match="at_calls"):
            FaultSpec(at_calls=(0,))
        with pytest.raises(ValueError, match="limit"):
            FaultSpec(limit=-1)

    def test_roundtrip(self, tmp_path):
        plan = FaultPlan(
            sites={
                SITE_FLUSH_FAIL: FaultSpec(probability=0.25, limit=3),
                SITE_NODE_DOWN: FaultSpec(at_calls=(2, 5)),
            },
            seed=7,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_file(p) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "sites": {}, "bogus": True})
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"chance": 0.1})

    @pytest.mark.parametrize("site", ["shard.worker_crash", "fluentd.flsh"])
    def test_unknown_site_refused(self, site, tmp_path):
        """A plan file naming a site nothing consults (a removed one, a
        typo) is refused by name instead of silently arming nothing."""
        assert site not in KNOWN_SITES
        data = {"seed": 0, "sites": {site: {"at_calls": [1]}, SITE_FLUSH_FAIL: {}}}
        with pytest.raises(ValueError, match=re.escape(site)) as exc:
            FaultPlan.from_dict(data)
        assert SITE_FLUSH_FAIL not in str(exc.value)
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown fault sites"):
            FaultPlan.from_file(p)
        # built in code, a plan may still name any site
        assert site in FaultPlan(sites={site: FaultSpec()}).sites

    def test_never_plan_never_fires(self):
        inj = FaultInjector(FaultPlan.never())
        assert not any(inj.should_fire(s) for s in (SITE_POISON,) * 100)
        assert inj.fire_log == []


class TestInjectorDeterminism:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_same_fires(self, seed):
        plan = FaultPlan(
            sites={SITE_POISON: FaultSpec(probability=0.3)}, seed=seed
        )
        logs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            fires = [inj.should_fire(SITE_POISON) for _ in range(200)]
            logs.append((fires, list(inj.fire_log)))
        assert logs[0] == logs[1]
        assert any(logs[0][0])

    def test_sites_are_independent_streams(self):
        """Interleaving checks of another site must not perturb a site."""
        plan = FaultPlan(
            sites={
                SITE_POISON: FaultSpec(probability=0.3),
                SITE_FLUSH_FAIL: FaultSpec(probability=0.5),
            },
            seed=11,
        )
        solo = FaultInjector(plan)
        solo_fires = [solo.should_fire(SITE_POISON) for _ in range(100)]
        mixed = FaultInjector(plan)
        mixed_fires = []
        for i in range(100):
            if i % 3 == 0:
                mixed.should_fire(SITE_FLUSH_FAIL)
            mixed_fires.append(mixed.should_fire(SITE_POISON))
        assert mixed_fires == solo_fires

    def test_at_calls_and_limit(self):
        plan = FaultPlan(
            sites={SITE_FLUSH_FAIL: FaultSpec(at_calls=(2, 4, 6), limit=2)}
        )
        inj = FaultInjector(plan)
        fires = [inj.should_fire(SITE_FLUSH_FAIL) for _ in range(8)]
        assert fires == [False, True, False, True, False, False, False, False]
        assert inj.fire_counts() == {SITE_FLUSH_FAIL: 2}
        assert inj.call_counts() == {SITE_FLUSH_FAIL: 8}

    def test_reset_replays_identically(self):
        plan = FaultPlan(sites={SITE_POISON: FaultSpec(probability=0.4)}, seed=3)
        inj = FaultInjector(plan)
        first = [inj.should_fire(SITE_POISON) for _ in range(50)]
        inj.reset()
        assert [inj.should_fire(SITE_POISON) for _ in range(50)] == first

    def test_check_raises_injected_fault(self):
        inj = FaultInjector(
            FaultPlan(sites={SITE_POISON: FaultSpec(at_calls=(1,))})
        )
        with pytest.raises(InjectedFault) as exc:
            inj.check(SITE_POISON)
        assert exc.value.site == SITE_POISON

    def test_fires_counted_in_registry(self):
        with use_registry(MetricsRegistry()) as reg:
            inj = FaultInjector(
                FaultPlan(sites={SITE_POISON: FaultSpec(at_calls=(1, 2))})
            )
            inj.should_fire(SITE_POISON)
            inj.should_fire(SITE_POISON)
            assert wellknown.faults_injected(reg).value(site=SITE_POISON) == 2


class TestDeadLetterQueue:
    def test_push_and_filter(self):
        dlq = DeadLetterQueue()
        dlq.push("a.site", "payload", "ValueError('x')", batch_index=3)
        dlq.push("b.site", "other", "boom")
        assert len(dlq) == 2
        assert [e.seq for e in dlq] == [1, 2]
        assert dlq.entries("a.site")[0].context == {"batch_index": 3}
        assert dlq.counts_by_site() == {"a.site": 1, "b.site": 1}

    def test_restore_renumbers_without_counting(self):
        with use_registry(MetricsRegistry()) as reg:
            # src counts its captures into its own registry; adopting
            # them renumbers them here and counts nothing twice
            src = DeadLetterQueue(registry=MetricsRegistry())
            dst = DeadLetterQueue()
            dst.push("x", "p0", "e0")
            src.push("y", "p1", "e1")
            src.push("y", "p2", "e2")
            assert dst.restore(src.entries()) == 2
            assert [e.seq for e in dst] == [1, 2, 3]
            assert [e.payload for e in dst.entries("y")] == ["p1", "p2"]
            assert wellknown.faults_dead_letters(reg).value(site="x") == 1
            assert wellknown.faults_dead_letters(reg).value(site="y") == 0


# -- pipeline poison quarantine --------------------------------------------


class TestPoisonQuarantine:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_no_silent_loss_and_parity(self, fitted, corpus, seed):
        probe = list(corpus.texts[600:680])
        clean = [r.category for r in fitted.classify_batch(probe)]
        with use_registry(MetricsRegistry()) as reg:
            pipe = ClassificationPipeline(classifier=ComplementNB())
            pipe.fit(corpus.texts[:600], corpus.labels[:600])
            inj = FaultInjector(FaultPlan(
                sites={SITE_POISON: FaultSpec(probability=0.2)}, seed=seed
            ))
            pipe.fault_injector = inj
            results = pipe.classify_batch(probe)
            # conservation: one result per input, no exception escaped
            assert len(results) == len(probe)
            quarantined = [r for r in results if r.quarantined]
            fired = inj.fire_counts().get(SITE_POISON, 0)
            assert len(quarantined) == fired > 0
            assert len(pipe.dead_letters) == fired
            assert all(
                r.category is Category.UNIMPORTANT and r.confidence is None
                for r in quarantined
            )
            # parity: survivors predicted exactly as the clean pipeline
            for r, want in zip(results, clean):
                if not r.quarantined:
                    assert r.category == want
            # reconciliation: metrics agree with the injector fire log
            assert wellknown.faults_injected(reg).value(site=SITE_POISON) == fired
            assert wellknown.faults_quarantined(reg).value() == fired
            assert (
                wellknown.faults_dead_letters(reg).value(site=SITE_POISON)
                == fired
            )

    def test_garbage_quarantined_not_crashed(self, fitted):
        """A predict-path crash on one message must not abort the batch."""

        class PoisonVectorizer:
            def __init__(self, inner):
                self.inner = inner

            def analyze_batch(self, texts):
                if any("POISON" in t for t in texts):
                    raise ValueError("poisoned batch")
                return self.inner.analyze_batch(texts)

            def transform_analyzed(self, docs):
                return self.inner.transform_analyzed(docs)

        probe = ["Warning: Socket 2 throttled", "POISON pill", "sshd session opened"]
        pipe = ClassificationPipeline(classifier=fitted.classifier)
        pipe.vectorizer = PoisonVectorizer(fitted.vectorizer)
        pipe._fitted = True
        results = pipe.classify_batch(probe)
        assert len(results) == 3
        assert [r.quarantined for r in results] == [False, True, False]
        assert len(pipe.dead_letters) == 1
        assert pipe.dead_letters.entries()[0].payload == "POISON pill"


# -- forwarder flush faults ------------------------------------------------


def _forwarder_conservation(fwd, published):
    s = fwd.stats
    assert fwd.broker.stats.published == published
    assert fwd.broker.stats.polled == s.accepted
    assert s.accepted == s.flushed_messages + fwd.buffered + s.abandoned_messages


class TestForwarderChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_flush_faults_conserve_messages(self, seed):
        with use_registry(MetricsRegistry()) as reg:
            store = LogStore(n_shards=2)
            inj = FaultInjector(FaultPlan(
                sites={SITE_FLUSH_FAIL: FaultSpec(probability=0.4)}, seed=seed
            ))
            fwd = fed_forwarder(
                _messages(300, seed), sink=store.bulk_index, batch_size=20,
                buffer_limit=1000, fault_injector=inj,
            )
            flushed = fwd.drain()
            assert flushed == 300 and len(store) == 300
            _forwarder_conservation(fwd, 300)
            # reconciliation: every injected fire is a counted failure
            fired = inj.fire_counts().get(SITE_FLUSH_FAIL, 0)
            assert fired > 0
            assert fwd.stats.failed_flushes == fired
            assert (
                wellknown.faults_injected(reg).value(site=SITE_FLUSH_FAIL)
                == fired
            )

    def test_raising_sink_counts_failed_flush(self):
        with use_registry(MetricsRegistry()):
            calls = []

            def sink(batch):
                calls.append(len(batch))
                if len(calls) == 1:
                    raise ConnectionError("sink went away")
                return True

            fwd = fed_forwarder(_messages(10), sink=sink, batch_size=10)
            assert fwd.flush() == 0
            assert fwd.stats.failed_flushes == 1
            assert fwd.buffered == 10  # all-or-nothing: nothing left early
            assert fwd.flush() == 10
            _forwarder_conservation(fwd, 10)

    def test_bounded_retry_budget_abandons_head_batch(self):
        with use_registry(MetricsRegistry()) as reg:
            fwd = fed_forwarder(
                _messages(50), sink=lambda b: False, batch_size=25,
                flush_retry_limit=3,
            )
            # drain completes by abandoning both stuck batches, instead
            # of raising the unbounded-retry stall error
            assert fwd.drain(max_consecutive_failures=10) == 0
            assert fwd.buffered == 0
            s = fwd.stats
            assert s.abandoned_flushes == 2
            assert s.abandoned_messages == 50
            assert s.failed_flushes == 6  # 3 per abandoned batch
            assert len(fwd.dead_letters) == 50
            _forwarder_conservation(fwd, 50)
            assert (
                wellknown.faults_dead_letters(reg).value(
                    site="fluentd.flush_abandoned"
                )
                == 50
            )

    def test_backoff_resets_after_success(self):
        with use_registry(MetricsRegistry()):
            fail = [True]
            fwd = fed_forwarder(
                _messages(10), sink=lambda b: not fail[0], batch_size=10,
                retry_base_s=0.5,
            )
            fwd.flush()
            first_delay = fwd._retry_delay
            fwd.flush()
            assert fwd._retry_delay > first_delay  # consecutive growth
            fail[0] = False
            fwd.flush()
            assert fwd._retry_delay == 0.0
            feed(fwd, _messages(10))
            fail[0] = True
            fwd.flush()
            assert fwd._retry_delay == first_delay  # schedule restarted


# -- degraded mode ---------------------------------------------------------


class TestDegradedMode:
    def _run_cluster(self, **kw):
        from repro.datagen.workload import generate_stream

        events = generate_stream(duration_s=60.0, background_rate=20.0, seed=1)
        cluster = TivanCluster(
            flush_interval_s=0.5, batch_size=200, **kw
        )
        cluster.load_events(events)
        cluster.attach_classifier(ClassifierStage(
            service_time_s=0.5,  # far too slow: backlog builds fast
            classify_batch=lambda texts: [Category.UNIMPORTANT] * len(texts),
            cheap_classify_batch=lambda texts: [Category.UNIMPORTANT] * len(texts),
            degraded_service_time_s=0.001,
            batch_size=16,
        ))
        return cluster, cluster.run(60.0)

    def test_backlog_triggers_shedding(self):
        with use_registry(MetricsRegistry()) as reg:
            cluster, report = self._run_cluster(degrade_backlog=100)
            assert report.degrade_transitions >= 1
            assert report.classified_degraded > 0
            assert (
                wellknown.degraded_transitions(reg).value(direction="enter")
                >= 1
            )
            assert (
                wellknown.degraded_messages(reg).value()
                == report.classified_degraded
            )

    def test_hysteresis_recovers(self):
        with use_registry(MetricsRegistry()) as reg:
            cluster, report = self._run_cluster(degrade_backlog=100)
            # the cheap path drains the backlog below the recover
            # threshold (half of 100) well before the horizon, so the
            # mode exits
            assert not cluster.degraded
            assert report.degrade_transitions >= 2
            assert wellknown.degraded_mode(reg).value() == 0

    def test_disabled_by_default(self):
        with use_registry(MetricsRegistry()):
            cluster, report = self._run_cluster()
            assert report.degrade_transitions == 0
            assert report.classified_degraded == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="degrade_backlog"):
            TivanCluster(degrade_backlog=0)


# -- end-to-end chaos simulation -------------------------------------------


class TestEndToEndChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_stream_conserves_under_flush_faults(self, seed):
        from repro.datagen.workload import generate_stream

        with use_registry(MetricsRegistry()) as reg:
            inj = FaultInjector(FaultPlan(
                sites={SITE_FLUSH_FAIL: FaultSpec(probability=0.3)},
                seed=seed,
            ))
            events = generate_stream(
                duration_s=120.0, background_rate=10.0, seed=seed
            )
            cluster = TivanCluster(
                flush_interval_s=0.5, batch_size=100, buffer_limit=200,
                flush_retry_limit=5, fault_injector=inj,
            )
            cluster.load_events(events)
            report = cluster.run(120.0)
            fwd = cluster.forwarder
            s = fwd.stats
            # relay-level conservation: what the relay took and did not
            # drop is what it forwarded
            forwarded = report.relay_received - report.relay_dropped
            assert report.relay_received == cluster.relay.received == len(events)
            # forwarder-level conservation: everything the relay forwarded
            # was published and polled, then flushed, still buffered, or
            # dead-lettered with a reason
            assert report.broker_published == forwarded
            assert report.broker_polled == s.accepted
            assert s.accepted == (
                s.flushed_messages + fwd.buffered + s.abandoned_messages
            )
            # the store holds exactly what was flushed
            assert len(cluster.store) == s.flushed_messages
            # a full buffer is broker lag, never a relay drop
            assert cluster.relay.dropped == report.relay_dropped == 0
            assert report.broker_published == s.accepted + report.broker_lag
            # reconciliation with the injector
            fired = inj.fire_counts().get(SITE_FLUSH_FAIL, 0)
            assert fired > 0
            assert s.failed_flushes == fired
            assert (
                wellknown.faults_injected(reg).value(site=SITE_FLUSH_FAIL)
                == fired == len(inj.fire_log)
            )
