"""Unit tests for the relay, fluentd, and the Tivan assembly."""

import pytest
from broker_feed import fed_forwarder

from repro.core.message import Severity, SyslogMessage
from repro.core.taxonomy import Category
from repro.datagen.workload import StreamEvent, generate_stream
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import SITE_PARTITION_STALL, FaultSpec
from repro.stream.tivan import ClassifierStage, TivanCluster


def msg(t=0.0, host="cn001", text="hello"):
    return SyslogMessage(timestamp=t, hostname=host, app="test", text=text,
                         severity=Severity.INFO)


def relayed(*messages, **kw):
    """A cluster whose relay has taken ``messages`` (nothing consumed)."""
    cluster = TivanCluster(**kw)
    cluster.load_events([StreamEvent(message=m, label=None) for m in messages])
    cluster.engine.run()
    return cluster


class TestRelay:
    def test_forwards_to_downstream(self):
        tc = relayed(msg())
        assert (tc.relay.received, tc.relay.dropped) == (1, 0)
        assert tc.broker.stats.published == 1

    def test_counts_drops(self):
        stall = FaultPlan(sites={SITE_PARTITION_STALL: FaultSpec(at_calls=(1,))})
        tc = relayed(msg(), fault_injector=FaultInjector(stall))
        assert (tc.relay.received, tc.relay.dropped) == (1, 1)
        assert tc.broker.stats.published == 0

    def test_each_host_publishes_to_its_own_partition(self):
        tc = relayed(msg(1.0, "cn001"), msg(2.0, "cn999"), msg(3.0, "cn001"))
        assert tc.relay.received == 3
        assert {h: len(p) for h, p in tc.broker.partitions.items()} == {
            "cn001": 2, "cn999": 1,
        }


class TestFluentd:
    def make(self, messages=(), sink=None, **kw):
        store: list = []
        ok = sink if sink is not None else (lambda batch: (store.extend(batch), True)[1])
        fwd = fed_forwarder(messages, sink=ok, **kw)
        return fwd.engine, fwd, store

    def test_offer_and_flush(self):
        _eng, fwd, store = self.make([msg(float(i)) for i in range(7)], batch_size=10)
        assert fwd.flush() == 7
        assert len(store) == 7 and fwd.buffered == 0

    def test_batch_size_respected(self):
        _eng, fwd, store = self.make([msg(float(i)) for i in range(7)], batch_size=3)
        assert fwd.flush() == 3
        assert fwd.buffered == 4

    def test_backpressure(self):
        """A full buffer polls nothing more: the rest waits as broker lag."""
        _eng, fwd, _store = self.make([msg(), msg(), msg()], buffer_limit=2)
        assert fwd.buffered == 2 and fwd.stats.accepted == 2
        assert fwd.poll_broker() == 0
        assert fwd.broker.lag(fwd.consumer_group) == 3
        assert fwd.flush() == 2 and fwd.poll_broker() == 1

    def test_failed_flush_sets_retry_backoff(self):
        _eng, fwd, _ = self.make([msg()], sink=lambda batch: False)
        assert fwd.flush() == 0
        assert fwd.stats.failed_flushes == 1
        assert fwd._retry_delay > 0

    def test_drain_raises_on_stuck_sink(self):
        _eng, fwd, _ = self.make([msg()], sink=lambda batch: False)
        with pytest.raises(RuntimeError, match="stalled"):
            fwd.drain()

    def test_periodic_flush_via_engine(self):
        eng, fwd, store = self.make(flush_interval_s=1.0)
        fwd.start()
        for i in range(5):  # the flush tick polls them
            fwd.broker.publish(msg(float(i)))
        eng.run(until=3.0)
        assert len(store) == 5


class TestTivanCluster:
    def test_end_to_end_counts(self):
        ev = generate_stream(duration_s=30, background_rate=10, seed=0)
        tc = TivanCluster()
        tc.load_events(ev)
        rep = tc.run(40)
        assert rep.produced == len(ev)
        assert rep.indexed == rep.relay_received - rep.relay_dropped
        assert rep.indexed == len(tc.store)

    def test_run_without_loaded_events_produced_nothing(self):
        rep = TivanCluster().run(5)
        assert rep.produced == 0
        assert rep.indexed == 0

    def test_fast_classifier_keeps_up(self):
        ev = generate_stream(duration_s=30, background_rate=10, seed=1)
        tc = TivanCluster()
        tc.load_events(ev)
        tc.attach_classifier(ClassifierStage(service_time_s=0.001))
        rep = tc.run(40)
        assert rep.keeping_up
        assert rep.final_backlog < 20

    def test_slow_classifier_backlogs(self):
        ev = generate_stream(duration_s=30, background_rate=10, seed=2)
        tc = TivanCluster()
        tc.load_events(ev)
        tc.attach_classifier(ClassifierStage(service_time_s=2.0))
        rep = tc.run(40)
        assert not rep.keeping_up
        assert rep.final_backlog > 100

    def test_classifier_stage_labels_documents(self):
        ev = generate_stream(duration_s=10, background_rate=5, seed=3)
        tc = TivanCluster()
        tc.load_events(ev)
        tc.attach_classifier(
            ClassifierStage(service_time_s=0.001,
                            classify_batch=lambda texts: [Category.UNIMPORTANT] * len(texts))
        )
        rep = tc.run(20)
        labelled = sum(
            1 for i in range(len(tc.store)) if tc.store.get(i).category is not None
        )
        assert labelled == rep.classified > 0

    def test_invalid_duration(self):
        tc = TivanCluster()
        with pytest.raises(ValueError, match="duration"):
            tc.run(0.0)

    def test_invalid_service_time(self):
        with pytest.raises(ValueError, match="service_time"):
            ClassifierStage(service_time_s=0.0)

    def test_backlog_timeline_sampled(self):
        ev = generate_stream(duration_s=30, background_rate=5, seed=4)
        tc = TivanCluster()
        tc.load_events(ev)
        tc.attach_classifier(ClassifierStage(service_time_s=0.01))
        rep = tc.run(30, sample_every_s=5.0)
        assert len(rep.backlog_timeline) >= 5
        assert all(t <= 30 for t, _b in rep.backlog_timeline)

    def test_settle_drain_not_counted_as_backlog(self):
        """Messages the settle drain indexes after the horizon were
        never offered to the classifier: they must show up in
        ``drained``, not in ``final_backlog`` / ``keeping_up``."""
        ev = generate_stream(duration_s=30, background_rate=10, seed=5)
        # first flush tick would land after the horizon: everything the
        # relay forwards is still buffered when the run ends
        tc = TivanCluster(flush_interval_s=100.0)
        tc.load_events(ev)
        tc.attach_classifier(ClassifierStage(service_time_s=0.001))
        rep = tc.run(40)
        assert rep.indexed == 0
        assert rep.final_backlog == 0
        assert rep.keeping_up
        assert rep.drained == rep.relay_received - rep.relay_dropped > 0
        assert len(tc.store) == rep.indexed + rep.drained
