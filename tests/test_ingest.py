"""Ingest layer: RFC wire formats, the log broker, the listener, and
the broker-spine simulation end to end.

The crash scenarios at the bottom are the PR's acceptance bar: a
durable broker run SIGKILLed mid-stream and resumed from committed
offsets must lose zero acked messages and duplicate none past the
journal barrier, across the ``REPRO_CHAOS_SEED`` matrix.
"""

import asyncio
import hashlib
import json
import os
import socket
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.message import Facility, Severity, SyslogMessage
from repro.datagen.sender import render_event, send_tcp, send_udp, wire_lines
from repro.datagen.workload import standard_simulation_events
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import SITE_COMMIT_LOST, SITE_PARTITION_STALL
from repro.ingest import (
    BrokerRecord,
    DeficitRoundRobin,
    LogBroker,
    Partition,
    SyslogListener,
    hash_partitioner,
)
from repro.obs import MetricsRegistry, TraceSampler, Tracer, use_registry, wellknown
from repro.obs.propagation import record_hop
from repro.stream import rfc
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder
from repro.stream.tivan import ClassifierStage, TivanCluster

SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]

#: the push intake's outputs, recorded in push mode before it was removed
PUSH_MODE_OUTPUTS = Path(__file__).with_name("push_mode_outputs.json")


@pytest.fixture(autouse=True)
def _fresh_registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


def _msg(i=0, host="cn001", text="link up", severity=Severity.INFO):
    return SyslogMessage(
        timestamp=100.0 + i, hostname=host, app="kernel", text=text,
        severity=severity, facility=Facility.KERN,
    )


# ---------------------------------------------------------------------------
# RFC wire formats (the shared grammar)


class TestRfcRoundTrip:
    def test_3164_round_trip(self):
        m = _msg(severity=Severity.WARNING)
        line = rfc.format_rfc3164(m)
        back = rfc.parse_line(line)
        assert (back.hostname, back.app, back.text) == (m.hostname, m.app, m.text)
        assert back.severity is m.severity
        assert back.facility is m.facility

    def test_5424_round_trip_preserves_timestamp(self):
        m = _msg(i=3)
        back = rfc.parse_line(rfc.format_rfc5424(m))
        assert back.timestamp == pytest.approx(m.timestamp)
        assert (back.hostname, back.app, back.text) == (m.hostname, m.app, m.text)

    def test_message_methods_delegate_to_rfc(self):
        m = _msg()
        assert m.to_rfc3164() == rfc.format_rfc3164(m)
        assert m.to_rfc5424() == rfc.format_rfc5424(m)

    @given(
        st.integers(min_value=0, max_value=7),
        st.sampled_from(list(Facility)),
        st.floats(min_value=0.0, max_value=3.0e7, allow_nan=False),
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127
            ),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property_both_formats(self, sev, fac, ts, text):
        m = SyslogMessage(
            timestamp=ts, hostname="cn007", app="sshd", text=text,
            severity=Severity(sev), facility=fac,
        )
        for fmt in (rfc.format_rfc3164, rfc.format_rfc5424):
            back = rfc.parse_line(fmt(m))
            assert back.text == m.text
            assert back.severity is m.severity
            assert back.facility is m.facility

    def test_sender_wire_lines_all_parse(self):
        events = standard_simulation_events(
            duration_s=20, background_rate=20, seed=5
        )
        lines = wire_lines([e.message for e in events])
        assert len(lines) == len(events)
        # deterministically mixed: both grammars present
        assert any(line.startswith(b"<") and b" - - " not in line for line in lines)
        for line, event in zip(lines, events):
            msg, error = rfc.safe_parse_line(line)
            assert error is None
            assert msg.hostname == event.message.hostname
            assert msg.text == event.message.text

    def test_sender_render_event_mixed_alternates(self):
        m = _msg()
        assert render_event(m, 0) == m.to_rfc3164()
        assert render_event(m, 1) == m.to_rfc5424()
        assert render_event(m, 1, "3164") == m.to_rfc3164()
        with pytest.raises(ValueError):
            render_event(m, 0, "cef")


# ---------------------------------------------------------------------------
# the broker


class TestPartition:
    def test_segments_seal_at_capacity(self):
        p = Partition("cn001", segment_records=4)
        for i in range(10):
            p.append(BrokerRecord("cn001", i, _msg(i)))
        assert len(p) == 10
        assert p.n_segments == 3  # two sealed + one active
        got = p.read_from(0, 100)
        assert [r.offset for r in got] == list(range(10))
        assert [r.offset for r in p.read_from(6, 2)] == [6, 7]

    def test_sparse_offsets_allowed_rewinds_rejected(self):
        p = Partition("cn001")
        p.append(BrokerRecord("cn001", 0, _msg(0)))
        p.append(BrokerRecord("cn001", 5, _msg(5)))  # gap: settled events
        assert p.next_offset == 6
        with pytest.raises(ValueError, match="non-monotonic"):
            p.append(BrokerRecord("cn001", 3, _msg(3)))
        assert [r.offset for r in p.read_from(1, 10)] == [5]


class TestLogBroker:
    def test_host_partitioner_orders_per_host(self):
        broker = LogBroker()
        for i, host in enumerate(["a", "b", "a", "a", "b"]):
            broker.publish(_msg(i, host=host))
        assert set(broker.partitions) == {"a", "b"}
        broker.subscribe("g", "m0")
        records = broker.poll("g", "m0", max_records=10)
        per_host = {}
        for r in records:
            per_host.setdefault(r.partition, []).append(r.message.timestamp)
        for times in per_host.values():
            assert times == sorted(times)

    def test_hash_partitioner_stable_and_bounded(self):
        part = hash_partitioner(4)
        keys = {part(_msg(host=f"cn{i:03d}")) for i in range(50)}
        assert keys <= {f"p{i:03d}" for i in range(4)}
        assert part(_msg(host="cn001")) == part(_msg(host="cn001"))
        with pytest.raises(ValueError):
            hash_partitioner(0)

    def test_assignment_round_robin_over_members(self):
        broker = LogBroker()
        for host in "abcde":
            broker.publish(_msg(host=host))
        broker.subscribe("g", "m0")
        broker.subscribe("g", "m1")
        a0 = broker.assignment("g", "m0")
        a1 = broker.assignment("g", "m1")
        assert sorted(a0 + a1) == list("abcde")
        assert not set(a0) & set(a1)
        # a partition created after subscription is owned without rebalance
        broker.publish(_msg(host="f"))
        assert sorted(broker.assignment("g", "m0") + broker.assignment("g", "m1")) \
            == list("abcdef")

    def test_commit_is_max_wins_and_drives_lag(self):
        broker = LogBroker()
        for i in range(6):
            broker.publish(_msg(i, host="a"))
        broker.subscribe("g", "m0")
        assert broker.lag("g") == 6
        assert broker.commit("g", "a", 4)
        assert broker.lag("g") == 2
        broker.commit("g", "a", 2)  # stale: never rewinds
        assert broker.committed("g", "a") == 4

    def test_restart_repolls_from_committed(self):
        broker = LogBroker()
        for i in range(5):
            broker.publish(_msg(i, host="a"))
        broker.subscribe("g", "m0")
        first = broker.poll("g", "m0", max_records=10)
        assert len(first) == 5
        broker.commit("g", "a", 3)
        broker.reset_to_committed("g")  # what a restarted consumer does
        again = broker.poll("g", "m0", max_records=10)
        assert [r.offset for r in again] == [3, 4]  # at-least-once, not lost

    def test_partition_stall_refuses_then_heals(self):
        plan = FaultPlan.from_dict({
            "seed": 0,
            "sites": {"broker.partition_stall": {"at_calls": [2, 4]}},
        })
        broker = LogBroker(fault_injector=FaultInjector(plan))
        assert broker.publish(_msg(0, host="a")) is not None
        assert broker.publish(_msg(1, host="a")) is None  # stalled
        assert broker.stalled_partition == "a"
        assert broker.publish(_msg(2, host="b")) is not None  # other partition fine
        assert broker.publish(_msg(3, host="a")) is not None  # healed
        assert broker.stats.publish_refused == 1
        assert broker.stats.stall_events == 1

    def test_commit_lost_keeps_offset_behind(self):
        plan = FaultPlan.from_dict({
            "seed": 0,
            "sites": {"broker.commit_lost": {"at_calls": [1]}},
        })
        broker = LogBroker(fault_injector=FaultInjector(plan))
        broker.publish(_msg(0, host="a"))
        broker.subscribe("g", "m0")
        broker.poll("g", "m0")
        assert broker.commit("g", "a", 1) is False  # eaten
        assert broker.committed("g", "a") == 0
        assert broker.stats.commits_lost == 1
        assert broker.commit("g", "a", 1) is True

    def test_a_rewinding_offset_mid_batch_keeps_what_landed_before_it(self):
        broker = LogBroker(registry=MetricsRegistry())
        broker.subscribe("g", "m0")
        with pytest.raises(ValueError, match="non-monotonic"):
            broker.publish_many([_msg(i) for i in range(3)], offsets=[None, None, 0])
        assert broker.stats.published == 2 and broker.lag("g") == 2
        assert [r.offset for r in broker.poll("g", "m0")] == [0, 1]

    def test_restore_offsets_reseeds_and_resets_cursor(self):
        broker = LogBroker()
        for i in range(4):
            broker.publish(_msg(i, host="a"))
        broker.subscribe("g", "m0")
        broker.poll("g", "m0", max_records=10)
        broker.restore_offsets("g", {"a": 2})
        assert broker.committed("g", "a") == 2
        assert [r.offset for r in broker.poll("g", "m0", max_records=10)] == [2, 3]

    def test_describe_snapshot(self):
        broker = LogBroker()
        broker.publish(_msg(0, host="a"))
        broker.subscribe("g", "m0")
        snap = broker.describe()
        assert snap["partitions"]["a"]["records"] == 1
        assert snap["groups"]["g"]["members"] == ["m0"]
        assert snap["stats"]["published"] == 1

    @pytest.mark.parametrize("budget", [0, -1])
    def test_zero_budget_poll_consumes_nothing(self, budget):
        broker = LogBroker()
        for i in range(3):
            broker.publish(_msg(i, host="a"))
        assert broker.partitions["a"].read_from(0, budget) == []
        taken = []
        fwd = FluentdForwarder(
            engine=EventEngine(), sink=lambda batch: taken.extend(batch) or True,
            broker=broker, consumer_group="g",
        )
        assert fwd.poll_broker(max_records=budget) == 0
        assert broker.groups["g"].positions == {}
        assert broker.stats.polled == 0
        # nothing was skipped: the next real poll starts at offset 0
        assert fwd.poll_broker() == 3
        fwd.drain()
        assert [m.timestamp for m in taken] == [100.0, 101.0, 102.0]
        assert broker.lag("g") == 0


# ---------------------------------------------------------------------------
# differential: the ready-set broker against the scan-everything one


class ScanAllBroker(LogBroker):
    """The brute-force oracle: every poll walks every assigned partition
    record by record, and lag is recomputed from scratch on each read.

    These are the bodies ``LogBroker`` had before it kept a ready set;
    none of them reads ``ready``, ``uncommitted`` or the running ``lag``.
    ``publish`` and ``commit`` are the one-message, one-partition bodies
    it had before they became one-item calls of ``publish_many`` and
    ``commit_many``: a lock, a clock read and the group bookkeeping per
    message.
    """

    def publish(self, message, *, key=None, ident=None, offset=None, ctx=None):
        key = key if key is not None else self.partitioner(message)
        with self._lock:
            if self.injector is not None and self.injector.should_fire(
                SITE_PARTITION_STALL
            ):
                if self._stalled is None:
                    self._stalled = key
                    self.stats.stall_events += 1
                    self._m_stalls.inc()
                else:
                    self._stalled = None
            if self._stalled == key:
                self.stats.publish_refused += 1
                self._m_refused.inc()
                return None
            part = self.partitions.get(key)
            if part is None:
                part = self.partitions[key] = Partition(
                    key, segment_records=self.segment_records
                )
                keys = self._keys
                born = bisect_left(keys, key)
                keys.insert(born, key)
                for i in range(born, len(keys)):
                    self._rank[keys[i]] = i
                self._m_partitions.set(len(self.partitions))
            pub_s = self._clock()
            if ctx is not None:
                ctx = record_hop(
                    ctx, "broker.publish", pub_s, partition=key
                )
            record = BrokerRecord(
                partition=key,
                offset=offset if offset is not None else part.next_offset,
                message=message,
                ident=ident,
                ctx=ctx,
                pub_s=pub_s,
            )
            end = part.next_offset
            part.append(record)
            grown = part.next_offset - end
            for g in self.groups.values():
                g.ready.add(key)
                # lag grows by what lands past the committed offset
                ahead = g.committed.get(key, 0) - end
                if ahead < grown:
                    g.lag += grown - ahead if ahead > 0 else grown
                    g.uncommitted.add(key)
            self.stats.published += 1
            self._pub_unsynced += 1
            if self._pub_unsynced >= 1024:
                self._m_published.inc(self._pub_unsynced)
                self._pub_unsynced = 0
            return record

    def commit(self, group, partition, offset):
        with self._lock:
            if self.injector is not None and self.injector.should_fire(
                SITE_COMMIT_LOST
            ):
                self.stats.commits_lost += 1
                self._m_commits_lost.inc()
                return False
            g = self._group(group)
            self._advance_committed(g, partition, offset)
            self.stats.commits += 1
            g.m_commits.inc()
            return True

    @staticmethod
    def _scan(part, offset, max_records):
        out = []
        if max_records <= 0:
            return out
        for segment in (*part._sealed, part._active):
            for rec in segment:
                if rec.offset >= offset:
                    out.append(rec)
                    if len(out) >= max_records:
                        return out
        return out

    def _assignment(self, group, member):
        g = self._group(group)
        rank, n = g.members.index(member), len(g.members)
        return [k for i, k in enumerate(sorted(self.partitions)) if i % n == rank]

    def poll(self, group, member="member-0", *, max_records=256):
        with self._lock:
            g = self._group(group)
            if member not in g.members:
                g.members.append(member)
                g.members.sort()
            if max_records <= 0:
                return []
            assigned = self._assignment(group, member)
            if not assigned:
                return []
            out = []
            n = len(assigned)
            for i in range(n):
                key = assigned[(g.rr_cursor + i) % n]
                if key == self._stalled:
                    continue
                pos = g.positions.get(key)
                if pos is None:
                    pos = g.positions[key] = g.committed.get(key, 0)
                recs = self._scan(self.partitions[key], pos, max_records - len(out))
                if recs:
                    out.extend(recs)
                    g.positions[key] = recs[-1].offset + 1
                if len(out) >= max_records:
                    break
            g.rr_cursor = (g.rr_cursor + 1) % max(n, 1)
            self.stats.polled += len(out)
            g.m_polled.inc(len(out))
            g.m_lag.set(self._lag(g))
            g.m_lag_age.set(self._lag_age(g))
            return out

    def _lag(self, g):
        return sum(
            max(0, p.next_offset - g.committed.get(key, 0))
            for key, p in self.partitions.items()
        )

    def _lag_age(self, g):
        now = self._clock()
        oldest = None
        for key, p in self.partitions.items():
            committed = g.committed.get(key, 0)
            if p.next_offset <= committed:
                continue
            head = self._scan(p, committed, 1)
            if head and (oldest is None or head[0].pub_s < oldest):
                oldest = head[0].pub_s
        return 0.0 if oldest is None else max(0.0, now - oldest)

    def lag(self, group):
        return self._lag(self._group(group))

    def describe(self):
        snap = super().describe()
        for name, g in self.groups.items():
            snap["groups"][name]["lag"] = self._lag(g)
        return snap


_HOSTS = ["cn01", "cn02", "cn03", "cn04", "cn05", "gpu1", "gpu2"]
_hosts = st.sampled_from(_HOSTS)
_groups = st.sampled_from(["early", "late"])  # see BrokerEquivalence.group
_members = st.sampled_from(["m0", "m1", "m2"])


@seed(SEED_SHIFT)
class BrokerEquivalence(RuleBasedStateMachine):
    """Drive both brokers with one operation stream; they must agree on
    everything a caller can see, after every step."""

    @initialize(
        plan_seed=st.integers(0, 3),
        stall_p=st.sampled_from([0.0, 0.1, 0.3]),
        lost_p=st.sampled_from([0.0, 0.2]),
        late_after=st.integers(0, 10),
    )
    def build(self, plan_seed, stall_p, lost_p, late_after):
        self.now = 1000.0
        self.late_after = late_after
        plan = {"seed": SEED_SHIFT + plan_seed, "sites": {
            "broker.partition_stall": {"probability": stall_p},
            "broker.commit_lost": {"probability": lost_p},
        }}
        self.registries = [MetricsRegistry(), MetricsRegistry()]
        self.real, self.oracle = (
            cls(
                segment_records=4,  # reads cross sealed segments early
                fault_injector=FaultInjector(FaultPlan.from_dict(plan)),
                registry=registry, clock=lambda: self.now,
            )
            for cls, registry in zip((LogBroker, ScanAllBroker), self.registries)
        )
        self.both(lambda b: b.subscribe("early", "m0"))
        self.n = 0

    def group(self, name):
        """"early" exists before any partition does; "late" is held back
        until ``late_after`` publishes, then created by whichever rule
        names it first — it must seed itself from what is already there."""
        return name if self.n >= self.late_after else "early"

    def both(self, call):
        got, want = call(self.real), call(self.oracle)
        assert got == want
        return got

    @rule(host=_hosts, gap=st.sampled_from([None, None, None, 0, 1, 5]))
    def publish(self, host, gap):
        """Dense (``None``) or explicit, possibly sparse, offsets."""
        self.n += 1
        part = self.real.partitions.get(host)
        offset = None if gap is None else gap + (part.next_offset if part else 0)

        def call(broker):
            rec = broker.publish(_msg(self.n, host=host), offset=offset)
            return rec and (rec.partition, rec.offset, rec.pub_s)

        self.both(call)

    @rule(batch=st.lists(
        st.tuples(_hosts, st.sampled_from([None, None, 0, 2])), min_size=0, max_size=9
    ))
    def publish_many(self, batch):
        """One ``publish_many`` against a loop of the oracle's
        per-message ``publish``: same records, same refusals, same
        stall checks, in order."""
        ahead = {h: p.next_offset for h, p in self.real.partitions.items()}
        messages, offsets = [], []
        for host, gap in batch:
            self.n += 1
            messages.append(_msg(self.n, host=host))
            # at or past the partition's end whether or not earlier
            # members of the batch land: sparse, never rewinding
            offsets.append(None if gap is None else ahead.get(host, 0) + gap)
            ahead[host] = ahead.get(host, 0) + (1 if gap is None else gap + 1)
        idents = list(range(self.n - len(batch), self.n))

        def call(broker):
            if broker is self.real:
                records = broker.publish_many(messages, idents=idents, offsets=offsets)
            else:
                records = [
                    broker.publish(m, ident=i, offset=o)
                    for m, i, o in zip(messages, idents, offsets)
                ]
            return [r and (r.partition, r.offset, r.ident, r.pub_s) for r in records]

        self.both(call)

    @rule(group=_groups, offsets=st.dictionaries(_hosts, st.integers(0, 30), max_size=5))
    def commit_many(self, group, offsets):
        """One ``commit_many`` against a loop of per-partition commits."""
        group = self.group(group)

        def call(broker):
            if broker is self.real:
                return broker.commit_many(group, offsets)
            return sum(broker.commit(group, p, o) for p, o in offsets.items())

        self.both(call)

    @rule(group=_groups, member=_members, budget=st.sampled_from([0, 1, 3, 256]))
    def poll(self, group, member, budget):
        group = self.group(group)
        self.both(lambda b: [
            (r.partition, r.offset, r.message.timestamp)
            for r in b.poll(group, member, max_records=budget)
        ])

    @rule(group=_groups, host=_hosts, offset=st.integers(0, 30))
    def commit(self, group, host, offset):
        """Anything from stale to far past the partition's end."""
        group = self.group(group)
        self.both(lambda b: b.commit(group, host, offset))

    @rule(group=_groups)
    def commit_polled(self, group):
        """What a consumer does: commit every live cursor."""
        group = self.group(group)
        g = self.real.groups.get(group)
        for host, position in sorted(g.positions.items()) if g else ():
            self.both(lambda b: b.commit(group, host, position))

    @rule(group=_groups, offsets=st.dictionaries(_hosts, st.integers(0, 30), max_size=4))
    def restore_offsets(self, group, offsets):
        group = self.group(group)
        self.both(lambda b: b.restore_offsets(group, offsets))

    @rule(group=_groups)
    def reset_to_committed(self, group):
        group = self.group(group)
        self.both(lambda b: b.reset_to_committed(group))

    @rule(dt=st.sampled_from([0.0, 0.25, 3.0]))
    def tick(self, dt):
        self.now += dt

    @invariant()
    def indistinguishable(self):
        real, oracle = self.real, self.oracle
        assert real.describe() == oracle.describe()
        assert real.stalled_partition == oracle.stalled_partition
        assert list(real.groups) == list(oracle.groups)
        for name, g in real.groups.items():
            o = oracle.groups[name]
            assert (g.positions, g.committed, g.members, g.rr_cursor) == (
                o.positions, o.committed, o.members, o.rr_cursor)
            assert real.lag(name) == oracle.lag(name)
            # the derived sets themselves: exact, and never missing work
            parts = real.partitions
            assert g.uncommitted == {
                k for k, p in parts.items() if p.next_offset > g.committed.get(k, 0)
            }
            assert g.ready >= {
                k for k, p in parts.items()
                if p.next_offset > g.positions.get(k, -1)
            }
            assert real.lag_age(name) == oracle.lag_age(name)
            for member in g.members:
                assert real.assignment(name, member) == oracle.assignment(name, member)
            for family in (
                wellknown.broker_lag, wellknown.broker_lag_age_seconds,
                wellknown.broker_polled, wellknown.broker_commits,
            ):
                mine, theirs = (family(r).value(group=name) for r in self.registries)
                assert mine == theirs, family.__name__


class TestBrokerEquivalence:
    def test_matches_scan_all_oracle(self):
        run_state_machine_as_test(
            BrokerEquivalence,
            settings=settings(max_examples=150, stateful_step_count=60),
        )


# ---------------------------------------------------------------------------
# the listener


def _run(coro):
    return asyncio.run(coro)


class TestSyslogListener:
    def test_loopback_udp_tcp_mixed_formats(self):
        broker = LogBroker()

        async def scenario():
            listener = SyslogListener(broker)
            await listener.start()
            events = standard_simulation_events(
                duration_s=10, background_rate=30, seed=2
            )
            lines = wire_lines([e.message for e in events])
            half = len(lines) // 2
            send_udp(listener.udp_address, lines[:half])
            send_tcp(listener.tcp_address, lines[half:])
            deadline = asyncio.get_running_loop().time() + 10.0
            while listener.stats.received < len(lines):
                await asyncio.sleep(0.01)
                assert asyncio.get_running_loop().time() < deadline, \
                    f"only {listener.stats.received}/{len(lines)} arrived"
            await listener.stop()
            return listener, len(lines)

        listener, n = _run(scenario())
        assert listener.stats.accepted == n
        assert listener.stats.accounted()
        assert broker.stats.published == n
        broker.subscribe("g", "m0")
        polled = broker.poll("g", "m0", max_records=n + 1)
        assert len(polled) == n

    def test_hostile_lines_quarantined_not_raised(self):
        broker = LogBroker()

        async def scenario():
            listener = SyslogListener(broker, tcp_port=None)
            await listener.start()
            hostile = [
                b"",  # ignored by framing on tcp; udp counts it
                b"\x00\xff\xfe garbage",
                b"<999>bogus pri",
                b"<34>Oct 32 99:99:99 bad timestamp",
                "<34>1 2023-13-45T99:00:00Z h a - - - bad".encode(),
                b"<34>" + b"\xe2\x82" ,  # truncated UTF-8
                b"x" * 9001,  # oversize
            ]
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for line in hostile:
                sock.sendto(line, listener.udp_address)
            sock.close()
            deadline = asyncio.get_running_loop().time() + 5.0
            while listener.stats.received < len(hostile):
                await asyncio.sleep(0.01)
                if asyncio.get_running_loop().time() >= deadline:
                    break
            await listener.stop()
            return listener

        listener = _run(scenario())
        s = listener.stats
        assert s.accepted == 0
        assert s.oversize >= 1
        assert s.parse_errors >= 1
        assert s.accounted()
        assert len(listener.dead_letters) == s.oversize + s.parse_errors

    def test_rate_limit_sheds_not_blocks(self):
        async def scenario():
            # zero refill in practice: burst of 5, then everything sheds
            listener = SyslogListener(
                None, tcp_port=None, tenant_quota=DeficitRoundRobin(0.001, 5),
            )
            await listener.start()
            for i in range(50):
                listener._handle_line(_msg(i).to_rfc5424().encode(), udp=True)
            await listener.stop()
            return listener

        listener = _run(scenario())
        assert listener.stats.accepted == 5
        assert listener.stats.shed == 45
        assert listener.stats.accounted()

    def test_accept_drop_fault_site(self):
        plan = FaultPlan.from_dict({
            "seed": 0, "sites": {"ingest.accept_drop": {"at_calls": [1, 3]}},
        })

        async def scenario():
            listener = SyslogListener(
                None, tcp_port=None, fault_injector=FaultInjector(plan),
            )
            await listener.start()
            for i in range(4):
                listener._handle_line(_msg(i).to_rfc5424().encode(), udp=True)
            await listener.stop()
            return listener

        listener = _run(scenario())
        assert listener.stats.accept_dropped == 2
        assert listener.stats.accepted == 2
        assert listener.stats.accounted()

    @pytest.mark.parametrize("udp", [True, False])
    def test_a_refused_publish_is_counted_once(self, udp, _fresh_registry):
        """Three lines whose partition the broker's first stall check
        stalls: each lands in ``publish_refused`` and the DLQ, none in
        ``accepted`` — the bins sum back to ``received`` (each used to
        be counted in both), per datagram and per TCP chunk alike."""
        plan = FaultPlan.from_dict({
            "seed": 0, "sites": {"broker.partition_stall": {"at_calls": [1]}},
        })
        broker = LogBroker(fault_injector=FaultInjector(plan))
        listener = SyslogListener(broker, udp_port=None, tcp_port=None)
        lines = [_msg(i).to_rfc5424().encode() for i in range(3)]
        if udp:
            for line in lines:
                listener._handle_line(line, udp=True)
        else:
            stream = b"\n".join(lines) + b"\n"
            _run(listener._serve_tcp(_ChunkedReader(stream, len(stream)), _NullWriter()))
        listener.sync_metrics()
        s = listener.stats
        assert (s.received, s.accepted, s.publish_refused) == (3, 0, 3)
        assert s.accounted()
        assert wellknown.ingest_accepted(_fresh_registry).value() == 0
        assert wellknown.ingest_publish_refused(_fresh_registry).value() == 3
        assert [d.error for d in listener.dead_letters] == ["broker partition stalled"] * 3

    def test_metrics_synced_to_registry(self, _fresh_registry):
        async def scenario():
            listener = SyslogListener(None, tcp_port=None)
            await listener.start()
            for i in range(7):
                listener._handle_line(_msg(i).to_rfc5424().encode(), udp=True)
            listener._handle_line(b"garbage!!!", udp=True)
            await listener.stop()

        _run(scenario())
        snap = _fresh_registry.snapshot()
        series = {
            (m["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for m in snap["metrics"]
            for s in m["samples"]
        }
        assert series[("repro_ingest_received_total", (("proto", "udp"),))] == 8
        assert series[("repro_ingest_accepted_total", ())] == 7
        assert series[("repro_ingest_parse_errors_total", ())] == 1


# ---------------------------------------------------------------------------
# differential: one split per chunk against the slice-per-line framing


class SlicePerLineListener(SyslogListener):
    """``_serve_tcp`` as it was: the buffer re-sliced once per line."""

    async def _serve_tcp(self, reader, writer):
        buf = b""
        skipping = False
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                buf += chunk
                while True:
                    nl = buf.find(b"\n")
                    if nl < 0:
                        if skipping:
                            buf = b""
                        elif len(buf) > self.max_line_bytes:
                            self._handle_line(buf, udp=False)  # counted oversize
                            buf = b""
                            skipping = True
                        break
                    line, buf = buf[:nl], buf[nl + 1:]
                    if skipping:
                        skipping = False
                        continue
                    if line:
                        self._handle_line(line, udp=False)
            if buf and not skipping:
                self._handle_line(buf, udp=False)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()


class _ChunkedReader:
    """``StreamReader.read`` that hands out ``size`` bytes at a time."""

    def __init__(self, data: bytes, size: int) -> None:
        self.data, self.size, self.pos = data, size, 0

    async def read(self, _n):
        chunk = self.data[self.pos:self.pos + self.size]
        self.pos += len(chunk)
        return chunk


class _NullWriter:
    def close(self):
        pass


def _framing_stream(cap: int, *, unterminated: bool) -> bytes:
    """Valid, blank and oversize lines; one oversize line that a reader
    sees grow past the cap long before its newline; an oversize line
    directly after another; and (optionally) no final newline."""
    valid = [_msg(i, host=f"cn{i % 5:02d}").to_rfc5424().encode() for i in range(40)]
    parts = valid[:10] + [b"", b""] + [b"x" * (cap + 1)] + valid[10:20]
    parts += [b"<13>" + b"y" * (5 * cap)] + [b"z" * (cap + 7)] + [b""]
    parts += valid[20:30] + [b"not a syslog line", b"w" * cap] + valid[30:]
    stream = b"\n".join(parts)
    return stream if unterminated else stream + b"\n"


class TestTcpFraming:
    CAP = 300

    def _serve(self, cls, stream: bytes, chunk: int):
        broker = LogBroker(registry=MetricsRegistry())
        listener = cls(broker, udp_port=None, tcp_port=None, max_line_bytes=self.CAP)
        _run(listener._serve_tcp(_ChunkedReader(stream, chunk), _NullWriter()))
        broker.subscribe("g", "m0")
        published = [
            (r.partition, r.offset, r.message)
            for r in broker.poll("g", "m0", max_records=1000)
        ]
        dead = [(d.site, d.payload, d.error) for d in listener.dead_letters]
        return listener.stats, dead, published

    @pytest.mark.parametrize("unterminated", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 4096, 65536])
    def test_split_per_chunk_equals_slice_per_line(self, chunk, unterminated):
        stream = _framing_stream(self.CAP, unterminated=unterminated)
        stats, dead, published = self._serve(SyslogListener, stream, chunk)
        want_stats, want_dead, want_published = self._serve(
            SlicePerLineListener, stream, chunk
        )
        assert stats == want_stats and stats.accounted()
        assert dead == want_dead
        assert published == want_published
        # and the stream did exercise every branch
        assert stats.accepted == 40 and stats.parse_errors == 2
        assert stats.oversize == 3

    def test_trace_ordinals_are_the_per_line_ones(self):
        """Sampling keys on the ordinal of lines past the quota, so a
        stream published a chunk at a time traces the lines the per-line
        path traces, under the same trace ids."""
        stream = _framing_stream(self.CAP, unterminated=False)
        traced = []
        for cls in (SyslogListener, SlicePerLineListener):
            sampler = TraceSampler(
                0.25, seed=SEED_SHIFT, tracer=Tracer(), registry=MetricsRegistry()
            )
            broker = LogBroker(registry=MetricsRegistry())
            listener = cls(
                broker, udp_port=None, tcp_port=None, max_line_bytes=self.CAP,
                trace_sampler=sampler,
            )
            _run(listener._serve_tcp(_ChunkedReader(stream, 4096), _NullWriter()))
            broker.subscribe("g", "m0")
            traced.append({
                r.message.timestamp: r.ctx and r.ctx.trace_id
                for r in broker.poll("g", "m0", max_records=1000)
            })
        # the k-th valid line of the stream is _msg(k - 1)
        want = {
            100.0 + k - 1: sampler.trace_id(k) if sampler.sample(k) else None
            for k in range(1, 41)
        }
        assert traced[0] == traced[1] == want
        assert any(want.values())

    def test_oversize_reason_depends_on_when_the_cap_is_crossed(self):
        """The reference's own behaviour, pinned so the equality above
        is not vacuous: a byte-at-a-time reader quarantines an oversize
        line the moment it outgrows the cap, a whole-stream reader only
        at its newline — the same count, a different length on record."""
        stream = _framing_stream(self.CAP, unterminated=False)
        by_byte = self._serve(SyslogListener, stream, 1)[1]
        at_once = self._serve(SyslogListener, stream, 65536)[1]
        assert len(by_byte) == len(at_once)
        assert f"oversize: {self.CAP + 1} bytes" in by_byte[1][2]
        assert f"oversize: {5 * self.CAP + 4} bytes" in at_once[1][2]


# ---------------------------------------------------------------------------
# the broker-spine simulation


def _mk_cluster(**kw):
    kw.setdefault("flush_interval_s", 0.5)
    kw.setdefault("batch_size", 500)
    cluster = TivanCluster(**kw)
    cluster.attach_classifier(ClassifierStage(service_time_s=0.001, batch_size=64))
    return cluster


class TestBrokerSpineSimulation:
    def test_validation(self):
        """Fan-out is free on a volatile run; a durable one keeps the
        per-host layout and one consumer.  The refusal comes before the
        journal is used, so any object stands in for it."""
        assert len(TivanCluster(broker_partitions=4, n_consumers=2).consumers) == 2
        with pytest.raises(ValueError, match="n_consumers must be >= 1"):
            TivanCluster(n_consumers=0)
        with pytest.raises(ValueError, match="incompatible with journal"):
            TivanCluster(broker_partitions=4, journal=object())
        with pytest.raises(ValueError, match="exactly one consumer"):
            TivanCluster(n_consumers=2, journal=object())

    def test_reproduces_the_frozen_push_mode_outputs(self):
        """Four ``SimConfig`` runs and three experiments give what the
        push intake gave: report counts, backlog timelines and a
        ``repr`` digest of each experiment's result."""
        from repro.durability import SimConfig, build_cluster, run_to_completion
        from repro.experiments.correlationexp import run_correlation_experiment
        from repro.experiments.monitoringexp import run_monitoring_experiment
        from repro.experiments.throughput import run_throughput_sweep

        frozen = json.loads(PUSH_MODE_OUTPUTS.read_text())
        for name, case in frozen["configs"].items():
            config = SimConfig(**case["config"])
            with use_registry(MetricsRegistry()):
                cluster = build_cluster(config)
                cluster.load_events(config.events())
                report, _ = run_to_completion(cluster, config)
            assert [getattr(report, f) for f in frozen["report_fields"]] == case["report"], name
            assert [list(s) for s in report.backlog_timeline] == case["backlog_timeline"], name
        runners = {
            "monitoring": run_monitoring_experiment,
            "correlation": run_correlation_experiment,
            "throughput_sweep": run_throughput_sweep,
        }
        for name, case in frozen["experiments"].items():
            kwargs = {
                k: tuple(v) if isinstance(v, list) else v for k, v in case["kwargs"].items()
            }
            with use_registry(MetricsRegistry()):
                result = runners[name](**kwargs)
            assert hashlib.sha256(repr(result).encode()).hexdigest() == case["repr_sha256"], name

    def test_hashed_partitions_and_consumer_fleet(self):
        events = standard_simulation_events(
            duration_s=60, background_rate=40, seed=8
        )
        cluster = _mk_cluster(broker_partitions=4, n_consumers=3)
        cluster.load_events(events)
        report = cluster.run(60)
        assert report.broker_partitions <= 4
        assert report.indexed + report.drained == len(events)
        assert report.broker_lag == 0
        # every member took a share of the partitions
        groups = cluster.broker.describe()["groups"]["fluentd"]
        assert len(groups["members"]) == 3

    def test_partition_stall_surfaces_as_refusals(self):
        plan = FaultPlan.from_dict({
            "seed": 1,
            "sites": {"broker.partition_stall": {"at_calls": [50, 200]}},
        })
        events = standard_simulation_events(
            duration_s=60, background_rate=40, seed=9
        )
        cluster = _mk_cluster(fault_injector=FaultInjector(plan))
        cluster.load_events(events)
        report = cluster.run(60)
        assert report.broker_partition_stalls == 1
        assert report.broker_publish_refused > 0
        assert report.relay_dropped == report.broker_publish_refused
        # everything that made it into the log is delivered
        assert report.indexed + report.drained \
            == len(events) - report.broker_publish_refused

    def test_commit_lost_is_at_least_once_never_lost(self):
        plan = FaultPlan.from_dict({
            "seed": 2,
            "sites": {"broker.commit_lost": {"probability": 0.5}},
        })
        events = standard_simulation_events(
            duration_s=60, background_rate=40, seed=10
        )
        cluster = _mk_cluster(fault_injector=FaultInjector(plan))
        cluster.load_events(events)
        report = cluster.run(60)
        assert report.broker_commits_lost > 0
        # live positions shield a running consumer from lost commits:
        # nothing is lost and nothing re-delivered within one process
        assert report.indexed + report.drained == len(events)


# ---------------------------------------------------------------------------
# durable broker runs: the zero-loss crash bar


class TestDurableBrokerCrash:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_sigkill_resume_conserves_all_messages(self, tmp_path, seed):
        """SIGKILL mid-stream, resume from committed offsets: zero acked
        messages lost, zero duplicated past the journal barrier."""
        from repro.durability.harness import crash_recovery_scenario
        from repro.durability.recovery import SimConfig

        config = SimConfig(
            duration_s=60, rate=40, seed=seed, incident=True,
            checkpoint_every_s=10.0,
        )
        report = crash_recovery_scenario(
            tmp_path, config, kill_points=[25 + seed, 60, 110]
        )
        c = report["conservation"]
        assert c["lost"] == 0
        assert c["duplicated"] == 0
        assert c["indexed"] + c["dead_lettered"] + c["rejected"] \
            + c["in_buffer"] == c["produced"]

    def test_sigkill_with_broker_faults_armed(self, tmp_path):
        """A crash *plus* lost commits and a partition stall: the journal
        remains the durable truth and conservation still holds."""
        import subprocess
        import sys

        import repro
        from repro.durability.harness import REPORT_FILENAME, run_child
        from repro.durability.recovery import SimConfig
        from repro.faults.plan import SITE_CRASH

        seed = SEED_SHIFT
        config = SimConfig(
            duration_s=60, rate=40, seed=seed, incident=True,
            checkpoint_every_s=10.0,
        )
        config.save(tmp_path)
        # child 1: broker faults armed AND a SIGKILL at record 40
        plan_path = tmp_path / "crash-plan.json"
        plan_path.write_text(json.dumps({
            "seed": seed,
            "sites": {
                SITE_CRASH: {"at_calls": [40]},
                "broker.commit_lost": {"probability": 0.3},
                "broker.partition_stall": {"at_calls": [30, 90]},
            },
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) \
            + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-m", "repro.durability.harness", str(tmp_path),
             "--crash-plan", str(plan_path)],
            env=env, timeout=300, capture_output=True, text=True,
        )
        final = run_child(tmp_path, timeout=300)
        assert final.returncode == 0, final.stdout + final.stderr
        report = json.loads((tmp_path / REPORT_FILENAME).read_text())
        c = report["conservation"]
        assert c["lost"] == 0
        assert c["duplicated"] == 0
