"""Replicated-store suite: quorum semantics, failover, anti-entropy.

Three layers of assurance:

1. **Unit invariants** — placement math, circuit-breaker transitions,
   node promote/demote, bounded hint buffers, bounded DLQ.
2. **Property tests** — over (N, W, R): ``W + R > copies`` implies
   read-your-writes through any single node kill; ``W <=`` reachable
   owners implies the write acks; a minority partition refuses writes.
3. **Chaos scenarios** — seed-shiftable (``REPRO_CHAOS_SEED``) node
   kill/rejoin churn mid-simulation: zero acknowledged writes lost,
   quorum reads serve through the failure, and anti-entropy converges
   every node to identical per-shard seq digests after rejoin.
"""

import os

import pytest
from broker_feed import feed, fed_forwarder
from hypothesis import given, strategies as st

from repro.core.message import SyslogMessage
from repro.core.taxonomy import Category
from repro.faults import (
    SITE_NODE_DOWN,
    SITE_NODE_SLOW,
    SITE_PARTITION,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.obs import MetricsRegistry, use_registry, wellknown
from repro.replication import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    NodeDownError,
    QuorumError,
    ReplicatedLogStore,
    ShardPlacement,
    StoreNode,
)
from repro.stream.opensearch import LogStore
from repro.stream.tivan import ClassifierStage, TivanCluster


#: the CI replication-chaos job shifts this for the seed matrix
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]


@pytest.fixture(autouse=True)
def _fresh_registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


def _messages(n, seed=0):
    return [
        SyslogMessage(timestamp=float(i), hostname=f"cn{(seed + i) % 5:03d}",
                      app="kernel", text=f"seed {seed} replicated message {i}")
        for i in range(n)
    ]


def _digests_converged(store):
    """Every owner of every shard holds the same per-shard digest."""
    digs = store.seq_digests()
    for shard in range(store.n_shards):
        vals = {
            digs[nid][shard]
            for nid in digs
            if shard in digs[nid]
        }
        if len(vals) > 1:
            return False
    return True


# -- placement -------------------------------------------------------------


class TestPlacement:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_nodes"):
            ShardPlacement(n_nodes=0)
        with pytest.raises(ValueError, match="n_shards"):
            ShardPlacement(n_nodes=3, n_shards=0)
        with pytest.raises(ValueError, match="n_replicas"):
            ShardPlacement(n_nodes=3, n_replicas=3)

    def test_owners_are_distinct_ring_neighbours(self):
        p = ShardPlacement(n_nodes=5, n_shards=6, n_replicas=2)
        for shard in range(6):
            owners = p.owners(shard)
            assert len(owners) == 3 == p.copies
            assert len(set(owners)) == 3
            assert owners[0] == p.primary_of(shard) == shard % 5

    def test_balanced_load(self):
        # 6 shards over 6 nodes with 1 replica: every node owns exactly
        # 2 shards (1 primary + 1 replica), like the paper's deployment
        p = ShardPlacement(n_nodes=6, n_shards=6, n_replicas=1)
        for node in range(6):
            assert len(p.shards_owned_by(node)) == 2

    def test_shard_of_routes_by_modulo(self):
        p = ShardPlacement(n_nodes=3, n_shards=4)
        assert [p.shard_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


# -- circuit breaker -------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_open_after_threshold(self):
        b = CircuitBreaker(failure_threshold=3, reset_timeout=100.0)
        for _ in range(2):
            assert b.allow()
            b.record_failure()
        assert b.state == BREAKER_CLOSED
        assert b.allow()
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert not b.allow()

    def test_half_open_probe_recovers(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0,
                           clock=lambda: now[0])
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert not b.allow()
        now[0] = 11.0
        assert b.allow()  # the probe
        assert b.state == BREAKER_HALF_OPEN
        assert not b.allow()  # only one probe in flight
        b.record_success()
        assert b.state == BREAKER_CLOSED
        assert b.allow()

    def test_half_open_failure_reopens(self):
        now = [0.0]
        b = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                           clock=lambda: now[0])
        b.record_failure()
        now[0] = 6.0
        assert b.allow()
        b.record_failure()
        assert b.state == BREAKER_OPEN
        # timeout restarts from the re-open
        now[0] = 10.0
        assert not b.allow()
        now[0] = 11.5
        assert b.allow()

    def test_internal_clock_reprobes_after_refusals(self):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=3.0)
        b.allow()
        b.record_failure()
        refused = 0
        for _ in range(10):
            if b.allow():
                break
            refused += 1
        assert b.state == BREAKER_HALF_OPEN
        assert refused >= 2

    def test_transition_hook(self):
        seen = []
        b = CircuitBreaker(failure_threshold=1,
                           on_transition=lambda a, z: seen.append((a, z)))
        b.record_failure()
        b.record_success()
        assert seen == [(BREAKER_CLOSED, BREAKER_OPEN),
                        (BREAKER_OPEN, BREAKER_CLOSED)]

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            CircuitBreaker(reset_timeout=-1.0)


# -- store node ------------------------------------------------------------


class TestStoreNode:
    def test_down_node_raises(self):
        node = StoreNode(0, n_shards=2)
        node.kill()
        with pytest.raises(NodeDownError):
            node.put(0, _messages(1)[0], None, 1)
        with pytest.raises(NodeDownError):
            node.get(0)

    def test_put_is_idempotent_and_monotone(self):
        node = StoreNode(0, n_shards=2)
        msg = _messages(1)[0]
        assert node.put(0, msg, None, 1)
        assert not node.put(0, msg, None, 1)  # same version: no-op
        assert node.put(0, msg, Category.UNIMPORTANT, 2)
        assert not node.put(0, msg, None, 1)  # stale: refused
        assert node.get(0).category is Category.UNIMPORTANT

    def test_kill_wipes_state(self):
        node = StoreNode(0, n_shards=2)
        node.put(0, _messages(1)[0], None, 1)
        node.kill(wipe=True)
        node.restart()
        assert len(node) == 0
        assert node.get(0) is None

    def test_promote_builds_search_index_from_replica_map(self):
        node = StoreNode(0, n_shards=2)
        msgs = _messages(6)
        for i, m in enumerate(msgs):
            node.put(i, m, None, 1)
        assert len(node.search_index) == 0  # replica: no index yet
        indexed = node.promote(0)
        assert indexed == 3  # docs 0, 2, 4
        hits = node.search_index.term_query("replicated")
        assert {node._local_gids[d.doc_id] for d in hits.docs} == {0, 2, 4}

    def test_seq_digest_detects_divergence(self):
        a, b = StoreNode(0, n_shards=1), StoreNode(1, n_shards=1)
        msgs = _messages(3)
        for i, m in enumerate(msgs):
            a.put(i, m, None, 1)
            b.put(i, m, None, 1)
        assert a.seq_digest(0) == b.seq_digest(0)
        b.apply_category(1, Category.UNIMPORTANT, 2)
        assert a.seq_digest(0) != b.seq_digest(0)


# -- coordinator basics ----------------------------------------------------


class TestReplicatedStoreBasics:
    def test_quorum_validation(self):
        with pytest.raises(ValueError, match="write_quorum"):
            ReplicatedLogStore(n_nodes=3, n_replicas=1, write_quorum=3)
        with pytest.raises(ValueError, match="read_quorum"):
            ReplicatedLogStore(n_nodes=3, n_replicas=1, read_quorum=0)

    def test_write_read_roundtrip(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        msgs = _messages(30)
        assert store.bulk_index(msgs)
        assert len(store) == 30
        for i in (0, 13, 29):
            assert store.get(i).message.text == msgs[i].text
        with pytest.raises(IndexError):
            store.get(30)

    def test_every_copy_lands_on_every_owner(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(24))
        for node in store.nodes:
            assert len(node) == 24  # RF == n_nodes: full copies

    def test_set_category_versions_propagate(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(6))
        store.set_category(2, Category.THERMAL)
        for node in store.nodes:
            assert node.copy_of(2).version == 2
            assert node.copy_of(2).category is Category.THERMAL

    def test_queries_match_bare_logstore(self):
        msgs = _messages(40)
        bare = LogStore(n_shards=6)
        bare.bulk_index(msgs)
        repl = ReplicatedLogStore(n_nodes=3, n_shards=6, n_replicas=1)
        repl.bulk_index(msgs)
        for i in (0, 7):
            bare.set_category(i, Category.UNIMPORTANT)
            repl.set_category(i, Category.UNIMPORTANT)
        assert (
            {d.doc_id for d in repl.term_query("replicated").docs}
            == {d.doc_id for d in bare.term_query("replicated").docs}
        )
        assert repl.severity_histogram() == bare.severity_histogram()
        assert repl.terms_aggregation("hostname") == bare.terms_aggregation("hostname")
        assert repl.terms_aggregation("category") == bare.terms_aggregation("category")
        assert repl.date_histogram(interval_s=10.0) == bare.date_histogram(interval_s=10.0)
        assert sum(repl.shard_counts()) == sum(bare.shard_counts()) == 40

    def test_iter_documents_is_doc_id_ordered(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=1)
        store.bulk_index(_messages(12))
        ids = [d.doc_id for d in store.iter_documents()]
        assert ids == list(range(12))
        store.kill_node(0)
        ids = [d.doc_id for d in store.iter_documents()]
        assert ids == list(range(12))  # served from surviving owners


# -- failover / read repair / hints ----------------------------------------


class TestFailover:
    def test_reads_survive_one_kill(self):
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2
        )
        msgs = _messages(30)
        store.bulk_index(msgs)
        store.kill_node(1)
        for i in range(30):
            assert store.get(i).message.text == msgs[i].text

    def test_writes_below_quorum_fail_fast_and_clean(self):
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2
        )
        store.bulk_index(_messages(10))
        store.kill_node(0)
        store.kill_node(1)
        with pytest.raises(QuorumError, match="write quorum"):
            store.bulk_index(_messages(5, seed=1))
        # nothing half-acknowledged: the length and every node agree
        assert len(store) == 10
        assert len(store.nodes[2]) == 10

    def test_read_repair_fixes_stale_copy(self, _fresh_registry):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(6))
        # simulate a divergent copy: node 2 missed the category update
        store.nodes[0].apply_category(1, Category.THERMAL, 2)
        store.nodes[1].apply_category(1, Category.THERMAL, 2)
        store._versions[1] = 2
        assert store.nodes[2].copy_of(1).version == 1
        doc = store.get(1)
        assert doc.category is Category.THERMAL
        assert store.nodes[2].copy_of(1).version == 2  # repaired
        repaired = _fresh_registry.get("repro_store_read_repairs_total").value()
        assert repaired >= 1

    def test_hinted_handoff_replays_on_restart(self, _fresh_registry):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(6))
        store.kill_node(2)
        store.bulk_index(_messages(12, seed=1))
        assert store.hints_pending > 0
        store.restart_node(2)
        assert store.hints_pending == 0
        assert len(store.nodes[2]) == 18
        assert _digests_converged(store)
        m = _fresh_registry.get("repro_store_hints_replayed_total")
        assert m.value() > 0

    def test_hint_buffer_is_bounded(self, _fresh_registry):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2, hint_limit=5)
        store.bulk_index(_messages(3))
        store.kill_node(2)
        store.bulk_index(_messages(20, seed=1))
        assert len(store._hints[2]) == 5
        dropped = _fresh_registry.get("repro_store_hints_dropped_total")
        assert dropped.value() > 0
        # anti-entropy still fully repairs the node despite dropped hints
        store.restart_node(2)
        assert len(store.nodes[2]) == 23
        assert _digests_converged(store)

    def test_anti_entropy_reconverges_wiped_node(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(30))
        store.set_category(4, Category.THERMAL)
        store.kill_node(1, wipe=True)
        store.bulk_index(_messages(12, seed=1))
        store.set_category(33, Category.MEMORY)
        assert len(store.nodes[1]) == 0
        store.restart_node(1)
        assert len(store.nodes[1]) == 42
        assert store.nodes[1].copy_of(4).category is Category.THERMAL
        assert store.nodes[1].copy_of(33).category is Category.MEMORY
        assert _digests_converged(store)

    def test_sync_all_noop_when_converged(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(18))
        assert store.sync_all() == 0

    def test_promotion_serves_queries_after_primary_death(self):
        store = ReplicatedLogStore(n_nodes=3, n_shards=6, n_replicas=2)
        msgs = _messages(30)
        store.bulk_index(msgs)
        before = {d.doc_id for d in store.term_query("replicated").docs}
        store.kill_node(0)  # primary of shards 0 and 3
        after = {d.doc_id for d in store.term_query("replicated").docs}
        assert after == before == set(range(30))

    def test_node_health_reports_breaker_and_ownership(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=1)
        store.bulk_index(_messages(6))
        store.kill_node(2)
        rows = store.node_health()
        assert [r["up"] for r in rows] == [True, True, False]
        assert all(r["breaker"] in (
            BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN
        ) for r in rows)
        # dead node's primary shards were taken over
        owned = set()
        for r in rows[:2]:
            owned |= set(r["primary_shards"])
        assert owned == set(range(6))


# -- partitions ------------------------------------------------------------


class TestPartitions:
    def test_minority_side_refuses_writes(self):
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2
        )
        store.bulk_index(_messages(10))
        # model the coordinator stuck with the minority: only node 0
        store.set_partition({0})
        with pytest.raises(QuorumError, match="write quorum"):
            store.bulk_index(_messages(5, seed=1))
        with pytest.raises(QuorumError, match="read quorum"):
            store.get(0)
        assert len(store) == 10

    def test_majority_side_keeps_serving(self):
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2
        )
        msgs = _messages(10)
        store.bulk_index(msgs)
        store.set_partition({0, 1})
        assert store.bulk_index(_messages(5, seed=1))
        assert store.get(3).message.text == msgs[3].text

    def test_heal_reconverges_isolated_node(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.bulk_index(_messages(10))
        store.set_partition({0, 1})
        store.bulk_index(_messages(8, seed=1))
        assert len(store.nodes[2]) == 10  # missed the second batch
        store.heal_partition()
        assert len(store.nodes[2]) == 18
        assert _digests_converged(store)


# -- property tests over (N, W, R) -----------------------------------------


@st.composite
def quorum_configs(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=5))
    n_replicas = draw(st.integers(min_value=1, max_value=n_nodes - 1))
    copies = n_replicas + 1
    w = draw(st.integers(min_value=1, max_value=copies))
    r = draw(st.integers(min_value=1, max_value=copies))
    return n_nodes, n_replicas, w, r


class TestQuorumProperties:
    @given(cfg=quorum_configs(), kill=st.integers(min_value=0, max_value=4))
    def test_w_plus_r_over_copies_gives_read_your_writes(self, cfg, kill):
        """W + R > copies ⇒ every acked write is readable through any
        single node failure that leaves both quorums reachable."""
        n_nodes, n_replicas, w, r = cfg
        copies = n_replicas + 1
        if w + r <= copies:
            return  # property only claimed for overlapping quorums
        store = ReplicatedLogStore(
            n_nodes=n_nodes, n_replicas=n_replicas,
            write_quorum=w, read_quorum=r,
        )
        msgs = _messages(12)
        store.bulk_index(msgs)
        store.kill_node(kill % n_nodes)
        for i in range(12):
            try:
                doc = store.get(i)
            except QuorumError:
                continue  # R itself unreachable: no read served, none wrong
            assert doc.message.text == msgs[i].text

    @given(cfg=quorum_configs())
    def test_w_at_most_healthy_owners_acks(self, cfg):
        """Writes ack iff every shard keeps >= W reachable owners."""
        n_nodes, n_replicas, w, r = cfg
        store = ReplicatedLogStore(
            n_nodes=n_nodes, n_replicas=n_replicas,
            write_quorum=w, read_quorum=r,
        )
        store.kill_node(0)
        live = set(range(1, n_nodes))
        min_live_owners = min(
            sum(1 for o in store.placement.owners(s) if o in live)
            for s in range(store.n_shards)
        )
        if min_live_owners >= w:
            assert store.bulk_index(_messages(12))
            assert len(store) == 12
        else:
            with pytest.raises(QuorumError):
                store.bulk_index(_messages(12))
            assert len(store) == 0

    @given(cfg=quorum_configs(), data=st.data())
    def test_rejoin_always_reconverges_digests(self, cfg, data):
        n_nodes, n_replicas, w, r = cfg
        store = ReplicatedLogStore(
            n_nodes=n_nodes, n_replicas=n_replicas,
            write_quorum=min(w, max(1, n_replicas)),  # keep writes possible
            read_quorum=r,
        )
        store.bulk_index(_messages(10))
        victim = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
        store.kill_node(victim)
        try:
            store.bulk_index(_messages(6, seed=1))
        except QuorumError:
            pass
        store.restart_node(victim)
        assert _digests_converged(store)


# -- fault-site integration ------------------------------------------------


class TestFaultSites:
    def test_node_down_site_toggles_kill_and_restart(self):
        plan = FaultPlan(
            sites={SITE_NODE_DOWN: FaultSpec(at_calls=(2, 5))}, seed=3
        )
        inj = FaultInjector(plan)
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, fault_injector=inj,
        )
        store.bulk_index(_messages(4))  # check 1: nothing
        store.bulk_index(_messages(4, seed=1))  # check 2: kills a node
        assert sum(1 for n in store.nodes if n.down) == 1
        store.bulk_index(_messages(4, seed=2))  # check 3
        store.bulk_index(_messages(4, seed=3))  # check 4
        store.bulk_index(_messages(4, seed=4))  # check 5: restarts it
        assert all(not n.down for n in store.nodes)
        assert _digests_converged(store)
        assert len(store) == 20

    def test_node_slow_counts_timeouts_and_still_acks(self, _fresh_registry):
        plan = FaultPlan(
            sites={SITE_NODE_SLOW: FaultSpec(at_calls=(1,))}, seed=0
        )
        inj = FaultInjector(plan)
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, fault_injector=inj,
        )
        assert store.bulk_index(_messages(6))
        m = _fresh_registry.get("repro_store_node_timeouts_total")
        assert sum(m.value(node=str(i)) for i in range(3)) == 1
        # the slow node missed the batch; hints or sync must catch it up
        assert store.hints_pending > 0 or _digests_converged(store)

    def test_partition_site_toggles_and_heals(self):
        plan = FaultPlan(
            sites={SITE_PARTITION: FaultSpec(at_calls=(2, 4))}, seed=0
        )
        inj = FaultInjector(plan)
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, fault_injector=inj,
        )
        store.bulk_index(_messages(4))
        store.bulk_index(_messages(4, seed=1))  # partition starts
        assert store._partitioned
        store.bulk_index(_messages(4, seed=2))  # majority still writes
        store.bulk_index(_messages(4, seed=3))  # partition heals
        assert not store._partitioned
        assert len(store) == 16
        assert _digests_converged(store)


# -- satellite: bounded DLQ ------------------------------------------------


class TestBoundedDeadLetterQueue:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            DeadLetterQueue(max_entries=0)

    def test_drop_oldest_beyond_cap(self, _fresh_registry):
        dlq = DeadLetterQueue(max_entries=3)
        for i in range(5):
            dlq.push("site.a", f"payload {i}", "boom")
        assert len(dlq) == 3
        assert dlq.n_evicted == 2
        assert [e.payload for e in dlq] == ["payload 2", "payload 3", "payload 4"]
        evicted = _fresh_registry.get("repro_faults_dlq_evicted_total")
        assert evicted.value() == 2
        # captures were still all counted before eviction
        captured = _fresh_registry.get("repro_faults_dead_letters_total")
        assert captured.value(site="site.a") == 5

    def test_since_survives_eviction(self):
        dlq = DeadLetterQueue(max_entries=3)
        for i in range(3):
            dlq.push("s", i, "e")
        mark = len(dlq)  # 3 seen so far
        for i in range(3, 6):
            dlq.push("s", i, "e")
        assert [e.payload for e in dlq.since(mark)] == [3, 4, 5]

    def test_unbounded_by_default(self):
        dlq = DeadLetterQueue()
        for i in range(100):
            dlq.push("s", i, "e")
        assert len(dlq) == 100 and dlq.n_evicted == 0

    def test_forwarder_cap_knob(self):
        fwd = fed_forwarder(
            _messages(5), sink=lambda b: False, flush_retry_limit=1,
            batch_size=1, dlq_max_entries=2,
        )
        fwd.drain(max_consecutive_failures=100)
        assert len(fwd.dead_letters) == 2
        assert fwd.dead_letters.n_evicted == 3


# -- satellite: count-only aggregations ------------------------------------


class TestCountOnlyAggregations:
    def test_iter_range_is_lazy_and_ordered(self):
        store = LogStore(n_shards=3)
        msgs = _messages(20)
        store.bulk_index(list(reversed(msgs)))  # shuffled arrival
        it = store._iter_range(5.0, 15.0)
        assert not isinstance(it, (list, tuple))
        times = [message.timestamp for message in it]  # the column, no documents
        assert times == [float(t) for t in range(5, 15)]
        store.set_category(12, Category.UNIMPORTANT)  # doc 12 arrived 13th from last: t=7
        labels = list(store._iter_range(5.0, 15.0, categories=True))
        assert labels == [None, None, Category.UNIMPORTANT, *[None] * 7]

    def test_aggregations_agree_with_time_range(self):
        store = LogStore(n_shards=3)
        store.bulk_index(_messages(40))
        for i in range(0, 40, 3):
            store.set_category(i, Category.UNIMPORTANT)
        docs = store.time_range(10.0, 30.0).docs
        expected_sev = {}
        for d in docs:
            expected_sev[d.message.severity] = (
                expected_sev.get(d.message.severity, 0) + 1
            )
        assert store.severity_histogram(t0=10.0, t1=30.0) == expected_sev
        hosts = store.terms_aggregation("hostname", t0=10.0, t1=30.0)
        assert sum(n for _h, n in hosts) == len(docs)
        cats = store.terms_aggregation("category", t0=10.0, t1=30.0)
        assert sum(n for _c, n in cats) == sum(
            1 for d in docs if d.category is not None
        )

    def test_iter_documents_matches_docs(self):
        store = LogStore(n_shards=3)
        store.bulk_index(_messages(7))
        assert [d.doc_id for d in store.iter_documents()] == list(range(7))


# -- satellite: hanging-sink deadline --------------------------------------


class TestSinkDeadline:
    def test_hanging_sink_counts_failed_flush_not_stall(self):
        import threading

        release = threading.Event()

        def hanging_sink(batch):
            release.wait(30.0)  # hangs (does not raise)
            return True

        fwd = fed_forwarder(
            _messages(5), sink=hanging_sink, batch_size=10,
            sink_timeout_s=0.1, flush_retry_limit=2,
        )
        try:
            n = fwd.flush()
            assert n == 0
            assert fwd.stats.failed_flushes == 1
            assert fwd.buffered == 5  # batch kept for retry
            # drain makes progress by abandoning, never by hanging
            fwd.drain(max_consecutive_failures=10)
            assert fwd.buffered == 0
            assert fwd.stats.abandoned_messages == 5
            assert len(fwd.dead_letters) == 5
        finally:
            release.set()

    def test_sink_deadline_validation(self):
        with pytest.raises(ValueError, match="sink_timeout_s"):
            fed_forwarder(sink=lambda b: True, sink_timeout_s=0.0)

    def test_fast_sink_unaffected_by_deadline(self):
        store = LogStore()
        fwd = fed_forwarder(_messages(5), sink=store.bulk_index, sink_timeout_s=5.0)
        assert fwd.flush() == 5
        assert len(store) == 5


# -- chaos: kill/rejoin through the full pipeline --------------------------


class TestReplicationChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_node_kill_mid_simulation_loses_nothing(self, seed):
        """The acceptance scenario: N=3, W=2, R=2; one node SIGKILLed
        mid-run; zero acknowledged writes lost; quorum reads serve
        through the kill; anti-entropy converges digests after rejoin."""
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2,
        )
        acked = []
        batches = [_messages(10, seed=seed * 101 + b) for b in range(12)]
        victim = seed % 3
        for i, batch in enumerate(batches):
            if i == 4:
                store.kill_node(victim)  # SIGKILL: state wiped
            if i == 9:
                store.restart_node(victim)
            store.bulk_index(batch)
            acked.extend(batch)
            # quorum reads return every acknowledged write, always
            for j in range(0, len(acked), 7):
                assert store.get(j).message.text == acked[j].text
        assert len(store) == len(acked) == 120
        for i, m in enumerate(acked):
            assert store.get(i).message.text == m.text
        assert _digests_converged(store)
        for node in store.nodes:
            assert len(node) == 120

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_injected_churn_stays_conservative(self, seed):
        """Probabilistic node_down/node_slow churn: every acked batch
        stays readable and a final heal+sync converges the cluster."""
        plan = FaultPlan(
            sites={
                SITE_NODE_DOWN: FaultSpec(probability=0.25),
                SITE_NODE_SLOW: FaultSpec(probability=0.15),
            },
            seed=seed,
        )
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2,
            fault_injector=FaultInjector(plan),
        )
        acked = 0
        for b in range(30):
            batch = _messages(5, seed=seed * 997 + b)
            try:
                store.bulk_index(batch)
                acked += 5
            except QuorumError:
                pass  # refused cleanly: nothing mutated
            assert len(store) == acked
        # bring everything back and verify convergence end-state
        for nid, node in enumerate(store.nodes):
            if node.down:
                store.restart_node(nid)
        store.heal_partition()
        store.sync_all()
        assert _digests_converged(store)
        for node in store.nodes:
            assert len(node) == acked

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_quorum_loss_flows_into_forwarder_dlq(self, seed):
        """2 of 3 nodes down: flushes fail fast into retry/abandon and
        the conservation identity holds (offered = indexed + dead +
        buffered)."""
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2,
        )
        msgs = _messages(40, seed=seed)
        fwd = fed_forwarder(
            msgs[:20], sink=store.bulk_index, batch_size=10,
            flush_interval_s=1.0, flush_retry_limit=3,
        )
        assert fwd.flush() == 10
        assert fwd.flush() == 10
        store.kill_node(0)
        store.kill_node(1)
        assert feed(fwd, msgs[20:]) == 20
        fwd.drain(max_consecutive_failures=50)
        stats = fwd.stats
        offered = len(msgs)
        assert stats.accepted == offered
        assert (
            offered
            == stats.flushed_messages
            + stats.abandoned_messages
            + fwd.buffered
        )
        assert stats.flushed_messages == len(store) == 20
        assert stats.abandoned_messages == 20
        assert len(fwd.dead_letters) == 20
        assert stats.failed_flushes >= 3

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tivan_cluster_replicated_end_to_end(self, seed):
        """The whole pipeline over a replicated store with injected
        node churn: classification proceeds and indexing is exact."""
        from repro.datagen.workload import standard_simulation_events

        plan = FaultPlan(
            sites={SITE_NODE_DOWN: FaultSpec(probability=0.10)},
            seed=seed,
        )
        cluster = TivanCluster(
            flush_interval_s=1.0,
            batch_size=200,
            fault_injector=FaultInjector(plan),
            store_nodes=3,
            store_replicas=2,
            write_quorum=2,
            read_quorum=2,
            flush_retry_limit=8,
        )
        events = standard_simulation_events(
            duration_s=60.0, background_rate=4.0, seed=seed, incident=False,
        )
        cluster.load_events(events)
        cluster.attach_classifier(
            ClassifierStage(service_time_s=0.002, batch_size=32)
        )
        report = cluster.run(60.0)
        stats = cluster.forwarder.stats
        # conservation through the replicated sink
        assert stats.accepted == (
            stats.flushed_messages + stats.abandoned_messages
            + cluster.forwarder.buffered
        )
        assert len(cluster.store) == stats.flushed_messages
        assert report.produced == len(events)
        # end state converges once everything is back up
        for nid, node in enumerate(cluster.store.nodes):
            if node.down:
                cluster.store.restart_node(nid)
        cluster.store.sync_all()
        assert _digests_converged(cluster.store)


# -- metrics reconciliation ------------------------------------------------


class TestStoreMetrics:
    def test_families_declared(self, _fresh_registry):
        wellknown.declare_all(_fresh_registry)
        names = {m.name for m in _fresh_registry.collect()}
        for name in (
            "repro_store_node_up",
            "repro_store_quorum_write_seconds",
            "repro_store_quorum_read_seconds",
            "repro_store_quorum_failures_total",
            "repro_store_hints_queued_total",
            "repro_store_hints_replayed_total",
            "repro_store_hints_dropped_total",
            "repro_store_read_repairs_total",
            "repro_store_repair_docs_total",
            "repro_store_breaker_transitions_total",
            "repro_store_node_timeouts_total",
            "repro_faults_dlq_evicted_total",
        ):
            assert name in names, name

    def test_node_up_and_quorum_failures_track_reality(self, _fresh_registry):
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2,
        )
        store.bulk_index(_messages(5))
        up = _fresh_registry.get("repro_store_node_up")
        assert [up.value(node=str(i)) for i in range(3)] == [1, 1, 1]
        store.kill_node(1)
        assert up.value(node="1") == 0
        store.kill_node(2)
        with pytest.raises(QuorumError):
            store.bulk_index(_messages(3, seed=1))
        failures = _fresh_registry.get("repro_store_quorum_failures_total")
        assert failures.value(op="write") == 1
        with pytest.raises(QuorumError):
            store.get(0)
        assert failures.value(op="read") == 1

    def test_write_latency_observed(self, _fresh_registry):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=1)
        store.bulk_index(_messages(10))
        hist = _fresh_registry.get("repro_store_quorum_write_seconds")
        assert hist._child(()).count == 1
