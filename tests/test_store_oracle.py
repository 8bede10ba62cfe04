"""The columnar quorum write against the per-document one it replaced.

``perdoc_store.PerDocStore`` is the oracle: the write path as it was,
document by document and owner by owner.  Both stores are driven with
one operation stream — batches mixing repeated and never-repeating
templates, single writes, re-labelling, node kills with and without
wipe, partitions, quiescing, armed ``store.*`` fault sites, quorum
reads, anti-entropy — and after every step everything a node holds must
be equal, in order: replica maps, versions, shard id sets, every search
index's documents, postings, time index and local id maps, hints per
node, digests, query results and the ``repro_store_*`` counters.

Also here: the range checks on ``set_category`` and the contracts of the
two batch entry points (``StoreNode.put_many``, ``LogStore.index_many``).
"""

import copy
import os

import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from perdoc_store import PerDocLogStore, PerDocStore
from repro.core.message import SyslogMessage
from repro.core.taxonomy import Category
from repro.faults import FaultInjector, FaultPlan
from repro.obs import MetricsRegistry, use_registry
from repro.replication import NodeDownError, QuorumError, ReplicatedLogStore, StoreNode
from repro.stream import opensearch
from repro.stream.opensearch import LogStore

#: the CI replication-chaos job shifts this for the seed matrix
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

PLACEMENTS = [
    dict(n_nodes=3, n_shards=6, n_replicas=2),
    dict(n_nodes=6, n_shards=6, n_replicas=1, write_quorum=1),
    dict(n_nodes=5, n_shards=7, n_replicas=2),
]
CATEGORIES = list(Category)
_HOSTS = ["cn001", "cn002", "gpu01", "kernel", "LOGIN1"]  # "kernel" is also an app
_APPS = ["kernel", "sshd", "slurmd", "cn001"]  # "cn001" is also a host
_REPEATED = [
    "job {a} started on cn{b:03d} port {c}",
    "usb {a}-1: new high-speed USB device number {b} using xhci_hcd",
    "Accepted publickey for user{a} from 10.0.{b}.9 port {c}",
    "CPU{a} temperature above threshold, cpu clock throttled (total events = {c})",
    "link up link up on cn001 kernel",  # repeats tokens, names a host and an app
    "{a} {b} {c}",  # nothing but numbers
    "",
]


def _message(i: int, unique: bool, late: bool) -> SyslogMessage:
    if unique:
        # a word no earlier line had: a template that never repeats
        word = "".join(chr(97 + (i * 7919 >> s) % 26) for s in range(0, 28, 4))
        text = f"unit {word} reported state {i % 11} after {word[::-1]}"
    else:
        text = _REPEATED[i % len(_REPEATED)].format(a=i % 97, b=i % 13, c=i * 31 % 65536)
    return SyslogMessage(
        timestamp=1000.0 + (i - 50 if late else i), hostname=_HOSTS[i % len(_HOSTS)],
        app=_APPS[i % len(_APPS)], text=text,
    )


def _index_state(ix: LogStore):
    return (
        [(d.doc_id, id(d.message), d.category) for d in ix._docs],
        list(ix._postings.items()),
        ix._times, ix._time_order, ix._time_sorted, ix._time_dirty, ix._shard_counts,
    )


def _node_state(node: StoreNode):
    return (
        [(k, id(v.message), v.category, v.version) for k, v in node._docs.items()],
        list(node._shard_ids.items()),
        _index_state(node.search_index),
        node._local_gids, list(node._local_of.items()),
        node.primary_shards, node.down,
    )


def _store_state(store: ReplicatedLogStore):
    return (
        store._versions,
        [list(hints) for hints in store._hints],
        [_node_state(node) for node in store.nodes],
        store.seq_digests(), store._primary, store.quiesced, store._partitioned,
        [b.state for b in store.breakers], store.node_health(),
    )


def _counters(registry: MetricsRegistry):
    """Every ``repro_store_*`` counter and gauge (the two latency
    histograms time the call, which is the one thing that may differ)."""
    return {
        (fam["name"], tuple(sorted(sample["labels"].items()))): sample["value"]
        for fam in registry.snapshot()["metrics"]
        if fam["name"].startswith("repro_store_") and fam["type"] != "histogram"
        for sample in fam["samples"]
    }


def _outcome(call, store):
    """What the caller sees: the value, or the exception and its facts."""
    try:
        return ("ok", call(store))
    except QuorumError as exc:
        return ("quorum", exc.op, exc.shard, exc.needed, exc.available)
    except (IndexError, ValueError, NodeDownError) as exc:
        return (type(exc).__name__, str(exc))


@seed(SEED_SHIFT)
class StoreEquivalence(RuleBasedStateMachine):
    """One operation stream, two write paths, no visible difference."""

    @initialize(
        placement=st.sampled_from(PLACEMENTS),
        plan_seed=st.integers(0, 3),
        down_p=st.sampled_from([0.0, 0.0, 0.05, 0.2]),
        slow_p=st.sampled_from([0.0, 0.3]),
        partition_p=st.sampled_from([0.0, 0.0, 0.1]),
        hint_limit=st.sampled_from([10_000, 10_000, 5]),
        memo_max=st.sampled_from([1 << 11, 1 << 11, 4]),
    )
    def build(self, placement, plan_seed, down_p, slow_p, partition_p,
              hint_limit, memo_max):
        plan = {"seed": SEED_SHIFT + plan_seed, "sites": {
            "store.node_down": {"probability": down_p},
            "store.node_slow": {"probability": slow_p},
            "store.partition": {"probability": partition_p},
        }}
        self.registries = [MetricsRegistry(), MetricsRegistry()]
        self.real, self.oracle = (
            cls(
                fault_injector=FaultInjector(FaultPlan.from_dict(plan)),
                hint_limit=hint_limit, breaker_failures=2, breaker_reset=3.0,
                registry=registry, **placement,
            )
            for cls, registry in zip((ReplicatedLogStore, PerDocStore), self.registries)
        )
        # a tiny memo bound makes the analysis memo and every store's
        # plan memo clear many times within one example
        self.memo_max = opensearch.ANALYSIS_MEMO_MAX_ENTRIES
        opensearch.ANALYSIS_MEMO_MAX_ENTRIES = memo_max
        self.n = 0

    def teardown(self):
        if hasattr(self, "memo_max"):
            opensearch.ANALYSIS_MEMO_MAX_ENTRIES = self.memo_max

    def both(self, call):
        got, want = _outcome(call, self.real), _outcome(call, self.oracle)
        assert got == want
        return got

    def _messages(self, count, unique_share, late):
        out = []
        for _ in range(count):
            self.n += 1
            out.append(_message(self.n, self.n % 10 < unique_share, late))
        return out

    @rule(
        count=st.sampled_from([0, 1, 2, 3, 3, 5, 7, 11, 11, 64, 200, 600]),
        unique_share=st.sampled_from([0, 0, 3, 10]),
        late=st.booleans(),
    )
    def bulk_index(self, count, unique_share, late):
        batch = self._messages(count, unique_share, late)
        before = [(len(s), list(s._versions)) for s in (self.real, self.oracle)]
        outcome = self.both(lambda s: s.bulk_index(batch))
        if outcome[0] == "quorum":
            # refused before any document was numbered or placed
            assert before == [(len(s), s._versions) for s in (self.real, self.oracle)]

    @rule(category=st.sampled_from([None, *CATEGORIES[:3]]), unique=st.booleans())
    def index(self, category, unique):
        (message,) = self._messages(1, 10 if unique else 0, False)
        self.both(lambda s: s.index(message, category))

    @rule(pick=st.integers(0, 10_000), category=st.sampled_from(CATEGORIES))
    def set_category(self, pick, category):
        if len(self.real):
            self.both(lambda s: s.set_category(pick % len(s), category))

    @rule(doc_id=st.sampled_from([-1, 1 << 40]), category=st.sampled_from(CATEGORIES))
    def set_category_out_of_range(self, doc_id, category):
        assert self.both(lambda s: s.set_category(doc_id, category))[0] == "IndexError"

    @rule(node=st.integers(0, 5), wipe=st.booleans())
    def kill_node(self, node, wipe):
        self.both(lambda s: s.kill_node(node % len(s.nodes), wipe=wipe))

    @rule(node=st.integers(0, 5))
    def restart_node(self, node):
        self.both(lambda s: s.restart_node(node % len(s.nodes)))

    @rule(cut=st.integers(1, 5))
    def set_partition(self, cut):
        self.both(lambda s: s.set_partition(range(min(cut, len(s.nodes)))))

    @rule()
    def heal_partition(self):
        self.both(lambda s: s.heal_partition())

    @rule(node=st.integers(0, 5))
    def quiesce_node(self, node):
        self.both(lambda s: s.quiesce_node(node % len(s.nodes)))

    @rule(node=st.integers(0, 5))
    def activate_node(self, node):
        self.both(lambda s: s.activate_node(node % len(s.nodes)))

    @rule(back=st.integers(0, 30))
    def get(self, back):
        """A quorum read of a recent document — the ones a slow or
        partitioned owner may have missed, so read repair runs."""
        if len(self.real):
            def read(store):
                doc = store.get(max(0, len(store) - 1 - back))
                return doc.doc_id, id(doc.message), doc.category

            self.both(read)

    @rule()
    def sync_all(self):
        self.both(lambda s: s.sync_all())

    @invariant()
    def indistinguishable(self):
        if not hasattr(self, "real"):
            return
        assert _store_state(self.real) == _store_state(self.oracle)
        assert _counters(self.registries[0]) == _counters(self.registries[1])
        for term in ("kernel", "cn001", "started"):
            self.both(lambda s: [d.doc_id for d in s.term_query(term).docs])
        for field in ("hostname", "category"):
            self.both(lambda s: s.terms_aggregation(field, top=50))
        self.both(lambda s: s.index_stats())
        bound = opensearch.ANALYSIS_MEMO_MAX_ENTRIES
        assert all(len(n.search_index._plans) <= bound for n in self.real.nodes)


class TestStoreEquivalence:
    def test_matches_per_document_oracle(self):
        run_state_machine_as_test(
            StoreEquivalence,
            settings=settings(max_examples=60, stateful_step_count=40),
        )

    def test_bare_store_matches_per_document_index(self):
        """``LogStore`` alone: ``bulk_index``, ``index`` and out-of-order
        timestamps through ``index_many`` against the per-document
        ``index``, with plan memos small enough to clear mid-batch."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opensearch, "ANALYSIS_MEMO_MAX_ENTRIES", 5)
            real, oracle = LogStore(n_shards=4), PerDocLogStore(n_shards=4)
            i = 0
            for size in (0, 1, 3, 40, 7, 2, 300, 11):
                batch = [_message(i + k, (i + k) % 4 == 0, size == 7) for k in range(size)]
                i += size
                single = _message(i, False, False)
                for store in (real, oracle):
                    assert store.bulk_index(batch)
                    store.index(single, CATEGORIES[i % 3])
                assert _index_state(real) == _index_state(oracle)
            assert real._time_dirty
            assert real.time_range(0.0, 2000.0) == oracle.time_range(0.0, 2000.0)
            assert _index_state(real) == _index_state(oracle)


# -- the batch entry points' contracts ---------------------------------------


def _plain(n, text="job {i} started on cn{i:03d}"):
    return [
        SyslogMessage(timestamp=float(i), hostname="cn001", app="kernel",
                      text=text.format(i=i))
        for i in range(n)
    ]


class TestTemplatePlans:
    def test_a_template_earns_its_plan_on_second_sight(self):
        store = LogStore()
        first, second, third = _plain(3)
        store.index(first)
        (tokens,) = store._plans
        assert store._plans[tokens] == ()  # seen once: no plan yet
        store.index(second)
        seen, appends = store._plans[tokens]
        assert list(seen) == list(dict.fromkeys(tokens)) and len(appends) == len(seen)
        store.index(third)
        assert all(store._postings[tok] == [0, 1, 2] for tok in seen)

    def test_never_repeating_text_builds_no_plan(self):
        store = LogStore()
        store.bulk_index([_message(i, True, False) for i in range(1, 50)])
        assert len(store._plans) == 49 and not any(store._plans.values())

    def test_plan_memo_is_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(opensearch, "ANALYSIS_MEMO_MAX_ENTRIES", 8)
        store = LogStore()
        store.bulk_index([_message(i, True, False) for i in range(1, 100)])
        assert 0 < len(store._plans) <= 8

    def test_plans_die_with_a_wiped_node(self):
        store = ReplicatedLogStore(n_nodes=3, n_shards=6, n_replicas=2)
        store.bulk_index(_plain(60))
        index = store.nodes[0].search_index
        assert any(index._plans.values())
        store.kill_node(0)  # wipe=True
        assert store.nodes[0].search_index is not index
        assert not store.nodes[0].search_index._plans


class TestIndexManyColumns:
    @pytest.mark.parametrize("column", ["tokens", "categories"])
    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_a_column_of_another_length_is_refused_unchanged(self, column, length):
        store = LogStore()
        store.bulk_index(_plain(2))
        before = copy.deepcopy(_index_state(store))
        value = {"tokens": ("a",), "categories": None}[column]
        with pytest.raises(ValueError, match="for 3 messages"):
            store.index_many(_plain(3), **{column: [value] * length})
        assert _index_state(store) == before and len(store) == 2


class TestPutMany:
    def test_down_node_refuses_before_touching_anything(self):
        node = StoreNode(0, 6)
        node.kill(wipe=False)
        msgs = _plain(2)
        with pytest.raises(NodeDownError):
            node.put_many([0, 1], msgs, [("a",), ("b",)])
        assert len(node) == 0

    def test_one_call_per_live_owner_and_ordered_hints(self):
        """6 nodes, RF 2: each owner is handed exactly its run, and a
        down owner's hints are that run, in doc-id order."""
        store = ReplicatedLogStore(
            n_nodes=6, n_shards=6, n_replicas=1, write_quorum=1,
        )
        store.kill_node(2)
        calls = []
        for node in store.nodes:
            node.put_many = (
                lambda ids, msgs, toks, _n=node, _put=node.put_many:
                (calls.append((_n.node_id, list(ids))), _put(ids, msgs, toks))
            )
        store.bulk_index(_plain(20))
        assert sorted(nid for nid, _ids in calls) == [0, 1, 3, 4, 5]
        for nid, ids in calls:
            owned = store.placement.shards_owned_by(nid)
            assert ids == [d for d in range(20) if d % 6 in owned]
        assert list(store._hints[2]) == [d for d in range(20) if d % 6 in (1, 2)]


# -- set_category: ids outside [0, len) --------------------------------------


class TestSetCategoryRange:
    @pytest.mark.parametrize("offset", [-1, 0])  # -1, and len(store)
    def test_replicated_store_refuses_before_any_mutation(self, offset):
        with use_registry(MetricsRegistry()):
            store = ReplicatedLogStore(n_nodes=3, n_shards=6, n_replicas=2)
            store.bulk_index(_plain(9))
            doc_id = offset if offset < 0 else len(store)
            before = (
                list(store._versions), store.hints_pending, store.seq_digests(),
                [(d.doc_id, d.category) for d in store.iter_documents()],
            )
            with pytest.raises(IndexError, match="out of range"):
                store.set_category(doc_id, Category.UNIMPORTANT)
            store.sync_all()
            assert before == (
                list(store._versions), store.hints_pending, store.seq_digests(),
                [(d.doc_id, d.category) for d in store.iter_documents()],
            )
            assert store.hints_pending == 0

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_bare_store_refuses_instead_of_relabelling_the_last(self, offset):
        store = LogStore()
        store.bulk_index(_plain(5))
        doc_id = offset if offset < 0 else len(store)
        with pytest.raises(IndexError, match="out of range"):
            store.set_category(doc_id, Category.UNIMPORTANT)
        assert [d.category for d in store.iter_documents()] == [None] * 5
