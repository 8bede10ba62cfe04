"""The replicated store against the one it replaced, writes and reads.

``perdoc_store.PerDocStore`` is the oracle: the write path as it was,
document by document and owner by owner, and the read path as it was,
every copy of every shard walked per aggregation.  Both stores are
driven with one operation stream — batches mixing repeated and
never-repeating templates, single writes, re-labelling, node kills with
and without wipe, partitions, quiescing, armed ``store.*`` fault sites,
quorum reads, anti-entropy — and after every step everything a node
holds must be equal: every copy (``copy_of`` per id: the message by
identity, category, version), shard id sets, every search index's
documents (``get`` per id), postings, time index and local id maps,
hints per node, digests and the ``repro_store_*`` counters.  The oracle
keeps an object per copy and per line and the store keeps columns, so
the comparison is through reads, never through the storage itself; the
read surface (``get``, ``iter_documents``, ``node.get``, ``shard_counts``,
``index_stats``, ``node_health``, the checkpoint's pass over the
documents) is compared in every state too.  ``NodeEquivalence`` drives
one ``StoreNode`` beside one ``PerDocNode`` with what no coordinator
sends: batches skipped so that rows stay holes, copies pushed at older,
equal and newer versions and in any order, labels for holes.

Between the writes the machine asks questions: all seven queries, over
ranged and unranged windows, against the oracle's scan and against a
bare ``LogStore`` fed the same acknowledged writes (the query rules say
in which states each comparison is an equality).  ``TestOneEngine``
gates the structure: the seven names are one function each, serving
both stores.

Also here: the range checks on ``set_category`` and the contracts of the
two batch entry points (``StoreNode.put_many``, ``LogStore.index_many``).
"""

import ast
import copy
import json
import os
from pathlib import Path

import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from perdoc_store import PerDocLogStore, PerDocNode, PerDocStore
from repro.core.message import Severity, SyslogMessage
from repro.core.taxonomy import Category
from repro.faults import FaultInjector, FaultPlan
from repro.obs import MetricsRegistry, use_registry
from repro.replication import NodeDownError, QuorumError, ReplicatedLogStore, StoreNode
from repro.stream import opensearch
from repro.stream.opensearch import LogStore, QueryResult

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
        app=_APPS[i % len(_APPS)], text=text, severity=Severity(i % 8),
    )


def _rows(docs):
    """Documents as comparable rows: the message by identity."""
    return [(d.doc_id, id(d.message), d.category) for d in docs]


def _index_state(ix: LogStore):
    return (
        _rows(map(ix.get, range(len(ix)))), _rows(ix.iter_documents()),
        [(term, list(ids)) for term, ids in ix._postings.items()],
        ix._times, list(ix._time_order), ix._time_sorted, ix._time_dirty, ix._shard_counts,
        ix.shard_counts(), ix.index_stats(),
    )


def _local_map(node: StoreNode) -> list[tuple[int, int]]:
    """The node's global -> local id map as ascending pairs: a dict on
    the per-document oracle, on ``StoreNode`` an array indexed by global
    id with -1 where a document is not in the search index."""
    of = node._local_of
    if isinstance(of, dict):
        return sorted(of.items())
    return [(doc_id, local) for doc_id, local in enumerate(of) if local >= 0]


def _node_state(node: StoreNode, n_docs: int):
    """Everything the node holds of documents ``0..n_docs`` (and two
    ids beyond, which it must not hold), read back copy by copy."""
    copies = [(doc_id, node.copy_of(doc_id)) for doc_id in range(-1, n_docs + 2)]
    return (
        [(k, id(v.message), v.category, v.version) for k, v in copies if v is not None],
        [node.shard_doc_ids(shard) for shard in range(node.n_shards)],
        [node.seq_digest(shard) for shard in range(node.n_shards)],
        _index_state(node.search_index),
        list(node._local_gids), _local_map(node),
        node.primary_shards, node.down, len(node),
    )


def _checkpointed_categories(store) -> bytes:
    """The store's share of a checkpoint payload, as bytes: the pass
    ``recovery.build_checkpoint_payload`` makes over ``iter_documents``."""
    categories = {
        str(doc.doc_id): doc.category.value
        for doc in store.iter_documents() if doc.category is not None
    }
    return json.dumps(categories, sort_keys=True).encode()


def _store_state(store: ReplicatedLogStore):
    return (
        store._versions,
        [list(hints) for hints in store._hints],
        [_node_state(node, len(store)) for node in store.nodes],
        store.seq_digests(), store._primary, store.quiesced, store._partitioned,
        [b.state for b in store.breakers], store.node_health(),
        store.shard_counts(), store.index_stats(),
        _rows(store.iter_documents()), _checkpointed_categories(store),
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


def _docs(result):
    """A document query's answer: who, in what order, and the total."""
    return _rows(result.docs), result.total


def _scan_reads_what_the_primaries_hold(store: ReplicatedLogStore) -> bool:
    """The oracle's aggregations read each shard's first reachable owner,
    the engine its acting primary: the same node, or two whose copies of
    the shard are equal (they may be one hinted batch apart)."""
    for shard in range(store.n_shards):
        readers = store._readers(shard)
        if readers and readers[0] != store._primary[shard]:
            reader, primary = store.nodes[readers[0]], store.nodes[store._primary[shard]]
            if reader.seq_digest(shard) != primary.seq_digest(shard):
                return False
    return True


def _primaries_hold_everything(store: ReplicatedLogStore) -> bool:
    """Every acknowledged document sits, at its latest version, on its
    shard's acting primary — then the store must answer like a bare one."""
    for doc_id, version in enumerate(store._versions):
        primary = store._primary[doc_id % store.n_shards]
        copy = store.nodes[primary].copy_of(doc_id) if primary is not None else None
        if copy is None or copy.version != version:
            return False
    return True


def _indices_follow_their_copies(store: ReplicatedLogStore) -> bool:
    """Every search-index resident carries its replica-map copy's label,
    whether or not the node acts for the document's shard right now."""
    return all(
        node.search_index.get(local).category == node.copy_of(doc_id).category
        for node in store.nodes
        for local, doc_id in enumerate(node._local_gids)
    )


def _filed_under(doc, term: str) -> bool:
    """Do the postings of ``term`` hold the document?"""
    m = doc.message
    return term in (m.hostname.lower(), m.app.lower()) or term in opensearch._analyze(m.text)


#: (bounds, pick, from, until): a window laid around one stored document —
#: empty, that document alone, ending on it, or straddling its neighbours
#: (late batches put out-of-order timestamps on either side)
WINDOWS = st.tuples(
    st.sampled_from(["open", "from", "until", "both", "both", "both"]),
    st.integers(0, 10_000),
    st.sampled_from([0, 0, -1, -30, -5000]),
    st.sampled_from([0, 1, 1, 25, 5000]),
)
LIMITS = st.sampled_from([None, None, 0, 1, 50])
TERMS = ["kernel", "cn001", "KERNEL", "started", "LOGIN1", "link", "up", "absent"]


@seed(SEED_SHIFT)
class StoreEquivalence(RuleBasedStateMachine):
    """One operation stream, two stores, no visible difference — and a
    bare ``LogStore`` beside them that is fed every acknowledged write."""

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
        self.bare = LogStore()

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
        else:
            self.bare.bulk_index(batch)

    @rule(category=st.sampled_from([None, *CATEGORIES[:3]]), unique=st.booleans())
    def index(self, category, unique):
        (message,) = self._messages(1, 10 if unique else 0, False)
        if self.both(lambda s: s.index(message, category))[0] == "ok":
            self.bare.index(message, category)

    @rule(pick=st.integers(0, 10_000), category=st.sampled_from(CATEGORIES))
    def set_category(self, pick, category):
        if len(self.real):
            self.both(lambda s: s.set_category(pick % len(s), category))
            self.bare.set_category(pick % len(self.bare), category)

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
            doc_id = max(0, len(self.real) - 1 - back)

            def read(store):
                doc = store.get(doc_id)
                return doc.doc_id, id(doc.message), doc.category

            def node_read(store, nid):
                copy = store.nodes[nid].get(doc_id)  # NodeDownError while down
                return copy and (id(copy.message), copy.category, copy.version)

            for nid in range(len(self.real.nodes)):  # before the quorum read repairs
                self.both(lambda s: node_read(s, nid))
            self.both(read)

    @rule()
    def sync_all(self):
        self.both(lambda s: s.sync_all())

    # -- queries: the engine, the oracle's scan, the bare store ---------------
    #
    # ``term_query`` read the acting primaries before and after: equal to the
    # oracle's in every state.  The three aggregations the oracle re-derives
    # from first reachable owners: equal while those hold what the primaries
    # hold.  All seven equal the bare store's while the primaries hold every
    # acknowledged write.  In any other state (a primary one hinted batch
    # behind, a shard with no reachable owner) an answer is still a sound
    # part of the bare store's: nothing raised, nothing twice, nothing made up.

    def _settle_time_indices(self):
        """A ranged read sorts an index's time order if writes left it
        dirty.  The engine's aggregations are such reads and the scan's
        are not, so after the questions of a step the oracle's indices
        catch up — before the next write compares against the order."""
        for mine, theirs in zip(self.real.nodes, self.oracle.nodes):
            if theirs.search_index._time_dirty and not mine.search_index._time_dirty:
                theirs.search_index._ensure_time_index()

    def _window(self, window):
        """The window and the document it was laid around."""
        bounds, pick, lo, hi = window
        doc = self.bare.get(pick % len(self.bare))
        return (
            doc.message.timestamp + lo if bounds in ("from", "both") else None,
            doc.message.timestamp + hi if bounds in ("until", "both") else None,
            doc,
        )

    def _ask_for_documents(self, ask, matches, t0, t1, limit, by_time=False):
        """One document query, put to the engine and to the bare store;
        the bare store's answer is also worked out by hand, from a pass
        over its documents (both stores run the same engine code)."""
        got = _outcome(lambda s: _docs(ask(s)), self.real)
        want = _outcome(lambda s: _docs(ask(s)), self.bare)
        if want[0] == "ok":
            lo, hi = (-1e18 if t0 is None else t0), (1e18 if t1 is None else t1)
            hits = [
                d for d in self.bare.iter_documents()
                if lo <= d.message.timestamp < hi and matches(d)
            ]
            if by_time:
                hits.sort(key=lambda d: (d.message.timestamp, d.doc_id))
            assert want[1] == _docs(QueryResult(tuple(hits[:limit]), len(hits)))
        if got[0] != "ok" or _primaries_hold_everything(self.real):
            assert got == want
            return
        (docs, total), (known, _total) = got[1], want[1]
        ids = [doc_id for doc_id, _message, _category in docs]
        assert len(set(ids)) == len(ids) and total >= len(ids)
        assert len(ids) == (total if limit is None else min(total, limit))
        if limit is None:  # the bare answer was not cut: every hit is one of its
            assert {(i, m) for i, m, _c in docs} <= {(i, m) for i, m, _c in known}

    @precondition(lambda self: len(self.real))
    @rule(
        source=st.sampled_from(["hostname", "app", "token", "listed", "listed"]),
        listed=st.sampled_from(TERMS), window=WINDOWS, limit=LIMITS,
        max_severity=st.sampled_from([None, None, Severity.WARNING, Severity.EMERGENCY]),
    )
    def ask_term_query(self, source, listed, window, limit, max_severity):
        """A listed term ("kernel" and "cn001" are hostnames, apps and
        tokens at once) or one the window's own document is filed under,
        so the window's edges fall on a hit."""
        t0, t1, doc = self._window(window)
        tokens = opensearch._analyze(doc.message.text)
        term = {
            "hostname": doc.message.hostname, "app": doc.message.app,
            "token": tokens[doc.doc_id % len(tokens)] if tokens else listed,
        }.get(source, listed)

        def ask(store):
            return store.term_query(
                term, t0=t0, t1=t1, limit=limit, max_severity=max_severity
            )

        self.both(lambda s: _docs(ask(s)))
        self._ask_for_documents(
            ask,
            lambda d: _filed_under(d, term.lower())
            and (max_severity is None or d.message.severity <= max_severity),
            t0, t1, limit,
        )

    @precondition(lambda self: len(self.real))
    @rule(
        kind=st.sampled_from(["all_terms_query", "phrase_query", "time_range"]),
        terms=st.lists(st.sampled_from(TERMS), max_size=3),
        phrase=st.sampled_from([
            "link up on", "up link", "started on", "new high-speed USB device",
            "device number 7 using", "reported state", "kernel", "absent here", "", "!!",
        ]),
        window=WINDOWS, limit=LIMITS,
    )
    def ask_for_documents(self, kind, terms, phrase, window, limit):
        t0, t1, _doc = self._window(window)
        if kind == "time_range":
            lo, hi = (0.0 if t0 is None else t0), (1e9 if t1 is None else t1)
            self._ask_for_documents(
                lambda s: s.time_range(lo, hi), lambda d: True, lo, hi, None, by_time=True
            )
        elif kind == "all_terms_query":
            self._ask_for_documents(
                lambda s: s.all_terms_query(terms, t0=t0, t1=t1, limit=limit),
                lambda d: all(_filed_under(d, term.lower()) for term in terms),
                t0, t1, limit,
            )
        else:
            tokens = opensearch._analyze(phrase)
            self._ask_for_documents(
                lambda s: s.phrase_query(phrase, t0=t0, t1=t1, limit=limit),
                lambda d: all(_filed_under(d, tok) for tok in tokens)
                and " ".join(tokens) in " ".join(opensearch._analyze(d.message.text)),
                t0, t1, limit,
            )

    @precondition(lambda self: len(self.real))
    @rule(
        kind=st.sampled_from(["date_histogram", "severity_histogram", "hostname", "app",
                              "category", "no_such_field"]),
        window=WINDOWS, top=st.sampled_from([1, 3, 50]),
        interval_s=st.sampled_from([0.0, 1.0, 7.0, 60.0]),
        term=st.sampled_from([None, None, "kernel", "cn001", "absent"]),
    )
    def ask_for_counts(self, kind, window, top, interval_s, term):
        t0, t1, _doc = self._window(window)
        if kind == "date_histogram":
            def ask(store, top=None):
                buckets = store.date_histogram(interval_s=interval_s, t0=t0, t1=t1, term=term)
                return [(b.start, b.count) for b in buckets]
        elif kind == "severity_histogram":
            def ask(store, top=None):
                return sorted(store.severity_histogram(t0=t0, t1=t1).items())
        else:
            def ask(store, top=top):
                return store.terms_aggregation(kind, top=top, t0=t0, t1=t1)

        got = _outcome(ask, self.real)
        everything = _outcome(lambda s: ask(s, 1 << 30), self.bare)
        if got[0] != "ok":
            assert got == everything  # refused alike, whatever the state
            return
        if (term is not None and kind == "date_histogram") or (
            _scan_reads_what_the_primaries_hold(self.real)
        ):
            scanned = ask(self.oracle, 1 << 30)
            if kind in ("hostname", "app", "category"):
                # value -> count above the cut: the scan orders equal counts
                # by first sight, the engine by value
                scanned = sorted(scanned, key=lambda kv: (-kv[1], kv[0]))[:top]
            assert got[1] == scanned
        if _primaries_hold_everything(self.real):
            assert got == _outcome(ask, self.bare)
        elif kind == "date_histogram":
            assert sum(n for _start, n in got[1]) <= sum(n for _start, n in everything[1])
        else:
            known = dict(everything[1])
            assert len(dict(got[1])) == len(got[1])
            if kind == "category":  # a copy behind may still carry an older label
                assert sum(n for _value, n in got[1]) <= sum(known.values())
            else:
                assert all(n <= known.get(value, 0) for value, n in got[1])

    @invariant()
    def indistinguishable(self):
        if not hasattr(self, "real"):
            return
        self._settle_time_indices()
        assert _store_state(self.real) == _store_state(self.oracle)
        assert _counters(self.registries[0]) == _counters(self.registries[1])
        assert _indices_follow_their_copies(self.real)
        for term in ("kernel", "cn001", "started"):
            self.both(lambda s: [d.doc_id for d in s.term_query(term).docs])
        if _scan_reads_what_the_primaries_hold(self.real):
            for field in ("hostname", "category"):
                # no cut at top=50; equal counts order by value on the
                # engine, by first sight on the oracle's scan
                self.both(lambda s: sorted(s.terms_aggregation(field, top=50)))
        self.both(lambda s: s.index_stats())
        self._settle_time_indices()
        bound = opensearch.ANALYSIS_MEMO_MAX_ENTRIES
        assert all(len(n.search_index._plans) <= bound for n in self.real.nodes)


@seed(SEED_SHIFT)
class NodeEquivalence(RuleBasedStateMachine):
    """One ``StoreNode`` beside one ``PerDocNode``, sent what a coordinator
    sends and what none does: the dense columns must read back as the
    dict of copies did whatever order rows are filled in."""

    @initialize(n_shards=st.sampled_from([1, 3, 6]), primary=st.sets(st.integers(0, 5)))
    def build(self, n_shards, primary):
        self.pair = StoreNode(0, n_shards), PerDocNode(0, n_shards)
        self.known: list[SyslogMessage] = []  # by doc id: every id handed out
        for shard in sorted(primary):
            self.both(lambda node: node.promote(shard % n_shards))

    def both(self, call):
        got, want = (_outcome(call, node) for node in self.pair)
        assert got == want
        return got

    def _copy(self, pick, delta):
        """A handed-out doc id and a version ``delta`` from the one held."""
        doc_id = pick % len(self.known)
        held = self.pair[1].copy_of(doc_id)
        return doc_id, max(1, (held.version if held else 1) + delta)

    @rule(
        count=st.sampled_from([1, 2, 3, 5, 11, 40]), unique=st.booleans(),
        shards=st.sets(st.integers(0, 5)),
    )
    def batch(self, count, unique, shards):
        """The next ``count`` ids are handed out and the node is sent its
        run: the rows of ``shards``, cut out of the batch.  The rows of
        the other shards stay holes — a write the node missed."""
        first, n_shards = len(self.known), self.pair[0].n_shards
        self.known += [_message(first + k + 1, unique, False) for k in range(count)]
        run = [i for i in range(first, first + count) if i % n_shards in shards]
        if run:
            messages = [self.known[i] for i in run]
            tokens = [opensearch._analyze(m.text) for m in messages]
            self.both(lambda node: node.put_many(run, messages, tokens))

    @precondition(lambda self: self.known)
    @rule(
        pick=st.integers(0, 10_000), delta=st.sampled_from([-1, 0, 0, 1, 1, 3]),
        category=st.sampled_from([None, *CATEGORIES[:3]]),
    )
    def put(self, pick, delta, category):
        """Read repair, hint replay and anti-entropy, in any order: onto
        a hole, past the end of a column, older, equal and newer."""
        doc_id, version = self._copy(pick, delta)
        self.both(lambda node: node.put(doc_id, self.known[doc_id], category, version))

    @precondition(lambda self: self.known)
    @rule(
        pick=st.integers(0, 10_000), delta=st.sampled_from([-1, 0, 1, 1, 2]),
        category=st.sampled_from(CATEGORIES[:3]),
    )
    def apply_category(self, pick, delta, category):
        doc_id, version = self._copy(pick, delta)
        self.both(lambda node: node.apply_category(doc_id, category, version))

    @rule(shard=st.integers(0, 5), up=st.booleans())
    def change_role(self, shard, up):
        shard %= self.pair[0].n_shards
        self.both(lambda node: node.promote(shard) if up else node.demote(shard))

    @rule(wipe=st.booleans())
    def kill(self, wipe):
        self.both(lambda node: node.kill(wipe=wipe))

    @rule()
    def restart(self):
        self.both(lambda node: node.restart())

    @invariant()
    def indistinguishable(self):
        if not hasattr(self, "pair"):
            return
        real, oracle = self.pair
        assert _node_state(real, len(self.known)) == _node_state(oracle, len(self.known))
        for doc_id in range(0, len(self.known), 7):
            self.both(lambda node: (c := node.get(doc_id)) and (id(c.message), c.version))


class TestStoreEquivalence:
    def test_matches_per_document_oracle(self):
        run_state_machine_as_test(
            StoreEquivalence,
            settings=settings(max_examples=60, stateful_step_count=40),
        )

    def test_a_node_reads_back_what_a_dict_of_copies_did(self):
        run_state_machine_as_test(
            NodeEquivalence,
            settings=settings(max_examples=60, stateful_step_count=30),
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


# -- one engine, two stores ---------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
QUERIES = (
    "term_query", "all_terms_query", "phrase_query", "time_range",
    "date_histogram", "terms_aggregation", "severity_histogram",
)


class TestOneEngine:
    def test_every_query_is_one_function_serving_both_stores(self):
        public = [
            name for name, value in vars(opensearch._Queries).items()
            if callable(value) and not name.startswith("_")
        ]
        assert sorted(public) == sorted(QUERIES)
        for name in QUERIES:
            assert getattr(ReplicatedLogStore, name) is getattr(LogStore, name), name

    def test_no_query_is_written_twice_in_the_source(self):
        """One ``def`` per query name in the engine's module, none under
        ``replication/`` — nor the reductions a second engine would need."""
        defs = {}
        for path in [SRC / "stream" / "opensearch.py", *(SRC / "replication").glob("*.py")]:
            tree = ast.parse(path.read_text())
            names = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
            defs[path.name] = [name for name in names if name in QUERIES]
            if path.parent.name == "replication":
                assert "_iter_copies" not in names
                imported = [
                    alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                    for alias in n.names
                ]
                assert not {"Counter", "DateHistogramBucket", "QueryResult"} & set(imported)
        assert sorted(defs.pop("opensearch.py")) == sorted(QUERIES)
        assert not any(defs.values()), defs

    def test_the_queries_the_replicated_store_lacked(self):
        """``examples/tivan_queries.py``'s tour, on both stores."""
        bare, repl = LogStore(), ReplicatedLogStore(n_nodes=3, n_replicas=1)
        batch = [_message(i, False, i % 9 == 0) for i in range(1, 120)]
        for store in (bare, repl):
            store.bulk_index(batch)
            store.set_category(4, Category.UNIMPORTANT)
        repl.kill_node(1)  # node 2 serves shard 1 now, from a fresh index
        for ask in (
            lambda s: s.phrase_query("link up on", limit=3),
            lambda s: s.all_terms_query(["kernel", "link"], t0=1010.0),
            lambda s: s.time_range(960.0, 1040.0),
            lambda s: s.term_query("kernel", t0=1000.0, t1=1060.0,
                                   max_severity=Severity.WARNING),
        ):
            assert _docs(ask(repl)) == _docs(ask(bare)) and ask(bare).total
        # and by hand, since both stores run the one engine
        for window in ((1010.0, 1050.0), (None, 1003.0), (1100.0, None)):
            lo, hi = window[0] or 0.0, window[1] or 1e9
            by_hand = [
                d.doc_id for d in bare.iter_documents()
                if _filed_under(d, "kernel") and lo <= d.message.timestamp < hi
            ]
            for store in (bare, repl):
                hits = store.all_terms_query(["KERNEL"], t0=window[0], t1=window[1])
                assert [d.doc_id for d in hits.docs] == by_hand and by_hand
                hits = store.phrase_query("kernel", t0=window[0], t1=window[1])
                assert {d.doc_id for d in hits.docs} <= set(by_hand)

    def test_a_primary_that_died_unnoticed_is_skipped(self):
        """Between two probes the coordinator still lists a dead node as
        acting primary; its index is not read."""
        batch = [_message(i, False, False) for i in range(1, 40)]
        stores = [
            cls(n_nodes=3, n_replicas=2, registry=MetricsRegistry())
            for cls in (ReplicatedLogStore, PerDocStore)
        ]
        for store in stores:
            store.bulk_index(batch)
            store.nodes[1].kill(wipe=False)  # not kill_node: nobody rebalances
            assert store._primary[1] == store._primary[4] == 1
        real, oracle = stores
        assert _docs(real.term_query("kernel")) == _docs(oracle.term_query("kernel"))
        lit = [d for d in range(39) if d % 6 not in (1, 4)]  # shards 1 and 4 are dark
        assert [d.doc_id for d in real.time_range(0.0, 2000.0).docs] == lit
        assert sum(real.severity_histogram().values()) == len(lit)


class TestStaleResidents:
    """A demoted index keeps what it indexed; two ways that could leak."""

    def test_a_label_replayed_onto_a_demoted_resident_reaches_its_index(self):
        """Relabelled while its node was down *and* demoted: the replayed
        copy must relabel the index entry too, because the promote that
        follows re-indexes only what is missing."""
        bare, store, batch = LogStore(), ReplicatedLogStore(n_nodes=3, n_replicas=2), _plain(12)
        for s in (bare, store):
            s.bulk_index(batch)
        store.quiesce_node(0)  # shard 0 moves to node 1; node 0 keeps doc 0 indexed
        store.kill_node(0, wipe=False)
        for s in (bare, store):
            s.set_category(0, Category.THERMAL)  # node 0 is hinted
        store.restart_node(0)  # the hint is replayed through put()
        store.activate_node(0)
        assert store._primary[0] == 0 and _indices_follow_their_copies(store)
        assert _docs(store.term_query("cn001")) == _docs(bare.term_query("cn001"))
        assert store.terms_aggregation("category") == [(Category.THERMAL.value, 1)]

    def test_a_node_is_read_for_the_shards_the_coordinator_gave_it(self):
        """Not for the ones it believes it leads: a node demoted while
        unreachable never heard, and still indexes that shard's writes."""
        bare = LogStore()
        store = ReplicatedLogStore(n_nodes=6, n_replicas=1, write_quorum=1)
        batches = [_plain(24), _plain(12, "late job {i} started on cn{i:03d}")]
        store.bulk_index(batches[0])
        store.kill_node(1, wipe=False)  # shard 1 moves to node 2
        store.bulk_index(batches[1])
        store.quiesce_node(1)
        store.restart_node(1)  # back, but no longer preferred: node 2 keeps shard 1
        store.kill_node(0)  # node 1 is shard 0's last owner, so it leads that
        for batch in batches:
            bare.bulk_index(batch)
        assert store._primary[0] == 1 and store._primary[1] == 2
        assert store.nodes[1].primary_shards == {0, 1}
        assert _primaries_hold_everything(store)
        for ask in (
            lambda s: s.time_range(0.0, 100.0), lambda s: s.term_query("cn001"),
            lambda s: s.phrase_query("started on"),
        ):
            assert _docs(ask(store)) == _docs(ask(bare))
        assert store.severity_histogram() == bare.severity_histogram()
        assert store.terms_aggregation("app", t0=5.0) == bare.terms_aggregation("app", t0=5.0)
        assert store.date_histogram(interval_s=5.0) == bare.date_histogram(interval_s=5.0)


class TestHintReplay:
    def test_a_node_that_timed_out_once_is_caught_up_by_the_next_write(self):
        """One failed probe hints a batch and leaves the breaker closed:
        the node stays acting primary, so it must not wait for a rejoin."""
        from repro.faults import FaultSpec

        registry = MetricsRegistry()
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, registry=registry, fault_injector=FaultInjector(
                FaultPlan(sites={"store.node_slow": FaultSpec(at_calls=(2,))})
            ),
        )
        batches = [
            [SyslogMessage(timestamp=float(12 * b + i), hostname="cn001", app="kernel",
                           text=f"link {i} up") for i in range(12)]
            for b in range(3)
        ]
        store.bulk_index(batches[0])
        store.bulk_index(batches[1])  # node 0 times out: its run is hinted
        assert store.hints_pending == 12
        assert {b.state for b in store.breakers} == {"closed"}
        store.bulk_index(batches[2])
        assert store.hints_pending == 0 and len(store) == 36
        assert store.term_query("cn001").total == 36
        assert store.all_terms_query(["link", "up"]).total == 36
        assert len(store.time_range(0.0, 36.0).docs) == 36
        assert sum(store.severity_histogram().values()) == 36
        assert store.terms_aggregation("hostname") == [("cn001", 36)]
        assert sum(b.count for b in store.date_histogram(interval_s=12.0)) == 36
        assert len({d for owner in store.seq_digests().values() for d in owner.items()}) == 6
        counters = _counters(registry)
        queued, replayed, dropped = (
            counters.get((f"repro_store_hints_{what}_total", ()), 0)
            for what in ("queued", "replayed", "dropped")
        )
        assert (queued, replayed, dropped) == (12, 12, 0)
        assert queued - replayed - dropped == store.hints_pending


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
        assert all(list(store._postings[tok]) == [0, 1, 2] for tok in seen)

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
