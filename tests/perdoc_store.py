"""The replicated store as it was, kept as the oracle for what replaced it.

``PerDocStore`` writes the way ``ReplicatedLogStore`` did before its
``bulk_index`` went columnar: document by document and owner by owner
through ``StoreNode.put(..., tokens=...)``, postings maintained token by
token with a fresh ``seen`` set per document.  The bodies of
``bulk_index``, ``put``, ``_index_doc``, ``promote`` and ``index`` below
are those routines verbatim; nothing here calls ``put_many``,
``index_many``, the owner table or a template plan.

It also reads the way the replicated store did before its queries moved
onto the shared engine (``repro.stream.opensearch._Queries``):
``term_query`` fanned out to the acting primaries' own ``term_query``,
and ``terms_aggregation`` / ``severity_histogram`` / ``date_histogram``
re-derived from ``_iter_copies``, a walk over every document of every
shard in its first reachable owner's replica map.  Those five bodies,
``StoreNode.global_docs`` and the bare store's ``term_query`` /
``_finalize`` under them are verbatim too, so none of the four answers
below passes through the engine.  ``all_terms_query``, ``phrase_query``
and ``time_range`` did not exist on the replicated store; here they are
inherited, and the bodies the first two had on the bare store are kept
on ``PerDocLogStore`` (what the engine's cost is read against).
Hints, ``get`` and repair are inherited — they are not what changed.
The liveness probe (``_available_nodes``: every breaker probed on every
batch, no memo of a settled cluster) and the coordinator's
``set_category`` (``_reachable`` per owner) are the bodies they had.

It stores the way both stores did before their documents went columnar:
a ``VersionedDoc`` per copy in each node's ``_docs`` dict with the
per-shard id sets beside it, a ``LogDocument`` per line in each index's
``_docs`` list.  ``PerDocNode`` and ``PerDocLogStore`` hold that storage
themselves and read nothing of their bases' columns: ``put_many``,
``apply_category``, ``copy_of``, ``get``, ``seq_digest``, ``kill``,
``index_many``, ``set_category``, ``_iter_range``, ``_iter_terms`` and
the rest of what touched a document are the bodies they had, verbatim,
as are the engine's count-only aggregations over documents and the
coordinator's ``_from_primaries`` family that fed them.

Used by ``test_store_oracle.py`` (state equality after every step, query
answers in every state), by ``test_perf_smoke.py`` (``TestStoreQueryFloors``)
and by ``benchmarks/bench_replication_overhead.py`` (the cost beside it,
the write and query floors' ratios among it).
"""

from __future__ import annotations

import time
import zlib
from collections import Counter as _Counter
from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace

from repro.core.message import Severity
from repro.core.taxonomy import Category
from repro.obs.propagation import carried, record_hop
from repro.replication import ReplicatedLogStore, StoreNode
from repro.replication import store as store_mod
from repro.replication.health import BREAKER_CLOSED
from repro.replication.node import VersionedDoc
from repro.replication.store import QuorumError
from repro.stream import opensearch
from repro.stream.opensearch import (
    DateHistogramBucket,
    LogDocument,
    LogStore,
    QueryResult,
)


class OneVerdict:
    """A pipeline that allocates nothing — every line gets the same
    result — so a heap census through ``classifying_sink`` reads the
    store alone (``TestStoreHeapFloors``, the bench's heap lane)."""

    def __init__(self) -> None:
        self.result = SimpleNamespace(category=Category.UNIMPORTANT)

    def classify_batch(self, texts):
        return [self.result] * len(texts)


class PerDocLogStore(LogStore):
    """``LogStore`` with the per-document ``index`` and the document
    queries it had, over a ``LogDocument`` per line."""

    def __init__(self, n_shards: int = 6) -> None:
        super().__init__(n_shards)
        self._docs: list[LogDocument] = []

    def index(self, message, category=None, *, _tokens=None):
        doc_id = len(self._docs)
        doc = LogDocument(doc_id=doc_id, message=message, category=category)
        self._docs.append(doc)
        self._shard_counts[doc_id % self.n_shards] += 1
        seen: set[str] = set()
        tokens = _tokens if _tokens is not None else opensearch._analyze(message.text)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self._postings[tok].append(doc_id)
        for extra in (message.hostname, message.app):
            key = extra.lower()
            if key not in seen:
                seen.add(key)
                self._postings[key].append(doc_id)
        if self._time_sorted and message.timestamp < self._time_sorted[-1]:
            self._time_dirty = True
        self._time_sorted.append(message.timestamp)
        self._time_order.append(doc_id)
        self._times.append(message.timestamp)
        return doc_id

    def bulk_index(self, messages):
        ctxs, clock = carried()
        wall_t0 = time.perf_counter() if ctxs else 0.0
        analyzed = [opensearch._analyze(m.text) for m in messages]
        for m, toks in zip(messages, analyzed):
            self.index(m, _tokens=toks)
        if ctxs:
            now = clock()
            wall_ms = (time.perf_counter() - wall_t0) * 1e3
            for ctx in ctxs:
                record_hop(
                    ctx, "store.index", now,
                    docs=len(messages), wall_ms=round(wall_ms, 3),
                )
        return True

    def term_query(
        self,
        term: str,
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
        max_severity: "Severity | None" = None,
    ) -> QueryResult:
        """Documents containing ``term`` (hostname/app/token match).

        ``max_severity`` keeps only documents at that severity or more
        urgent (syslog severities are lower-is-more-urgent, so this is
        a numeric upper bound — ``max_severity=Severity.WARNING`` means
        warnings, errors, criticals, alerts, and emergencies).
        """
        ids = self._postings.get(term.lower(), [])
        return self._finalize(ids, t0, t1, limit, max_severity)

    def all_terms_query(
        self,
        terms: Sequence[str],
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """Documents containing every term (AND of postings)."""
        if not terms:
            raise ValueError("all_terms_query requires at least one term")
        lists = sorted(
            (self._postings.get(t.lower(), []) for t in terms), key=len
        )
        if not lists[0]:
            return QueryResult(docs=(), total=0)
        result = set(lists[0])
        for lst in lists[1:]:
            result &= set(lst)
            if not result:
                break
        return self._finalize(sorted(result), t0, t1, limit)

    def phrase_query(
        self,
        phrase: str,
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """AND-query on the phrase's tokens, verified by substring match
        on the masked text (like a match_phrase over a keyword subfield)."""
        tokens = opensearch._analyze(phrase)
        if not tokens:
            raise ValueError(f"phrase {phrase!r} yields no tokens")
        cand = self.all_terms_query(tokens, t0=t0, t1=t1)
        needle = " ".join(tokens)
        hits = [
            d for d in cand.docs
            if needle in " ".join(opensearch._analyze(d.message.text))
        ]
        if limit is not None:
            hits = hits[:limit]
        return QueryResult(docs=tuple(hits), total=len(hits))

    def _finalize(self, ids, t0, t1, limit, max_severity=None) -> QueryResult:
        docs = (self._docs[i] for i in ids)
        if t0 is not None or t1 is not None:
            lo = t0 if t0 is not None else float("-inf")
            hi = t1 if t1 is not None else float("inf")
            docs = (d for d in docs if lo <= d.message.timestamp < hi)
        if max_severity is not None:
            docs = (d for d in docs if d.message.severity <= max_severity)
        out = list(docs)
        total = len(out)
        if limit is not None:
            out = out[:limit]
        return QueryResult(docs=tuple(out), total=total)

    # -- the batch write, the relabel and the reads, as they were ----------

    def index_many(self, messages, tokens=None, categories=None):
        if tokens is None:
            tokens = [opensearch._analyze(m.text) for m in messages]
        elif len(tokens) != len(messages):
            raise ValueError(f"{len(tokens)} token rows for {len(messages)} messages")
        if categories is not None and len(categories) != len(messages):
            raise ValueError(f"{len(categories)} categories for {len(messages)} messages")
        first = len(self._docs)
        # one int object per document, shared by every structure below
        # (and by the caller's own id maps)
        ids = list(range(first, first + len(messages)))
        docs, postings, plans = self._docs, self._postings, self._plans
        n_shards, shard_counts = self.n_shards, self._shard_counts
        times, time_sorted = self._times, self._time_sorted
        last = time_sorted[-1] if time_sorted else opensearch._NO_TIME
        for doc_id, message, toks, category in zip(
            ids, messages, tokens, categories or repeat(None)
        ):
            docs.append(LogDocument(doc_id, message, category))
            shard_counts[doc_id % n_shards] += 1
            plan = plans.get(toks)
            if plan is None:  # first sight: remember it, index it longhand
                if len(plans) >= opensearch.ANALYSIS_MEMO_MAX_ENTRIES:
                    plans.clear()
                plans[toks] = ()
                seen = dict.fromkeys(toks)
                for tok in seen:
                    postings[tok].append(doc_id)
            else:
                if not plan:  # second sight: the template repeats
                    seen = dict.fromkeys(toks)
                    plan = plans[toks] = (
                        seen, [postings[tok].append for tok in seen]
                    )
                seen, appends = plan
                for append in appends:
                    append(doc_id)
            host = message.hostname.lower()
            if host not in seen:
                postings[host].append(doc_id)
            app = message.app.lower()
            if app not in seen and app != host:
                postings[app].append(doc_id)
            ts = message.timestamp
            if ts < last:
                self._time_dirty = True
            last = ts
            time_sorted.append(ts)
            times.append(ts)
        self._time_order.extend(ids)
        return ids

    def set_category(self, doc_id, category):
        if not 0 <= doc_id < len(self._docs):
            raise IndexError(f"doc id {doc_id} out of range")
        self._docs[doc_id] = LogDocument(
            doc_id, self._docs[doc_id].message, category
        )

    def __len__(self):
        return len(self._docs)

    def get(self, doc_id):
        """Fetch by id (raises IndexError when absent)."""
        return self._docs[doc_id]

    def _iter_range(self, t0, t1):
        """Documents in [t0, t1), lazily, in (timestamp, doc id) order."""
        lo, hi = self._time_slice(t0, t1)
        return map(self._docs.__getitem__, self._time_order[lo:hi])

    def _iter_terms(self, terms, t0, t1, max_severity=None):
        """AND of the terms' postings, shortest list first; only the
        documents every list names are looked up and cut."""
        lists = sorted((self._postings.get(t, ()) for t in terms), key=len)
        ids = lists[0]  # one term: its postings, ascending as appended
        if len(lists) > 1:
            found = set(ids)
            for lst in lists[1:]:
                if not found:
                    break
                found &= set(lst)
            ids = sorted(found)
        docs = map(self._docs.__getitem__, ids)
        if t0 is not None or t1 is not None:
            lo = t0 if t0 is not None else float("-inf")
            hi = t1 if t1 is not None else float("inf")
            docs = (d for d in docs if lo <= d.message.timestamp < hi)
        if max_severity is not None:
            docs = (d for d in docs if d.message.severity <= max_severity)
        return docs

    def iter_documents(self):
        """Iterate every document in doc-id order (checkpoint path)."""
        return iter(self._docs)

    # what the engine asks a store for now, answered by the bodies above:
    # here a hit is the document itself, so there is nothing left to build
    _range_hits = _iter_range
    _term_hits = _iter_terms

    def _documents(self, hits):
        return hits

    # -- the engine's count-only aggregations, over documents as they were --

    def terms_aggregation(self, field_name, *, top=10, t0=None, t1=None):
        if field_name not in ("hostname", "app", "category"):
            raise ValueError(f"cannot aggregate on field {field_name!r}")
        docs = self._iter_range(t0, t1)
        if field_name == "category":
            by_category = _Counter(map(attrgetter("category"), docs))
            by_category.pop(None, None)  # not yet classified
            counts = [(c.value, n) for c, n in by_category.items()]
        else:
            counts = _Counter(map(attrgetter("message." + field_name), docs)).items()
        return sorted(counts, key=lambda kv: (-kv[1], kv[0]))[:top]

    def severity_histogram(self, *, t0=None, t1=None):
        return dict(_Counter(map(attrgetter("message.severity"), self._iter_range(t0, t1))))


class PerDocNode(StoreNode):
    """``StoreNode`` with the per-document write and promote it had,
    over a ``VersionedDoc`` per copy."""

    def __init__(self, node_id, n_shards):
        self.node_id = node_id
        self.n_shards = n_shards
        self.down = False
        self._docs: dict[int, VersionedDoc] = {}
        self._shard_ids: dict[int, set[int]] = {}
        # acting-primary search index over primary shards only
        self.search_index = PerDocLogStore(n_shards=1)
        self._local_gids: list[int] = []  # local doc id -> global doc id
        self._local_of: dict[int, int] = {}  # global doc id -> local
        self.primary_shards: set[int] = set()

    def kill(self, *, wipe=True):
        self.down = True
        if wipe:
            self._docs.clear()
            self._shard_ids.clear()
            self.search_index = PerDocLogStore(n_shards=1)
            self._local_gids.clear()
            self._local_of.clear()
            self.primary_shards.clear()

    def put_many(self, doc_ids, messages, tokens):
        self.ping()
        docs, n_shards, shard_ids = self._docs, self.n_shards, self._shard_ids
        primary = self.primary_shards
        to_index = []
        for row in zip(doc_ids, messages, tokens):
            doc_id, message, _ = row
            docs[doc_id] = VersionedDoc(message, None, 1)
            shard = doc_id % n_shards
            try:
                shard_ids[shard].add(doc_id)
            except KeyError:
                shard_ids[shard] = {doc_id}
            if shard in primary:
                to_index.append(row)
        if to_index:
            self._index_rows(*zip(*to_index))

    def _index_rows(self, doc_ids, messages, tokens, categories=None):
        # the id maps as they were: a list and a dict of int objects
        local_ids = self.search_index.index_many(messages, tokens, categories)
        self._local_gids.extend(doc_ids)
        self._local_of.update(zip(doc_ids, local_ids))

    def put(self, doc_id, message, category, version, *, tokens=None):
        self.ping()
        shard = doc_id % self.n_shards
        existing = self._docs.get(doc_id)
        if existing is not None and existing.version >= version:
            return False
        if existing is None:
            self._shard_ids.setdefault(shard, set()).add(doc_id)
        self._docs[doc_id] = VersionedDoc(
            message=message, category=category, version=version
        )
        # "or resident": the one line that is not as it was — a copy
        # refreshed while its shard is demoted must relabel its index entry
        # (StoreNode.put has the same fix; see TestStaleResidents)
        if shard in self.primary_shards or doc_id in self._local_of:
            self._index_doc(doc_id, message, category, tokens)
        return True

    def _index_doc(self, doc_id, message, category, tokens):
        local = self._local_of.get(doc_id)
        if local is not None:
            if category is not None:
                self.search_index.set_category(local, category)
            return
        local = self.search_index.index(message, category, _tokens=tokens)
        self._local_gids.append(doc_id)
        self._local_of[doc_id] = local

    def promote(self, shard):
        self.ping()
        self.primary_shards.add(shard)
        n = 0
        for doc_id in sorted(self._shard_ids.get(shard, ())):
            if doc_id not in self._local_of:
                doc = self._docs[doc_id]
                self._index_doc(doc_id, doc.message, doc.category, None)
                n += 1
        return n

    def apply_category(self, doc_id, category, version):
        self.ping()
        doc = self._docs.get(doc_id)
        if doc is None or doc.version >= version:
            return False
        doc.category = category
        doc.version = version
        local = self._local_of.get(doc_id)
        if local is not None:
            self.search_index.set_category(local, category)
        return True

    def get(self, doc_id):
        self.ping()
        return self._docs.get(doc_id)

    def _resident_docs(self, docs, shards, numbered: bool):
        gids, n_shards = self._local_gids, self.n_shards
        for doc in docs:
            gid = gids[doc.doc_id]
            if gid % n_shards in shards:
                yield LogDocument(gid, doc.message, doc.category) if numbered else doc

    def shard_doc_ids(self, shard):
        return self._shard_ids.get(shard, set())

    def copy_of(self, doc_id):
        return self._docs.get(doc_id)

    def seq_digest(self, shard):
        ids = self._shard_ids.get(shard, ())
        checksum = 0
        for doc_id in ids:
            doc = self._docs[doc_id]
            checksum ^= zlib.crc32(f"{doc_id}:{doc.version}".encode())
        return (len(ids), checksum)

    def __len__(self):
        return len(self._docs)

    def global_docs(self, result_docs) -> list[LogDocument]:
        """Map search-index hits back to globally-numbered documents."""
        return [
            LogDocument(
                doc_id=self._local_gids[d.doc_id],
                message=d.message,
                category=d.category,
            )
            for d in result_docs
        ]


class PerDocStore(ReplicatedLogStore):
    """``ReplicatedLogStore`` with the per-document ``bulk_index`` it had."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # same roles, per-document members (the store is still empty)
        members = [PerDocNode(n.node_id, n.n_shards) for n in self.nodes]
        for old, new in zip(self.nodes, members):
            new.primary_shards |= old.primary_shards
        self.nodes = members

    def _available_nodes(self, *, slow: set[int] = frozenset()) -> set[int]:
        """Breaker-gated reachability probe of every node.

        One probe per node per call: an open breaker skips the node
        without touching it (fail-fast); a closed or half-open breaker
        attempts the probe and records the outcome.  A probe success on
        a non-closed breaker is a *rejoin* — the node was written off
        and is back — which replays its hints and anti-entropy-syncs it
        before it serves again.  A live node whose breaker never opened
        (one timed-out probe) only has its hints replayed: it stayed an
        acting primary throughout, so until then it serves reads short
        of the documents it was hinted.
        """
        live: set[int] = set()
        rejoined: list[int] = []
        for nid in range(len(self.nodes)):
            breaker = self.breakers[nid]
            if not breaker.allow():
                continue
            was = breaker.state
            if nid in slow:
                self._m_timeouts.inc(node=str(nid))
                breaker.record_failure()
            elif self._reachable(nid):
                breaker.record_success()
                if was != BREAKER_CLOSED:
                    rejoined.append(nid)
                live.add(nid)
            else:
                breaker.record_failure()
        for nid in rejoined:
            self._rejoin(nid)
        for nid in sorted(live):
            self._replay_hints(nid)
        if live != self._last_live:
            self._last_live = frozenset(live)
            self._rebalance()
        return live

    def set_category(self, doc_id: int, category: Category) -> None:
        """Attach a classifier verdict, version-bumped, to all owners.

        Unreachable owners are hinted; a rejoined owner converges via
        hint replay (which re-reads the latest copy) or anti-entropy.

        Raises
        ------
        IndexError
            Unknown doc id (matching :meth:`get`); nothing is touched.
        """
        if not 0 <= doc_id < len(self._versions):
            raise IndexError(f"doc id {doc_id} out of range")
        version = self._versions[doc_id] + 1
        self._versions[doc_id] = version
        for owner in self.placement.owner_table[doc_id % self.n_shards]:
            node = self.nodes[owner]
            if not self._reachable(owner):
                self._hint(owner, doc_id)
                continue
            if not node.apply_category(doc_id, category, version):
                if node.copy_of(doc_id) is None:
                    # the owner missed the original write too
                    self._hint(owner, doc_id)

    def _owners(self, shard):
        """``ShardPlacement.owners`` as it was: derived on every call."""
        p = self.placement
        if not 0 <= shard < p.n_shards:
            raise ValueError(f"shard must be in [0, {p.n_shards}), got {shard}")
        return tuple((shard + i) % p.n_nodes for i in range(p.copies))

    def bulk_index(self, messages):
        t0 = time.perf_counter()
        self._ops += 1
        slow = self._check_fault_sites()
        live = self._available_nodes(slow=slow)
        # settle write availability per shard before touching any node
        batch_shards = {
            (len(self._versions) + i) % self.n_shards
            for i in range(len(messages))
        }
        for shard in sorted(batch_shards):
            owners = self._owners(shard)
            n_live = sum(1 for o in owners if o in live)
            if n_live < self.write_quorum:
                self._m_quorum_failures.inc(op="write")
                raise QuorumError("write", shard, self.write_quorum, n_live)
        # one analysis per document, on the coordinator: the acting
        # primary indexes with these tokens, replicas store the document
        analyzed = [store_mod._analyze(m.text) for m in messages]
        for message, tokens in zip(messages, analyzed):
            doc_id = len(self._versions)
            self._versions.append(1)
            shard = doc_id % self.n_shards
            for owner in self._owners(shard):
                if owner in live:
                    self.nodes[owner].put(
                        doc_id, message, None, 1, tokens=tokens
                    )
                else:
                    self._hint(owner, doc_id)
        wall = time.perf_counter() - t0
        self._m_write_seconds.observe(wall)
        ctxs, clock = carried()
        if ctxs:
            now = clock()
            for ctx in ctxs:
                record_hop(
                    ctx, "store.quorum_write", now,
                    docs=len(messages), quorum=self.write_quorum,
                    wall_ms=round(wall * 1e3, 3),
                )
        return True

    # -- the engine's primitives as they were: documents, renumbered per hit

    def _from_primaries(self, read, numbered: bool):
        acting: dict[int, set[int]] = {}
        for shard, nid in self._primary.items():
            if nid is not None and not self.nodes[nid].down:
                acting.setdefault(nid, set()).add(shard)
        for nid in sorted(acting):
            node = self.nodes[nid]
            yield from node._resident_docs(
                read(node.search_index), acting[nid], numbered
            )

    def _iter_range(self, t0, t1):
        return self._from_primaries(lambda index: index._iter_range(t0, t1), numbered=False)

    def _numbered_range(self, t0, t1):
        docs = self._from_primaries(lambda index: index._iter_range(t0, t1), numbered=True)
        return sorted(docs, key=lambda d: (d.message.timestamp, d.doc_id))

    def _iter_terms(self, terms, t0, t1, max_severity=None):
        # every cut is made at each index, before a hit is renumbered
        docs = self._from_primaries(
            lambda index: index._iter_terms(terms, t0, t1, max_severity), numbered=True
        )
        return sorted(docs, key=attrgetter("doc_id"))

    # what the engine asks a store for now: a hit is the document itself
    _range_hits = _numbered_range
    _term_hits = _iter_terms

    def _documents(self, hits):
        return hits

    # -- the read path as it was: term_query over the acting primaries, the
    # -- three aggregations re-derived from every copy of every shard

    def term_query(
        self,
        term: str,
        *,
        t0: float | None = None,
        t1: float | None = None,
        limit: int | None = None,
        max_severity: "Severity | None" = None,
    ) -> QueryResult:
        """Fan a term query out to the acting primary of each shard."""
        hits: list[LogDocument] = []
        for nid in {
            p for p in self._primary.values() if p is not None
        }:
            node = self.nodes[nid]
            if node.down:
                continue
            result = node.search_index.term_query(
                term, t0=t0, t1=t1, max_severity=max_severity
            )
            for doc in node.global_docs(result.docs):
                # ownership filter: only the shard's current acting
                # primary contributes it (a demoted index may retain
                # stale residents; they are skipped here)
                if self._primary.get(doc.doc_id % self.n_shards) == nid:
                    hits.append(doc)
        hits.sort(key=lambda d: d.doc_id)
        total = len(hits)
        if limit is not None:
            hits = hits[:limit]
        return QueryResult(docs=tuple(hits), total=total)

    def _iter_copies(self, t0: float | None, t1: float | None):
        """Documents in range via each shard's first reachable owner."""
        lo = t0 if t0 is not None else float("-inf")
        hi = t1 if t1 is not None else float("inf")
        for shard in range(self.n_shards):
            reader = next(
                (
                    o
                    for o in self.placement.owners(shard)
                    if self._reachable(o)
                ),
                None,
            )
            if reader is None:
                continue
            node = self.nodes[reader]
            for doc_id in node.shard_doc_ids(shard):
                copy = node.copy_of(doc_id)
                if copy is not None and lo <= copy.message.timestamp < hi:
                    yield copy

    def terms_aggregation(
        self,
        field_name: str,
        *,
        top: int = 10,
        t0: float | None = None,
        t1: float | None = None,
    ) -> list[tuple[str, int]]:
        """Top field values merged across shard owners (count-only)."""
        if field_name not in ("hostname", "app", "category"):
            raise ValueError(f"cannot aggregate on field {field_name!r}")
        counter: _Counter[str] = _Counter()
        for copy in self._iter_copies(t0, t1):
            if field_name == "category":
                if copy.category is not None:
                    counter[copy.category.value] += 1
            else:
                counter[getattr(copy.message, field_name)] += 1
        return counter.most_common(top)

    def severity_histogram(
        self, *, t0: float | None = None, t1: float | None = None
    ) -> dict[Severity, int]:
        """Document counts per severity, merged across shard owners."""
        out: dict[Severity, int] = {}
        for copy in self._iter_copies(t0, t1):
            sev = copy.message.severity
            out[sev] = out.get(sev, 0) + 1
        return out

    def date_histogram(
        self,
        *,
        interval_s: float,
        t0: float | None = None,
        t1: float | None = None,
        term: str | None = None,
    ) -> list[DateHistogramBucket]:
        """Counts per fixed interval, merged across shard owners."""
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if term is not None:
            times = sorted(
                d.message.timestamp
                for d in self.term_query(term, t0=t0, t1=t1).docs
            )
        else:
            times = sorted(
                c.message.timestamp for c in self._iter_copies(t0, t1)
            )
        if not times:
            return []
        start = (t0 if t0 is not None else times[0]) // interval_s * interval_s
        counts: _Counter[int] = _Counter(
            int((t - start) // interval_s) for t in times
        )
        n_buckets = int((times[-1] - start) // interval_s) + 1
        return [
            DateHistogramBucket(
                start=start + b * interval_s, count=counts.get(b, 0)
            )
            for b in range(n_buckets)
        ]
