"""The per-document quorum write, kept as the oracle for the columnar one.

``PerDocStore`` writes the way ``ReplicatedLogStore`` did before its
``bulk_index`` went columnar: document by document and owner by owner
through ``StoreNode.put(..., tokens=...)``, postings maintained token by
token with a fresh ``seen`` set per document.  The bodies of
``bulk_index``, ``put``, ``_index_doc``, ``promote`` and ``index`` below
are those routines verbatim; nothing here calls ``put_many``,
``index_many``, the owner table or a template plan.  Liveness, hints,
reads, repair and queries are inherited — they are not what changed.

Used by ``test_store_oracle.py`` (state equality after every step), by
``test_perf_smoke.py::TestStoreWriteFloors`` and by
``benchmarks/bench_replication_overhead.py`` (the cost beside it).
"""

from __future__ import annotations

import time

from repro.obs.propagation import carried, record_hop
from repro.replication import ReplicatedLogStore, StoreNode
from repro.replication import store as store_mod
from repro.replication.node import VersionedDoc
from repro.replication.store import QuorumError
from repro.stream import opensearch
from repro.stream.opensearch import LogDocument, LogStore


class PerDocLogStore(LogStore):
    """``LogStore`` with the per-document ``index`` it had."""

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


class PerDocNode(StoreNode):
    """``StoreNode`` with the per-document write and promote it had."""

    def __init__(self, node_id, n_shards):
        super().__init__(node_id, n_shards)
        self.search_index = PerDocLogStore(n_shards=1)

    def kill(self, *, wipe=True):
        super().kill(wipe=wipe)
        if wipe:
            self.search_index = PerDocLogStore(n_shards=1)

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
        if shard in self.primary_shards:
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


class PerDocStore(ReplicatedLogStore):
    """``ReplicatedLogStore`` with the per-document ``bulk_index`` it had."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # same roles, per-document members (the store is still empty)
        members = [PerDocNode(n.node_id, n.n_shards) for n in self.nodes]
        for old, new in zip(self.nodes, members):
            new.primary_shards |= old.primary_shards
        self.nodes = members

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
