"""One storage node: a versioned document copy plus a search index.

A node holds two structures with different jobs:

- the **replica map** — ``doc_id → (message, category, version)`` for
  every shard the node owns.  This is the durability structure: cheap
  to write (a dict put), compared byte-for-byte by anti-entropy
  digests, and the thing quorum reads consult.
- the **search index** — a full :class:`~repro.stream.opensearch.
  LogStore` holding only the shards the node is *acting primary* for.
  Inverted-index maintenance is the expensive part of a write, so
  replicas don't pay it; when a replica is promoted after a primary
  failure it builds the index for the new shard from its replica map
  (the catch-up cost of failover, not of every write).  This mirrors
  how real engines replicate the document log and treat index
  structures as node-local derived state.

All node operations raise :class:`NodeDownError` while the node is
down, so the coordinator's health tracking sees failures exactly where
a remote store would produce timeouts.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.taxonomy import Category
from repro.core.message import SyslogMessage
from repro.stream.opensearch import LogDocument, LogStore

__all__ = ["NodeDownError", "StoreNode", "VersionedDoc"]


class NodeDownError(RuntimeError):
    """An operation reached a node that is down (simulated timeout)."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"store node {node_id} is down")
        self.node_id = node_id


@dataclass(slots=True)
class VersionedDoc:
    """One node's copy of a document.

    ``version`` starts at 1 when the document is first indexed and is
    bumped by every category update, so divergent copies (a node missed
    a write while down) are ordered: highest version wins, and equal
    versions are byte-identical by construction (the coordinator is the
    single writer).
    """

    message: SyslogMessage
    category: Category | None
    version: int


class StoreNode:
    """One member of a :class:`~repro.replication.ReplicatedLogStore`."""

    def __init__(self, node_id: int, n_shards: int) -> None:
        self.node_id = node_id
        self.n_shards = n_shards
        self.down = False
        self._docs: dict[int, VersionedDoc] = {}
        self._shard_ids: dict[int, set[int]] = {}
        # acting-primary search index over primary shards only
        self.search_index = LogStore(n_shards=1)
        self._local_gids: list[int] = []  # local doc id -> global doc id
        self._local_of: dict[int, int] = {}  # global doc id -> local
        self.primary_shards: set[int] = set()

    # -- liveness ----------------------------------------------------------

    def ping(self) -> None:
        """Raise :class:`NodeDownError` when the node is unreachable."""
        if self.down:
            raise NodeDownError(self.node_id)

    def kill(self, *, wipe: bool = True) -> None:
        """Take the node down; ``wipe`` loses its state (SIGKILL-style,
        disk and all) so recovery must come from its peers."""
        self.down = True
        if wipe:
            self._docs.clear()
            self._shard_ids.clear()
            self.search_index = LogStore(n_shards=1)
            self._local_gids.clear()
            self._local_of.clear()
            self.primary_shards.clear()

    def restart(self) -> None:
        """Bring the node back up (possibly empty; peers re-seed it)."""
        self.down = False

    # -- writes ------------------------------------------------------------

    def put_many(
        self,
        doc_ids: Sequence[int],
        messages: Sequence[SyslogMessage],
        tokens: Sequence[tuple[str, ...]],
    ) -> None:
        """Store this node's run of one freshly written batch.

        The quorum write's one call per owner: three parallel columns,
        the documents of the batch that route to this node's shards, in
        doc-id order and new to the node.  They land at version 1 with
        no category — one liveness check, one pass over the run for the
        replica map and the per-shard id sets, and one
        :meth:`LogStore.index_many` for the rows of shards the node is
        acting primary for.  Refreshing a copy the node may already hold
        is :meth:`put`'s job.
        """
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

    def put(
        self,
        doc_id: int,
        message: SyslogMessage,
        category: Category | None,
        version: int,
    ) -> bool:
        """Store (or refresh) one document copy; False when stale.

        Idempotent and monotone: a copy at ``version`` or newer is left
        untouched, so read repair, hint replay and anti-entropy can push
        the same document any number of times.
        """
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
        local = self._local_of.get(doc_id)
        if local is not None:
            # a resident of the index follows its copy whether or not the
            # node acts for the shard right now: promote re-indexes only
            # what is missing, so a label skipped here would stay stale
            if category is not None:
                self.search_index.set_category(local, category)
        elif shard in self.primary_shards:
            self._index_rows([doc_id], [message], None, [category])
        return True

    def apply_category(self, doc_id: int, category: Category, version: int) -> bool:
        """Attach a later-version category; False when unknown/stale."""
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

    def _index_rows(self, doc_ids, messages, tokens, categories=None) -> None:
        """Add not-yet-indexed documents to the search index, keeping
        the local <-> global id maps in step."""
        local_ids = self.search_index.index_many(messages, tokens, categories)
        self._local_gids.extend(doc_ids)
        self._local_of.update(zip(doc_ids, local_ids))

    # -- reads -------------------------------------------------------------

    def get(self, doc_id: int) -> VersionedDoc | None:
        """This node's copy of the document, or None when absent."""
        self.ping()
        return self._docs.get(doc_id)

    def _resident_docs(self, docs, shards, numbered: bool):
        """Of ``docs`` read from the search index, those of ``shards``.

        The index numbers its documents locally; ``numbered`` maps each
        one kept back to a globally-numbered :class:`LogDocument`, and
        otherwise the index's own document is yielded untouched — what a
        count-only aggregation wants, which reads no doc id.
        """
        gids, n_shards = self._local_gids, self.n_shards
        for doc in docs:
            gid = gids[doc.doc_id]
            if gid % n_shards in shards:
                yield LogDocument(gid, doc.message, doc.category) if numbered else doc

    def shard_doc_ids(self, shard: int) -> set[int]:
        """Document ids this node holds for ``shard`` (live or not —
        anti-entropy planning reads peers while a node is being
        compared, not written)."""
        return self._shard_ids.get(shard, set())

    def copy_of(self, doc_id: int) -> VersionedDoc | None:
        """Liveness-unchecked read for anti-entropy source traversal."""
        return self._docs.get(doc_id)

    # -- roles -------------------------------------------------------------

    def promote(self, shard: int) -> int:
        """Become acting primary for ``shard``; returns docs indexed.

        Builds the missing slice of the search index from the replica
        map (in doc-id order, so local ordering matches global).
        """
        self.ping()
        self.primary_shards.add(shard)
        missing = [
            doc_id
            for doc_id in sorted(self._shard_ids.get(shard, ()))
            if doc_id not in self._local_of
        ]
        docs = [self._docs[doc_id] for doc_id in missing]
        self._index_rows(
            missing, [d.message for d in docs], None, [d.category for d in docs]
        )
        return len(missing)

    def demote(self, shard: int) -> None:
        """Stop acting as primary for ``shard``.

        Already-indexed documents stay in the search index (rebuilding
        without them would cost more than they do); the coordinator
        only routes a shard's queries to its current acting primary,
        so stale residents are never double-read.
        """
        self.primary_shards.discard(shard)

    # -- anti-entropy ------------------------------------------------------

    def seq_digest(self, shard: int) -> tuple[int, int]:
        """Order-independent ``(count, checksum)`` digest of a shard.

        Two nodes hold identical shard contents iff their digests match
        (up to CRC collisions): the checksum XORs a CRC32 of every
        ``doc_id:version`` pair, so any missing document or stale
        version shows up without shipping the documents themselves.
        """
        ids = self._shard_ids.get(shard, ())
        checksum = 0
        for doc_id in ids:
            doc = self._docs[doc_id]
            checksum ^= zlib.crc32(f"{doc_id}:{doc.version}".encode())
        return (len(ids), checksum)

    # -- stats -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.down else "up"
        return (
            f"StoreNode(id={self.node_id}, {state}, docs={len(self._docs)}, "
            f"primary_shards={sorted(self.primary_shards)})"
        )
