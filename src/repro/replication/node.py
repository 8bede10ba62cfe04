"""One storage node: a versioned document copy plus a search index.

A node holds two structures with different jobs:

- the **replica map** — ``doc_id → (message, category, version)`` for
  every shard the node owns, as three dense columns per shard (row
  ``doc_id // n_shards``): cheap to write (three list extends a shard),
  compared by anti-entropy digests, consulted by quorum reads.  No
  object stands for a copy; a :class:`VersionedDoc` is built on read.
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
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, cycle, repeat

from repro.core.taxonomy import Category
from repro.core.message import SyslogMessage
from repro.stream.opensearch import LogStore

__all__ = ["NodeDownError", "StoreNode", "VersionedDoc"]


class NodeDownError(RuntimeError):
    """An operation reached a node that is down (simulated timeout)."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"store node {node_id} is down")
        self.node_id = node_id


@dataclass(slots=True)
class VersionedDoc:
    """One node's copy of a document, built when it is read
    (:meth:`StoreNode.copy_of`): changing one changes no node.

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
        self.primary_shards: set[int] = set()
        self._reset()

    def _reset(self) -> None:
        """The state of a new node, and of a wiped one."""
        # the replica map: per shard, (messages, categories, versions) by
        # row; version 0 is the hole a write the node missed leaves
        self._columns = [([], [], []) for _ in range(self.n_shards)]
        # acting-primary search index over primary shards only
        self.search_index = LogStore(n_shards=1)
        # the local <-> global id maps, as machine words: local doc id ->
        # global doc id, and global doc id -> local (-1: not indexed here)
        self._local_gids = array("Q")
        self._local_of = array("q")
        self.primary_shards.clear()

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
            self._reset()

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
        the documents of the batch that route to this node's shards (at
        least one), in doc-id order and new to the node.  They land at
        version 1 with no category — one liveness check, one slice of the
        run per shard onto the end of that shard's columns, and one
        :meth:`LogStore.index_many` for the rows of shards the node is
        acting primary for.  Refreshing a copy the node may already hold
        is :meth:`put`'s job.
        """
        if self.down:  # ping()
            raise NodeDownError(self.node_id)
        n_shards, columns, primary = self.n_shards, self._columns, self.primary_shards
        # a batch's ids are consecutive, so its run walks the node's shards
        # in a cycle: rows k, k + period, ... are of one shard
        period = bisect_left(doc_ids, doc_ids[0] + n_shards)
        # a trickle has a row a shard: appended and picked, not sliced and
        # compressed, which costs a 3-line flush a quarter more (11 -> 14 us a line)
        sliced = period < len(doc_ids)
        picked = []  # of the cycle's rows, those of shards this node leads
        for k, doc_id in enumerate(doc_ids[:period]):
            row, shard = divmod(doc_id, n_shards)
            stored, categories, versions = columns[shard]
            if len(versions) < row:
                self._rows(shard, row)
            if sliced:
                run = messages[k::period]
                stored += run
                categories += repeat(None, len(run))
                versions += repeat(1, len(run))
            else:
                stored.append(messages[k])
                categories.append(None)
                versions.append(1)
            if shard in primary:
                picked.append(k)
        if not picked:
            return
        rows = doc_ids, messages, tokens
        if len(picked) < period and sliced:
            keep = [k in picked for k in range(period)]
            rows = [list(compress(column, cycle(keep))) for column in rows]
        elif len(picked) < period:
            rows = [[column[k] for k in picked] for column in rows]
        self._index_rows(*rows)

    def _rows(self, shard: int, n_rows: int):
        """The shard's columns, at least ``n_rows`` long: the rows a
        write skips over are holes until hint replay or repair fills them."""
        columns = self._columns[shard]
        short = n_rows - len(columns[2])
        if short > 0:
            for column, hole in zip(columns, (None, None, 0)):
                column += repeat(hole, short)
        return columns

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
        row, shard = divmod(doc_id, self.n_shards)
        messages, categories, versions = self._rows(shard, row + 1)
        if versions[row] >= version:
            return False
        messages[row], categories[row], versions[row] = message, category, version
        local = self._local(doc_id)
        if local >= 0:
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
        if self.down:  # ping()
            raise NodeDownError(self.node_id)
        row, shard = divmod(doc_id, self.n_shards)
        _, categories, versions = self._columns[shard]
        if row >= len(versions) or not 0 < versions[row] < version:
            return False
        categories[row], versions[row] = category, version
        local_of = self._local_of  # _local(doc_id), inlined: this runs per copy per label
        local = local_of[doc_id] if 0 <= doc_id < len(local_of) else -1
        if local >= 0:
            self.search_index.set_category(local, category)
        return True

    def _local(self, doc_id: int) -> int:
        """The document's id in the search index; -1 when not indexed here."""
        local_of = self._local_of
        return local_of[doc_id] if 0 <= doc_id < len(local_of) else -1

    def _index_rows(self, doc_ids, messages, tokens, categories=None) -> None:
        """Add not-yet-indexed documents, in doc-id order, to the search
        index, keeping the local <-> global id maps in step."""
        local_ids = self.search_index.index_many(messages, tokens, categories)
        if not local_ids:
            return
        self._local_gids.extend(doc_ids)
        local_of = self._local_of
        short = doc_ids[-1] + 1 - len(local_of)
        if short > 0:
            local_of.extend(repeat(-1, short))
        for doc_id, local in zip(doc_ids, local_ids):
            local_of[doc_id] = local

    # -- reads -------------------------------------------------------------

    def get(self, doc_id: int) -> VersionedDoc | None:
        """This node's copy of the document, or None when absent."""
        self.ping()
        return self.copy_of(doc_id)

    def _residents(self, ids, shards) -> list[int]:
        """Of ``ids`` read from the search index, in its own numbering,
        those whose documents are of ``shards``."""
        gids, n_shards = self._local_gids, self.n_shards
        return [i for i in ids if gids[i] % n_shards in shards]

    def _held_rows(self, shard: int):
        """``(doc id, version)`` of every copy held for ``shard``, ascending."""
        n_shards, versions = self.n_shards, self._columns[shard][2]
        return ((row * n_shards + shard, v) for row, v in enumerate(versions) if v)

    def shard_doc_ids(self, shard: int) -> set[int]:
        """Document ids this node holds for ``shard`` (live or not —
        anti-entropy planning reads peers while a node is being
        compared, not written)."""
        return {doc_id for doc_id, _version in self._held_rows(shard)}

    def copy_of(self, doc_id: int) -> VersionedDoc | None:
        """Liveness-unchecked read for anti-entropy source traversal."""
        row, shard = divmod(doc_id, self.n_shards)
        messages, categories, versions = self._columns[shard]
        if 0 <= row < len(versions) and versions[row]:
            return VersionedDoc(messages[row], categories[row], versions[row])
        return None

    # -- roles -------------------------------------------------------------

    def promote(self, shard: int) -> int:
        """Become acting primary for ``shard``; returns docs indexed.

        Builds the missing slice of the search index from the replica
        map (in doc-id order, so local ordering matches global).
        """
        self.ping()
        self.primary_shards.add(shard)
        missing = [
            doc_id for doc_id, _version in self._held_rows(shard)
            if self._local(doc_id) < 0
        ]
        messages, categories, _ = self._columns[shard]
        rows = [doc_id // self.n_shards for doc_id in missing]
        self._index_rows(
            missing, [messages[r] for r in rows], None, [categories[r] for r in rows]
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
        count = checksum = 0
        for doc_id, version in self._held_rows(shard):
            count += 1
            checksum ^= zlib.crc32(f"{doc_id}:{version}".encode())
        return (count, checksum)

    # -- stats -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(versions) - versions.count(0) for _, _, versions in self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.down else "up"
        return (
            f"StoreNode(id={self.node_id}, {state}, docs={len(self)}, "
            f"primary_shards={sorted(self.primary_shards)})"
        )
