"""The replicated log store: quorum writes/reads over N store nodes.

The paper's Tivan backend is an OpenSearch service "deployed across 6
of the Dell servers" (§4.2) — a replicated store, not a single
process.  :class:`ReplicatedLogStore` is the coordinator in front of N
:class:`~repro.replication.node.StoreNode` members:

- **placement** — static ring preference lists (primary + replicas per
  shard, :class:`~repro.replication.placement.ShardPlacement`),
- **quorum writes** — a batch is acknowledged only when every document
  in it landed on at least W owner nodes; fewer reachable owners fail
  the whole batch with :class:`QuorumError` *before any node mutates*,
  so the Fluentd retry/DLQ machinery sees a clean failed flush, never
  a half-acknowledged batch,
- **quorum reads** — :meth:`get` consults R owner copies, returns the
  highest version, and *read-repairs* any stale or missing copy it saw,
- **health** — one deterministic-clock
  :class:`~repro.replication.health.CircuitBreaker` per node; open
  circuits are skipped on the spot, half-open circuits admit a probe
  whose success triggers the rejoin path,
- **hinted handoff** — writes an unreachable owner missed are queued
  (bounded, drop-oldest) and replayed when the node rejoins — or, for a
  node whose breaker never opened, at the next batch that finds it live,
- **anti-entropy** — per-shard ``(count, checksum)`` seq digests
  compared between owners; mismatched shards are merged
  highest-version-wins, which is what reconverges a node that rejoined
  empty after a SIGKILL-style wipe,
- **queries** — none of its own: the seven ``LogStore`` queries are
  inherited from the engine both stores share
  (``repro.stream.opensearch._Queries``), and the coordinator supplies
  that engine's primitives by fanning out to each shard's acting
  primary's search index.

Every decision is surfaced through the ``repro_store_*`` metric
families, and the seedable fault sites ``store.node_down``,
``store.node_slow``, and ``store.partition`` let the chaos suite
exercise failover deterministically.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from functools import partial
from itertools import compress, cycle, repeat
from operator import itemgetter

from repro.core.message import SyslogMessage
from repro.core.taxonomy import Category
from repro.faults.plan import SITE_NODE_DOWN, SITE_NODE_SLOW, SITE_PARTITION
from repro.obs import wellknown
from repro.obs.propagation import carried, record_hop
from repro.replication.health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.replication.node import StoreNode
from repro.replication.placement import ShardPlacement
from repro.stream.opensearch import LogDocument, _analyze, _Queries

__all__ = ["QuorumError", "ReplicatedLogStore"]


#: the slow-node set of a batch no fault site touches
_NO_NODES: frozenset[int] = frozenset()


class QuorumError(RuntimeError):
    """Too few reachable owner nodes to satisfy a quorum.

    Raised *before* any node mutates (writes) or any repair is applied
    (reads), so a failed operation leaves the cluster exactly as it
    found it.
    """

    def __init__(self, op: str, shard: int, needed: int, available: int) -> None:
        super().__init__(
            f"{op} quorum unavailable for shard {shard}: need {needed} "
            f"owner nodes, only {available} reachable"
        )
        self.op = op
        self.shard = shard
        self.needed = needed
        self.available = available


class ReplicatedLogStore(_Queries):
    """Coordinator over N replicated :class:`StoreNode` members.

    Implements the :class:`~repro.stream.opensearch.LogStore` surface
    the stream layer relies on (``bulk_index``, ``get``,
    ``set_category``, ``__len__``) and inherits its queries, so it drops
    in as the Fluentd sink and the Tivan cluster's store.  Queries are
    answered by each shard's acting primary, without a quorum: a shard
    with no reachable owner contributes nothing, and nothing raises.

    Parameters
    ----------
    n_nodes:
        Store nodes (the paper's deployment: 6 data nodes).
    n_shards:
        Document shards spread over the nodes.
    n_replicas:
        Copies per shard beyond the primary (replication factor is
        ``n_replicas + 1``).
    write_quorum, read_quorum:
        W and R.  Defaults are majority of the replication factor;
        ``W + R > n_replicas + 1`` gives read-your-writes.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; checked once per
        ``bulk_index`` call at the three ``store.*`` sites.
    clock:
        Deterministic time source for the circuit breakers (a
        simulation passes its event-engine clock); defaults to an
        internal operation counter.
    breaker_failures, breaker_reset:
        Circuit-breaker tuning (consecutive failures to open; clock
        units before a half-open probe).
    hint_limit:
        Max hinted-handoff entries buffered per node; the oldest hint
        is dropped (and counted) beyond it — anti-entropy still
        repairs dropped hints at rejoin.
    registry:
        Metrics registry (default: the process registry).
    """

    def __init__(
        self,
        *,
        n_nodes: int = 3,
        n_shards: int = 6,
        n_replicas: int = 1,
        write_quorum: int | None = None,
        read_quorum: int | None = None,
        fault_injector=None,
        clock=None,
        breaker_failures: int = 3,
        breaker_reset: float = 30.0,
        hint_limit: int = 10_000,
        registry=None,
    ) -> None:
        self.placement = ShardPlacement(
            n_nodes=n_nodes, n_shards=n_shards, n_replicas=n_replicas
        )
        copies = self.placement.copies
        majority = copies // 2 + 1
        self.write_quorum = majority if write_quorum is None else write_quorum
        self.read_quorum = majority if read_quorum is None else read_quorum
        if not 1 <= self.write_quorum <= copies:
            raise ValueError(
                f"write_quorum must be in [1, {copies}], got {self.write_quorum}"
            )
        if not 1 <= self.read_quorum <= copies:
            raise ValueError(
                f"read_quorum must be in [1, {copies}], got {self.read_quorum}"
            )
        if hint_limit < 1:
            raise ValueError(f"hint_limit must be >= 1, got {hint_limit}")
        self.n_shards = n_shards
        self.fault_injector = fault_injector
        self.hint_limit = hint_limit
        self.nodes = [StoreNode(i, n_shards) for i in range(n_nodes)]
        self._ops = 0
        self._clock = clock if clock is not None else (lambda: float(self._ops))
        self.breakers = [
            CircuitBreaker(
                failure_threshold=breaker_failures,
                reset_timeout=breaker_reset,
                clock=self._clock,
                on_transition=partial(self._on_breaker_transition, i),
            )
            for i in range(n_nodes)
        ]
        #: nodes administratively drained by the control plane
        self.quiesced: set[int] = set()
        self._versions: list[int] = []  # per global doc id
        self._hints: list[dict[int, None]] = [dict() for _ in range(n_nodes)]
        self._partitioned: set[int] = set()
        self._injected_down: set[int] = set()
        self._injection_partition = False
        self._rotation = 0  # deterministic victim choice for fault sites
        self._primary: dict[int, int | None] = {}
        self._last_live: frozenset[int] = frozenset()
        #: the last probe found every node live, every breaker closed with
        #: no failure counted and no hint queued: until a node goes down,
        #: a partition or a hint changes that, a probe would change nothing
        self._settled = False
        #: (first shard, shards) → the batch's shards with their owners,
        #: sorted, and per owner the rows it keeps (None: every row) —
        #: placement is static, so each shape is laid out once
        self._write_plans: dict[tuple[int, int], tuple] = {}
        self._m_node_up = wellknown.store_node_up(registry)
        self._m_write_seconds = wellknown.store_quorum_write_seconds(registry).labels()
        self._m_read_seconds = wellknown.store_quorum_read_seconds(registry)
        self._m_quorum_failures = wellknown.store_quorum_failures(registry)
        self._m_hints_queued = wellknown.store_hints_queued(registry)
        self._m_hints_replayed = wellknown.store_hints_replayed(registry)
        self._m_hints_dropped = wellknown.store_hints_dropped(registry)
        self._m_read_repairs = wellknown.store_read_repairs(registry)
        self._m_repair_docs = wellknown.store_repair_docs(registry)
        self._m_breaker_transitions = wellknown.store_breaker_transitions(registry)
        self._m_breaker_state = wellknown.store_breaker_state(registry)
        self._m_timeouts = wellknown.store_node_timeouts(registry)
        for i in range(n_nodes):
            self._m_node_up.set(1, node=str(i))
            self._m_breaker_state.set(0, node=str(i))
        self._rebalance()

    # -- liveness ----------------------------------------------------------

    #: breaker-state gauge encoding: closed < half-open < open severity
    _BREAKER_STATE_CODE = {
        BREAKER_CLOSED: 0,
        BREAKER_HALF_OPEN: 1,
        BREAKER_OPEN: 2,
    }

    def _on_breaker_transition(self, node_id: int, old: str, new: str) -> None:
        self._m_breaker_transitions.inc(state=new)
        self._m_breaker_state.set(
            self._BREAKER_STATE_CODE.get(new, 0), node=str(node_id)
        )

    def _reachable(self, node_id: int) -> bool:
        """Can the coordinator talk to the node right now?"""
        return (
            not self.nodes[node_id].down and node_id not in self._partitioned
        )

    def _readers(self, shard: int) -> list[int]:
        """The shard's reachable owners, in preference order."""
        return [
            o for o in self.placement.owner_table[shard] if self._reachable(o)
        ]

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
        nodes = self.nodes
        if self._settled and not slow:
            for node in nodes:
                if node.down:  # downed behind the coordinator's back
                    break
            else:
                return self._last_live
        live: set[int] = set()
        rejoined: list[int] = []
        partitioned = self._partitioned
        settled = not slow
        for nid, breaker in enumerate(self.breakers):
            if not breaker.allow():
                settled = False
                continue
            if nid in slow:
                self._m_timeouts.inc(node=str(nid))
                breaker.record_failure()
            elif not nodes[nid].down and nid not in partitioned:  # _reachable
                if breaker.state != BREAKER_CLOSED:
                    rejoined.append(nid)
                breaker.record_success()
                live.add(nid)
            else:
                breaker.record_failure()
                settled = False
        for nid in rejoined:
            self._rejoin(nid)
        hints = self._hints
        for nid in sorted(live):
            if hints[nid]:
                self._replay_hints(nid)
        if live != self._last_live:
            self._last_live = frozenset(live)
            self._rebalance()
        self._settled = settled and not any(hints)
        return live

    def quiesce_node(self, node_id: int) -> None:
        """Administratively drain a node (the control plane's demote).

        A quiesced node stays up and keeps serving reads/replica
        writes, but stops being *preferred* as an acting primary: its
        primaries are demoted and re-promoted onto non-quiesced owners
        where one is reachable.  Refuses to quiesce below the quorum
        floor — the control plane must never demote the store into
        unavailability.
        """
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"no such node: {node_id}")
        if node_id in self.quiesced:
            return
        floor = max(self.write_quorum, self.read_quorum)
        active = len(self.nodes) - len(self.quiesced)
        if active - 1 < floor:
            raise ValueError(
                f"cannot quiesce node {node_id}: would leave "
                f"{active - 1} active nodes under the quorum floor {floor}"
            )
        self.quiesced.add(node_id)
        self._rebalance()

    def activate_node(self, node_id: int) -> None:
        """Undo :meth:`quiesce_node`; the node is preferred again."""
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"no such node: {node_id}")
        if node_id not in self.quiesced:
            return
        self.quiesced.discard(node_id)
        self._rebalance()

    def _rebalance(self) -> None:
        """Reassign acting primaries: first reachable owner per shard.

        Non-quiesced owners are preferred; a shard whose reachable
        owners are all quiesced still gets one of them as acting
        primary — quiescing trades preference, never availability.
        """
        for shard in range(self.n_shards):
            readers = self._readers(shard)
            acting = next(
                (o for o in readers if o not in self.quiesced),
                readers[0] if readers else None,
            )
            previous = self._primary.get(shard)
            if acting == previous:
                continue
            if previous is not None and self._reachable(previous):
                self.nodes[previous].demote(shard)
            if acting is not None:
                self.nodes[acting].promote(shard)
            self._primary[shard] = acting

    # -- fault sites -------------------------------------------------------

    def _check_fault_sites(self) -> set[int]:
        """One arming check per ``store.*`` site; returns slow nodes.

        ``store.node_down`` toggles: it takes a rotating victim down
        (SIGKILL-style, state wiped) when all injection victims are up,
        and restarts the downed one otherwise — so a probabilistic plan
        produces kill/rejoin churn.  ``store.partition`` toggles a
        minority partition on and off.  ``store.node_slow`` makes one
        rotating node time out for the current batch.
        """
        inj = self.fault_injector
        if inj is None:
            return set()
        slow: set[int] = set()
        if inj.should_fire(SITE_NODE_DOWN):
            if self._injected_down:
                nid = min(self._injected_down)
                self._injected_down.discard(nid)
                self.restart_node(nid)
            else:
                nid = self._rotation % len(self.nodes)
                self._rotation += 1
                self._injected_down.add(nid)
                self.kill_node(nid)
        if inj.should_fire(SITE_PARTITION):
            if self._injection_partition:
                self.heal_partition()
                self._injection_partition = False
            else:
                minority = set(range(len(self.nodes)))
                majority_n = len(self.nodes) // 2 + 1
                reachable = set(sorted(minority)[:majority_n])
                self.set_partition(reachable)
                self._injection_partition = True
        if inj.should_fire(SITE_NODE_SLOW):
            slow.add(self._rotation % len(self.nodes))
            self._rotation += 1
        return slow

    # -- writes ------------------------------------------------------------

    def bulk_index(self, messages: Sequence[SyslogMessage]) -> bool:
        """Quorum-write a batch (the Fluentd sink contract).

        All-or-nothing: reachability is settled for the whole batch up
        front, so either every document lands on at least W owners (with
        hints queued for the unreachable ones) and the call returns
        True, or :class:`QuorumError` propagates with no node mutated.
        """
        t0 = time.perf_counter()
        self._ops += 1
        slow = self._check_fault_sites() if self.fault_injector is not None else _NO_NODES
        live = self._available_nodes(slow=slow)
        # settle write availability per shard before touching any node;
        # documents route by doc_id % n_shards, so the shards of the
        # first n_shards rows are the batch's, and they repeat in order
        n, first, n_shards = len(messages), len(self._versions), self.n_shards
        shape = (first % n_shards, n if n < n_shards else n_shards)
        plan = self._write_plans.get(shape)
        if plan is None:
            plan = self._write_plans[shape] = self._write_plan(*shape)
        shard_owners, owner_rows = plan
        for shard, owners in shard_owners:
            n_live = len(live.intersection(owners))
            if n_live < self.write_quorum:
                self._m_quorum_failures.inc(op="write")
                raise QuorumError("write", shard, self.write_quorum, n_live)
        # one analysis per document, on the coordinator: the acting
        # primary indexes with these tokens, replicas store the document
        analyzed = [_analyze(m.text) for m in messages]
        doc_ids = range(first, first + n)
        self._versions.extend(repeat(1, n))
        nodes, columns = self.nodes, (doc_ids, messages, analyzed)
        for owner, keep in owner_rows:
            # an owner of every shard of the batch is handed the batch's
            # own columns: cutting copies there costs a 3-document batch
            # 10% (bench_replication_overhead.py::TestStoreWriteFloors times both)
            run = columns
            if keep is not None:
                run = [list(compress(column, cycle(keep))) for column in columns]
            if owner in live:
                nodes[owner].put_many(*run)
            else:
                for doc_id in run[0]:
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

    def _write_plan(self, start: int, count: int) -> tuple:
        """Lay out a batch shape: ``count`` rows from shard ``start`` on."""
        row_shards = [(start + i) % self.n_shards for i in range(count)]
        table = self.placement.owner_table
        shard_owners = tuple((shard, table[shard]) for shard in sorted(row_shards))
        owner_rows = []
        for owner in range(len(self.nodes)):
            mine = frozenset(self.placement.shards_owned_by(owner))
            if mine.isdisjoint(row_shards):
                continue  # owns no shard of this batch
            keep = None if mine.issuperset(row_shards) else [s in mine for s in row_shards]
            owner_rows.append((owner, keep))
        return shard_owners, tuple(owner_rows)

    def index(self, message: SyslogMessage, category: Category | None = None) -> int:
        """Quorum-write one document; returns its global doc id."""
        doc_id = len(self._versions)
        self.bulk_index([message])
        if category is not None:
            self.set_category(doc_id, category)
        return doc_id

    def set_category(self, doc_id: int, category: Category) -> None:
        """Attach a classifier verdict, version-bumped, to all owners.

        Unreachable owners are hinted; a rejoined owner converges via
        hint replay (which re-reads the latest copy) or anti-entropy.

        Raises
        ------
        IndexError
            Unknown doc id (matching :meth:`get`); nothing is touched.
        """
        versions = self._versions
        if not 0 <= doc_id < len(versions):
            raise IndexError(f"doc id {doc_id} out of range")
        version = versions[doc_id] + 1
        versions[doc_id] = version
        nodes, partitioned = self.nodes, self._partitioned
        for owner in self.placement.owner_table[doc_id % self.n_shards]:
            node = nodes[owner]
            if node.down or owner in partitioned:  # not _reachable
                self._hint(owner, doc_id)
            elif not node.apply_category(doc_id, category, version):
                if node.copy_of(doc_id) is None:
                    # the owner missed the original write too
                    self._hint(owner, doc_id)

    def _hint(self, node_id: int, doc_id: int) -> None:
        self._settled = False
        hints = self._hints[node_id]
        if doc_id in hints:
            return
        if len(hints) >= self.hint_limit:
            oldest = next(iter(hints))
            del hints[oldest]
            self._m_hints_dropped.inc()
        hints[doc_id] = None
        self._m_hints_queued.inc()

    # -- reads -------------------------------------------------------------

    def get(self, doc_id: int) -> LogDocument:
        """Quorum-read one document, repairing divergent copies.

        R owner copies are consulted; the highest-version copy wins and
        is pushed back to any reader that returned a stale or missing
        copy (read repair).

        Raises
        ------
        IndexError
            Unknown doc id (matching ``LogStore.get``).
        QuorumError
            Fewer than R owners reachable.
        """
        if not 0 <= doc_id < len(self._versions):
            raise IndexError(f"doc id {doc_id} out of range")
        t0 = time.perf_counter()
        self._ops += 1
        shard = doc_id % self.n_shards
        readers = self._readers(shard)
        if len(readers) < self.read_quorum:
            self._m_quorum_failures.inc(op="read")
            raise QuorumError("read", shard, self.read_quorum, len(readers))
        readers = readers[: self.read_quorum]
        best, repaired = self._converge(doc_id, readers, readers)
        if best is None:
            # W+R > copies makes this unreachable for acknowledged
            # writes; an unacknowledged id would have raised IndexError
            raise IndexError(f"doc id {doc_id} found on no reachable replica")
        if repaired:
            self._m_read_repairs.inc(repaired)
        self._m_read_seconds.observe(time.perf_counter() - t0)
        return LogDocument(
            doc_id=doc_id, message=best.message, category=best.category
        )

    def __len__(self) -> int:
        return len(self._versions)

    def iter_documents(self):
        """Best-effort snapshot iteration in doc-id order (no quorum).

        Checkpointing and dashboards read through here; each document
        comes from the first reachable owner holding a copy.
        """
        readers = [self._readers(shard) for shard in range(self.n_shards)]
        for doc_id in range(len(self._versions)):
            for owner in readers[doc_id % self.n_shards]:
                copy = self.nodes[owner].copy_of(doc_id)
                if copy is not None:
                    yield LogDocument(
                        doc_id=doc_id,
                        message=copy.message,
                        category=copy.category,
                    )
                    break

    # -- failover / repair -------------------------------------------------

    def kill_node(self, node_id: int, *, wipe: bool = True) -> None:
        """Take a node down (``wipe`` loses its state, SIGKILL-style)."""
        self._settled = False
        self.nodes[node_id].kill(wipe=wipe)
        self._m_node_up.set(0, node=str(node_id))
        self._rebalance()

    def restart_node(self, node_id: int) -> None:
        """Bring a node back: replay hints, anti-entropy, re-promote."""
        self._settled = False
        self.nodes[node_id].restart()
        self.breakers[node_id].reset()
        self._injected_down.discard(node_id)
        self._m_node_up.set(1, node=str(node_id))
        self._rejoin(node_id)

    def _rejoin(self, node_id: int) -> None:
        self._m_node_up.set(1, node=str(node_id))
        self._replay_hints(node_id)
        self.sync_node(node_id)
        self._rebalance()

    def _replay_hints(self, node_id: int) -> None:
        hints = self._hints[node_id]
        if not hints:
            return
        peers = [
            [o for o in self._readers(shard) if o != node_id]
            for shard in range(self.n_shards)
        ]
        replayed = 0
        for doc_id in hints:
            best, _ = self._converge(
                doc_id, peers[doc_id % self.n_shards], (node_id,)
            )
            replayed += best is not None
        self._hints[node_id] = dict()
        if replayed:
            self._m_hints_replayed.inc(replayed)

    def _converge(self, doc_id: int, sources, targets):
        """Highest version wins: push the newest copy of a document
        among ``sources`` to each of ``targets`` that holds none or an
        older one.  Returns that copy (None when no source holds the
        document) and the number of copies pushed."""
        best = None
        for nid in sources:
            copy = self.nodes[nid].copy_of(doc_id)
            if copy is not None and (best is None or copy.version > best.version):
                best = copy
        pushed = 0
        if best is not None:
            for nid in targets:
                pushed += self.nodes[nid].put(
                    doc_id, best.message, best.category, best.version
                )
        return best, pushed

    def sync_node(self, node_id: int) -> int:
        """Anti-entropy one node against its peers; returns docs repaired."""
        return self._sync_shards(self.placement.shards_owned_by(node_id))

    def sync_all(self) -> int:
        """Full anti-entropy sweep over every shard; returns docs repaired."""
        return self._sync_shards(range(self.n_shards))

    def _sync_shards(self, shards) -> int:
        """Merge reachable owners of each shard, highest version wins.

        Digests gate the work: owners whose per-shard seq digests all
        agree are skipped without touching a single document.
        """
        repaired = 0
        for shard in shards:
            owners = self._readers(shard)
            if len(owners) < 2:
                continue
            digests = {self.nodes[o].seq_digest(shard) for o in owners}
            if len(digests) == 1:
                continue
            union: set[int] = set()
            for owner in owners:
                union |= self.nodes[owner].shard_doc_ids(shard)
            for doc_id in sorted(union):
                repaired += self._converge(doc_id, owners, owners)[1]
        if repaired:
            self._m_repair_docs.inc(repaired)
        return repaired

    # -- partitions --------------------------------------------------------

    def set_partition(self, reachable) -> None:
        """Partition the cluster: only ``reachable`` node ids respond.

        The coordinator models the majority side; the minority side is
        simply unreachable, and writes needing more owners than the
        reachable side holds are refused (:class:`QuorumError`) — the
        split-brain refusal the partition tests assert.
        """
        self._settled = False
        reachable = set(reachable)
        unknown = reachable - set(range(len(self.nodes)))
        if unknown:
            raise ValueError(f"unknown node ids in partition: {sorted(unknown)}")
        self._partitioned = set(range(len(self.nodes))) - reachable
        for nid in range(len(self.nodes)):
            self._m_node_up.set(
                1 if self._reachable(nid) else 0, node=str(nid)
            )
        self._rebalance()

    def heal_partition(self) -> None:
        """Remove the partition; isolated nodes rejoin via sync."""
        self._settled = False
        was_partitioned = sorted(self._partitioned)
        self._partitioned = set()
        for nid in was_partitioned:
            if not self.nodes[nid].down:
                self._rejoin(nid)
        self._rebalance()

    # -- query primitives (the queries themselves are _Queries') ------------

    def _from_primaries(self, hits_of):
        """Every acting primary, ascending node id, with the doc ids
        ``hits_of(search_index)`` names that are its to answer for: a down
        node is skipped, and a document counts only where the node is its
        shard's *current* acting primary — a demoted index keeps its
        stale residents, and they are never read twice."""
        acting: dict[int, set[int]] = {}
        for shard, nid in self._primary.items():
            if nid is not None and not self.nodes[nid].down:
                acting.setdefault(nid, set()).add(shard)
        for nid in sorted(acting):
            node = self.nodes[nid]
            yield node, node._residents(hits_of(node.search_index), acting[nid])

    def _iter_range(self, t0, t1, categories=False):
        for node, ids in self._from_primaries(lambda index: index._range_hits(t0, t1)):
            yield from node.search_index._column(ids, categories)

    def _located(self, hits_of) -> list[tuple]:
        """A hit per document: (global doc id, the index holding it, its id there)."""
        return [
            (node._local_gids[i], node.search_index, i)
            for node, ids in self._from_primaries(hits_of) for i in ids
        ]

    def _range_hits(self, t0, t1):
        hits = self._located(lambda index: index._range_hits(t0, t1))
        return sorted(hits, key=lambda hit: (hit[1]._times[hit[2]], hit[0]))

    def _term_hits(self, terms, t0, t1, max_severity=None):
        # every cut is made at each index, before a hit leaves it
        hits = self._located(lambda index: index._term_hits(terms, t0, t1, max_severity))
        return sorted(hits, key=itemgetter(0))

    def _documents(self, hits):
        return (
            LogDocument(gid, index._messages[i], index._categories[i]) for gid, index, i in hits
        )

    # -- ops visibility ----------------------------------------------------

    def shard_counts(self) -> list[int]:
        """Documents per shard (from each shard's first reachable owner)."""
        out = [0] * self.n_shards
        for shard in range(self.n_shards):
            readers = self._readers(shard)
            if readers:
                out[shard] = len(self.nodes[readers[0]].shard_doc_ids(shard))
        return out

    def index_stats(self) -> dict[str, int]:
        """Coarse size statistics aggregated over acting primaries."""
        unique_terms = 0
        postings = 0
        for nid in {p for p in self._primary.values() if p is not None}:
            stats = self.nodes[nid].search_index.index_stats()
            unique_terms += stats["unique_terms"]
            postings += stats["postings"]
        return {
            "docs": len(self._versions),
            "unique_terms": unique_terms,
            "postings": postings,
        }

    def seq_digests(self) -> dict[int, dict[int, tuple[int, int]]]:
        """Per-node, per-owned-shard seq digests (convergence check)."""
        return {
            node.node_id: {
                shard: node.seq_digest(shard)
                for shard in self.placement.shards_owned_by(node.node_id)
            }
            for node in self.nodes
        }

    def node_health(self) -> list[dict]:
        """One status row per node (the ops/debug view)."""
        return [
            {
                "node": nid,
                "up": self._reachable(nid),
                "breaker": self.breakers[nid].state,
                "docs": len(self.nodes[nid]),
                "hints": len(self._hints[nid]),
                "primary_shards": sorted(self.nodes[nid].primary_shards),
            }
            for nid in range(len(self.nodes))
        ]

    @property
    def hints_pending(self) -> int:
        """Hinted-handoff entries currently buffered across all nodes."""
        return sum(len(h) for h in self._hints)
