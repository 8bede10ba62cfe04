"""Primary+replica shard placement over a fixed node ring.

The paper's OpenSearch deployment spreads 6 shards with one replica
over 6 data nodes (§4.2, matching :data:`repro.stream.capacity.
PAPER_CLUSTER`'s ``replicas=1``).  This module computes the static
*preference list* for each shard: the primary node and its replica
nodes, laid out ring-style (shard ``s`` prefers nodes ``s % N``,
``(s+1) % N``, …) so every node carries an equal share of primary and
replica load.

Placement is intentionally static — nodes fail and rejoin, but the
preference list never changes; the coordinator routes around dead
entries (promoting the next live owner to acting primary) and hinted
handoff + anti-entropy bring a rejoined owner back up to date.  Static
placement is what makes the replicated store deterministic enough for
the chaos suite to assert exact outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShardPlacement"]


@dataclass(frozen=True)
class ShardPlacement:
    """The static shard → nodes map.

    Parameters
    ----------
    n_nodes:
        Store nodes in the ring.
    n_shards:
        Document shards (documents route by ``doc_id % n_shards``).
    n_replicas:
        Extra copies per shard beyond the primary; each shard lives on
        ``n_replicas + 1`` distinct nodes, so ``n_replicas < n_nodes``.
    """

    n_nodes: int
    n_shards: int = 6
    n_replicas: int = 1
    #: ``owner_table[shard]`` is the shard's preference list; placement
    #: is static, so it is laid out once and every lookup is an index
    owner_table: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if not 0 <= self.n_replicas < self.n_nodes:
            raise ValueError(
                f"n_replicas must be in [0, n_nodes), got "
                f"{self.n_replicas} with n_nodes={self.n_nodes}"
            )
        object.__setattr__(self, "owner_table", tuple(
            tuple((shard + i) % self.n_nodes for i in range(self.copies))
            for shard in range(self.n_shards)
        ))

    @property
    def copies(self) -> int:
        """Total copies of each document (primary + replicas)."""
        return self.n_replicas + 1

    def shard_of(self, doc_id: int) -> int:
        """The shard a document routes to."""
        return doc_id % self.n_shards

    def owners(self, shard: int) -> tuple[int, ...]:
        """The shard's preference list: primary first, then replicas."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"shard must be in [0, {self.n_shards}), got {shard}"
            )
        return self.owner_table[shard]

    def shards_owned_by(self, node_id: int) -> tuple[int, ...]:
        """Every shard whose preference list contains ``node_id``."""
        return tuple(
            s for s, owners in enumerate(self.owner_table) if node_id in owners
        )

    def primary_of(self, shard: int) -> int:
        """The shard's first-preference (home) primary node."""
        return self.owners(shard)[0]
