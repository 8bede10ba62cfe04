"""Replicated log store: quorum reads/writes, failover, anti-entropy.

The storage-tier counterpart to the ingest durability layer
(:mod:`repro.durability`): :class:`ReplicatedLogStore`
coordinates N :class:`StoreNode` members with primary+replica shard
placement, quorum writes/reads with read repair, per-node circuit
breakers, hinted handoff, and seq-digest anti-entropy sync.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "health": ("BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN", "CircuitBreaker"),
    "node": ("NodeDownError", "StoreNode", "VersionedDoc"),
    "placement": ("ShardPlacement",),
    "store": ("QuorumError", "ReplicatedLogStore"),
})
