"""Deterministic, seedable fault injection.

Production log pipelines treat failure as the common case: workers die,
flushes time out, and malformed messages arrive that no blacklist ever
saw.  This module is the *control plane* for exercising those paths: a
:class:`FaultPlan` names the sites to arm (flush failure, poison
message, process crash, store and broker faults) and how each fires —
per-arming-check probability, scheduled call indices, or both — and a
:class:`FaultInjector` executes the plan reproducibly.

Determinism guarantees
----------------------
Each armed site draws from its own ``random.Random(f"{seed}:{site}")``
stream and keeps its own arming-check counter, so the fire sequence of
one site is a pure function of ``(seed, site, check ordinal)`` — it
cannot be perturbed by how checks of *other* sites interleave.  Given
the same plan, seed, and per-site check sequence, the injector fires at
exactly the same checks every run; the chaos suite reconciles its
metrics against :attr:`FaultInjector.fire_log` on that basis.

A plan file (:meth:`FaultPlan.from_file`) may only name sites in
:data:`KNOWN_SITES`: a misspelt site would arm nothing, silently.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SITE_FLUSH_FAIL",
    "SITE_POISON",
    "SITE_CRASH",
    "SITE_NODE_DOWN",
    "SITE_NODE_SLOW",
    "SITE_PARTITION",
    "SITE_ACCEPT_DROP",
    "SITE_PARTITION_STALL",
    "SITE_COMMIT_LOST",
    "KNOWN_SITES",
    "FaultSpec",
    "FaultPlan",
    "FireRecord",
    "FaultInjector",
    "InjectedFault",
]

#: a Fluentd forwarder flush fails before reaching the sink
SITE_FLUSH_FAIL = "fluentd.flush"
#: one message poisons the classify path (undecodable / predict error)
SITE_POISON = "pipeline.poison"
#: the whole process dies (SIGKILL) right after a WAL append or mid
#: checkpoint write — the crash-recovery harness arms this site
SITE_CRASH = "durability.crash"
#: a replicated-store node goes down (SIGKILL, state wiped) — the next
#: fire at the site restarts the downed node, so a probabilistic plan
#: produces kill/rejoin churn
SITE_NODE_DOWN = "store.node_down"
#: one store node times out for the current batch (counted against its
#: circuit breaker without taking the node down)
SITE_NODE_SLOW = "store.node_slow"
#: a network partition isolates a minority of store nodes — the next
#: fire at the site heals it
SITE_PARTITION = "store.partition"
#: the ingest listener drops a datagram/line at accept time (models a
#: full NIC queue) — the drop is counted, never silent
SITE_ACCEPT_DROP = "ingest.accept_drop"
#: a broker partition stalls (refuses appends and fetches) — the next
#: fire at the site unstalls it, so a probabilistic plan produces
#: stall/heal churn and visible consumer lag
SITE_PARTITION_STALL = "broker.partition_stall"
#: a consumer offset commit is lost in flight (the broker's in-memory
#: committed offset stays behind the journal's) — replay after the
#: fire must still honor the journal barrier
SITE_COMMIT_LOST = "broker.commit_lost"

KNOWN_SITES = (
    SITE_FLUSH_FAIL, SITE_POISON, SITE_CRASH, SITE_NODE_DOWN, SITE_NODE_SLOW,
    SITE_PARTITION, SITE_ACCEPT_DROP, SITE_PARTITION_STALL, SITE_COMMIT_LOST,
)


class InjectedFault(RuntimeError):
    """Raised (or simulated) at an armed site when the injector fires."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """How one site fires.

    Parameters
    ----------
    probability:
        Chance in [0, 1] that any single arming check fires (drawn from
        the site's own seeded stream).
    at_calls:
        1-based arming-check ordinals that fire unconditionally — the
        scheduled-trigger form ("fail the 3rd flush").
    limit:
        Cap on total fires for the site; ``None`` is unbounded.
    """

    probability: float = 0.0
    at_calls: tuple[int, ...] = ()
    limit: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if any(c < 1 for c in self.at_calls):
            raise ValueError(f"at_calls are 1-based, got {self.at_calls}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")

    def to_dict(self) -> dict:
        """JSON-ready form (only non-default fields are emitted)."""
        out: dict = {}
        if self.probability:
            out["probability"] = self.probability
        if self.at_calls:
            out["at_calls"] = list(self.at_calls)
        if self.limit is not None:
            out["limit"] = self.limit
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        unknown = set(data) - {"probability", "at_calls", "limit"}
        if unknown:
            raise ValueError(f"unknown FaultSpec keys: {sorted(unknown)}")
        return cls(
            probability=float(data.get("probability", 0.0)),
            at_calls=tuple(int(c) for c in data.get("at_calls", ())),
            limit=data.get("limit"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Named fault sites plus the seed that makes them reproducible."""

    sites: dict[str, FaultSpec] = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def never(cls) -> "FaultPlan":
        """The empty plan: armed nowhere, fires never."""
        return cls()

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--fault-plan`` file format)."""
        return {
            "seed": self.seed,
            "sites": {s: spec.to_dict() for s, spec in self.sites.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Parse the ``--fault-plan`` format; a site outside
        :data:`KNOWN_SITES` is refused, since it would arm nothing."""
        unknown = set(data) - {"seed", "sites"}
        if unknown:
            raise ValueError(f"unknown FaultPlan keys: {sorted(unknown)}")
        unknown = set(data.get("sites", {})) - set(KNOWN_SITES)
        if unknown:
            raise ValueError(f"unknown fault sites: {sorted(unknown)}")
        return cls(
            sites={
                str(site): FaultSpec.from_dict(spec)
                for site, spec in data.get("sites", {}).items()
            },
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        """Load a JSON plan file (the CLI's ``--fault-plan`` format)::

            {"seed": 7, "sites": {"fluentd.flush": {"probability": 0.2},
                                  "store.node_down": {"at_calls": [2]}}}
        """
        path = Path(path)
        try:
            return cls.from_dict(json.loads(path.read_text()))
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from e


@dataclass(frozen=True)
class FireRecord:
    """One injector fire, in global order.

    ``call_index`` is the 1-based ordinal of the arming check *within
    its site* — the unit the determinism guarantee is stated in.
    """

    seq: int
    site: str
    call_index: int


class FaultInjector:
    """Executes a :class:`FaultPlan`; every fire is logged and counted.

    Components call :meth:`should_fire` at their armed sites.  A site
    absent from the plan never fires and consumes no randomness, so an
    injector built from :meth:`FaultPlan.never` (or ``None`` plan) is
    free to leave permanently attached.

    Every fire appends a :class:`FireRecord` to :attr:`fire_log` and
    increments ``repro_faults_injected_total{site=...}`` in the given
    metrics registry (default: the process registry), which is what the
    chaos suite reconciles against.
    """

    def __init__(self, plan: FaultPlan | None = None, *, registry=None) -> None:
        self.plan = plan if plan is not None else FaultPlan.never()
        self.registry = registry
        self.fire_log: list[FireRecord] = []
        self._calls: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {
            site: random.Random(f"{self.plan.seed}:{site}")
            for site in self.plan.sites
        }

    def armed(self, site: str) -> bool:
        """True when the plan can ever fire at ``site``."""
        spec = self.plan.sites.get(site)
        return spec is not None and (spec.probability > 0 or bool(spec.at_calls))

    def should_fire(self, site: str) -> bool:
        """One arming check at ``site``; True when the fault fires."""
        spec = self.plan.sites.get(site)
        if spec is None:
            return False
        call = self._calls.get(site, 0) + 1
        self._calls[site] = call
        # consume the site's random stream on every check (even when
        # the limit is exhausted) so the fire sequence stays a function
        # of the check ordinal alone
        draw = self._rngs[site].random() if spec.probability > 0 else 1.0
        fired = call in spec.at_calls or draw < spec.probability
        if not fired:
            return False
        if spec.limit is not None and self._fires.get(site, 0) >= spec.limit:
            return False
        self._fires[site] = self._fires.get(site, 0) + 1
        self.fire_log.append(
            FireRecord(seq=len(self.fire_log) + 1, site=site, call_index=call)
        )
        from repro.obs import wellknown

        wellknown.faults_injected(self.registry).inc(site=site)
        return True

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFault` when the site fires."""
        if self.should_fire(site):
            raise InjectedFault(site)

    def fire_counts(self) -> dict[str, int]:
        """Fires per site so far (the reconciliation view)."""
        return dict(self._fires)

    def call_counts(self) -> dict[str, int]:
        """Arming checks per site so far."""
        return dict(self._calls)

    def reset(self) -> None:
        """Rewind to the initial state: same seed, same future fires."""
        self.fire_log.clear()
        self._calls.clear()
        self._fires.clear()
        for site in self._rngs:
            self._rngs[site] = random.Random(f"{self.plan.seed}:{site}")
