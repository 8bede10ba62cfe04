"""Actuators: the write side of the control loop.

Each actuator adapts one capacity lever — classifier workers, batch
sizes, the listener's admission quota, replica activation — behind a
uniform ``get``/``apply`` surface so the controller's AIMD logic stays
lever-agnostic.  Actuators are dumb by design: they clamp, round, and
forward; *when* to move is entirely the controller's decision.

The one piece of lever-specific intelligence lives in ``can_shrink``:
capacity-guarded scale-down.  A naive "backlog is low, drop a worker"
rule oscillates forever (backlog is low at *any* capacity that keeps
up), so capacity levers refuse a shrink unless the observed offered
load still fits into the post-shrink capacity at the policy's
utilization cap — after which a converged controller goes silent, which
is the anti-oscillation property the tests pin down.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.control.signals import SIGNALS, SignalReader

__all__ = [
    "Actuator",
    "CallableActuator",
    "StageWorkersActuator",
    "FluentdBatchActuator",
    "ListenerRateActuator",
    "StoreActiveNodesActuator",
]


class Actuator:
    """One controllable lever: read the setpoint, write a new one.

    ``integral`` levers are rounded before application (worker counts,
    batch sizes); a rounded value equal to the current one is a no-op
    the controller does not count as an actuation.
    """

    #: round applied values to whole numbers
    integral = False

    def get(self) -> float:
        """Current value of the lever."""
        raise NotImplementedError

    def apply(self, value: float) -> None:
        """Set the lever to ``value`` (already clamped by the controller)."""
        raise NotImplementedError

    def can_shrink(
        self, reader: SignalReader, candidate: float, utilization_cap: float
    ) -> bool:
        """May the lever shrink to ``candidate`` right now?

        The default allows it; capacity levers override this with a
        demand-fits-capacity guard.
        """
        return True


class CallableActuator(Actuator):
    """Adapt a ``(getter, setter)`` pair into an actuator (tests, glue)."""

    def __init__(
        self,
        getter: Callable[[], float],
        setter: Callable[[float], None],
        *,
        integral: bool = False,
    ) -> None:
        self._get = getter
        self._set = setter
        self.integral = integral

    def get(self) -> float:
        """Current value via the wrapped getter."""
        return float(self._get())

    def apply(self, value: float) -> None:
        """Write ``value`` via the wrapped setter."""
        self._set(value)


class StageWorkersActuator(Actuator):
    """Scale a :class:`~repro.stream.tivan.ClassifierStage`'s worker count.

    Scale-down is capacity-guarded: the offered load (arrival-rate
    signal) must fit into ``candidate`` workers at the utilization cap,
    with per-worker throughput ``1 / service_time_s``.
    """

    integral = True

    def __init__(self, stage) -> None:
        self.stage = stage

    def get(self) -> float:
        """Current worker count of the stage."""
        return float(self.stage.n_workers)

    def apply(self, value: float) -> None:
        """Resize the stage to ``value`` workers."""
        self.stage.n_workers = max(1, int(round(value)))

    def can_shrink(
        self, reader: SignalReader, candidate: float, utilization_cap: float
    ) -> bool:
        """Allow the shrink only while demand fits the smaller pool."""
        demand = SIGNALS["arrival_rate"](reader)
        capacity = max(1, int(round(candidate))) / self.stage.service_time_s
        return demand <= utilization_cap * capacity


class FluentdBatchActuator(Actuator):
    """Adjust the Fluentd forwarder's flush batch.

    Drain capacity of the broker spine is ``batch_size /
    flush_interval_s``, so this is the lever that actually bounds
    accept-to-flush latency under surge.
    """

    integral = True

    def __init__(self, forwarder) -> None:
        self.forwarder = forwarder

    def get(self) -> float:
        """Current flush batch size."""
        return float(self.forwarder.batch_size)

    def apply(self, value: float) -> None:
        """Set the flush batch size (floored at 1)."""
        self.forwarder.batch_size = max(1, int(round(value)))


class ListenerRateActuator(Actuator):
    """Adjust the aggregate rate of a listener's admission quota
    (:class:`~repro.ingest.quota.DeficitRoundRobin`).

    Uses the quota's thread-safe :meth:`set_rate`, so the asyncio
    accept path never observes a torn update.
    """

    def __init__(self, quota) -> None:
        self.quota = quota

    def get(self) -> float:
        """Current aggregate admit rate (messages/second)."""
        return float(self.quota.rate)

    def apply(self, value: float) -> None:
        """Set the admit rate, keeping the pool's unspent tokens."""
        self.quota.set_rate(value)


class StoreActiveNodesActuator(Actuator):
    """Promote/demote replica nodes of a ReplicatedLogStore.

    The lever's value is the number of *active* (non-quiesced) nodes.
    Shrinking quiesces the highest-numbered active nodes — their acting
    primaries are demoted and re-promoted onto remaining owners —
    and growing re-activates them in reverse order, so the actuation
    sequence is deterministic.  The policy's ``min_value`` must stay at
    or above the write quorum; the actuator additionally refuses to go
    below it.
    """

    integral = True

    def __init__(self, store) -> None:
        self.store = store

    def get(self) -> float:
        """Number of currently active (non-quiesced) nodes."""
        return float(len(self.store.nodes) - len(self.store.quiesced))

    def apply(self, value: float) -> None:
        """Quiesce or activate nodes until ``value`` are active."""
        store = self.store
        floor = max(store.write_quorum, store.read_quorum)
        target = max(floor, min(len(store.nodes), int(round(value))))
        active = [
            n.node_id for n in store.nodes if n.node_id not in store.quiesced
        ]
        while len(active) > target:
            store.quiesce_node(active.pop())
        if len(active) < target:
            for nid in sorted(store.quiesced, reverse=True):
                if len(active) >= target:
                    break
                store.activate_node(nid)
                active.append(nid)
