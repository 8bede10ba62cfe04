"""Closed-loop overload control plane (ROADMAP item 2).

The earlier PRs left every capacity knob exposed but static: classifier
worker count, forwarder batch size, degraded-mode thresholds, the
listener's admission budget, replica activation.  This package
closes the loop: a deterministic, injectable-clock controller reads the
metrics registry (backlog gauges, windowed latency quantiles, broker
lag, SLO error budgets) and actuates those levers with AIMD steps,
deadbands, per-lever cooldowns, and hysteresis — plus a graceful
brownout ladder for sustained overload.  See ``docs/API.md`` and the
README "Control plane" section for the policy JSON schema and the
determinism guarantees.
"""

from repro.control.actuators import (
    Actuator,
    CallableActuator,
    FluentdBatchActuator,
    ListenerRateActuator,
    StageBatchActuator,
    StageWorkersActuator,
    StoreActiveNodesActuator,
)
from repro.control.controller import (
    BrownoutLadder,
    Controller,
    Lever,
    controller_for_cluster,
)
from repro.control.policy import (
    BrownoutPolicy,
    ControlPolicy,
    FeedforwardPolicy,
    LeverPolicy,
    default_listen_policy,
    default_policy,
    load_policy_file,
)
from repro.control.signals import SIGNALS, SignalReader

__all__ = [
    "Actuator",
    "CallableActuator",
    "FluentdBatchActuator",
    "ListenerRateActuator",
    "StageBatchActuator",
    "StageWorkersActuator",
    "StoreActiveNodesActuator",
    "BrownoutLadder",
    "Controller",
    "Lever",
    "controller_for_cluster",
    "BrownoutPolicy",
    "ControlPolicy",
    "FeedforwardPolicy",
    "LeverPolicy",
    "default_listen_policy",
    "default_policy",
    "load_policy_file",
    "SIGNALS",
    "SignalReader",
]
