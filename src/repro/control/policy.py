"""Declarative control policies: the ``--control-policy`` JSON schema.

A :class:`ControlPolicy` is pure data — which levers the controller
drives, the AIMD/deadband/cooldown parameters of each, and the brownout
ladder thresholds.  Like fault plans and SLO targets it round-trips
through plain dicts (:func:`load_policy_file` reads a JSON object), so
a policy can be reviewed, versioned, and replayed byte-for-byte.

Binding a policy's lever *names* to live objects (a cluster stage, a
listener bucket) happens in :mod:`repro.control.controller`; the policy
itself never references process state, which is what keeps control runs
deterministic and resumable.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from repro.control.signals import SIGNALS

__all__ = [
    "LeverPolicy",
    "BrownoutPolicy",
    "FeedforwardPolicy",
    "ControlPolicy",
    "default_policy",
    "default_listen_policy",
    "load_policy_file",
]

#: lever names the controller knows how to bind (see Controller.bind)
KNOWN_LEVERS = (
    "stage_workers",
    "fluentd_batch",
    "degrade_threshold",
    "listener_rate",
    "store_active_nodes",
)

#: the two fields the JSON form spells shorter than the dataclass does
_JSON_KEYS = {"min_value": "min", "max_value": "max"}
_SCALARS = {"str": lambda value: value, "float": float, "int": int, "bool": bool}


def _to_json(policy) -> dict:
    """A flat policy's JSON form: one key per field, in field order."""
    return {
        _JSON_KEYS.get(f.name, f.name): getattr(policy, f.name)
        for f in fields(policy)
    }


def _scalars_from_json(cls, data: dict) -> dict:
    """Constructor arguments for the scalar fields of ``cls`` that
    ``data`` sets, each coerced to its declared type.  An absent key is
    left to the dataclass default; a field without one is a ``KeyError``.
    Nested fields (levers, sub-policies) are the caller's to build."""
    kwargs = {}
    for f in fields(cls):
        coerce = _SCALARS.get(f.type)
        key = _JSON_KEYS.get(f.name, f.name)
        if coerce is not None and (key in data or f.default is MISSING):
            kwargs[f.name] = coerce(data[key])
    return kwargs


@dataclass(frozen=True)
class LeverPolicy:
    """AIMD parameters for one actuated lever.

    The controller moves the lever additively by ``up_step`` when the
    driving signal crosses ``high`` (after ``cooldown_s`` since the
    lever's last move), and multiplicatively by ``down_factor`` only
    after the signal has stayed under ``low`` for ``hold_ticks``
    consecutive ticks — the deadband between ``low`` and ``high`` moves
    nothing, which is what keeps a converged controller silent.

    ``pressure_up`` distinguishes capacity levers (workers, batch
    sizes: overload pushes the value *up*) from admission levers (the
    listener rate: overload pushes the value *down*); the AIMD shape is
    the same either way — the direction toward more provisioning is
    additive, the direction toward less is multiplicative.

    ``costed`` marks the lever whose value × time integral is the run's
    worker-seconds bill (the autoscaling economy the bench compares
    against static provisioning).
    """

    name: str
    signal: str
    high: float
    low: float
    min_value: float
    max_value: float
    up_step: float = 1.0
    down_factor: float = 0.5
    cooldown_s: float = 10.0
    hold_ticks: int = 3
    pressure_up: bool = True
    costed: bool = False

    def __post_init__(self) -> None:
        if self.name not in KNOWN_LEVERS:
            raise ValueError(
                f"unknown lever {self.name!r}; known: {KNOWN_LEVERS}"
            )
        if self.signal not in SIGNALS:
            raise ValueError(
                f"unknown signal {self.signal!r}; known: {tuple(SIGNALS)}"
            )
        if not self.low <= self.high:
            raise ValueError(
                f"{self.name}: low must be <= high, got "
                f"low={self.low} high={self.high}"
            )
        if not 0 < self.min_value <= self.max_value:
            raise ValueError(
                f"{self.name}: need 0 < min_value <= max_value, got "
                f"min={self.min_value} max={self.max_value}"
            )
        if self.up_step <= 0:
            raise ValueError(f"{self.name}: up_step must be > 0")
        if not 0.0 < self.down_factor < 1.0:
            raise ValueError(
                f"{self.name}: down_factor must be in (0, 1), got "
                f"{self.down_factor}"
            )
        if self.cooldown_s < 0:
            raise ValueError(f"{self.name}: cooldown_s must be >= 0")
        if self.hold_ticks < 1:
            raise ValueError(f"{self.name}: hold_ticks must be >= 1")

    def to_dict(self) -> dict:
        """The JSON form ``load_policy_file`` reads back."""
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LeverPolicy":
        """Build a lever policy from its JSON dict form."""
        return cls(**_scalars_from_json(cls, data))


@dataclass(frozen=True)
class BrownoutPolicy:
    """When and how far the cluster descends the brownout ladder.

    The ladder has four rungs: L0 normal, L1 shrink batches, L2 force
    the cheap-classify path, L3 shed at accept (reason-labelled drops).
    The controller descends one rung after ``enter_ticks`` consecutive
    overloaded ticks and climbs one rung after ``exit_ticks``
    consecutive healthy ticks — asymmetric counts (slow to climb back)
    are the ladder's hysteresis.  A tick is *overloaded* when the
    classifier backlog exceeds ``backlog_high`` or any SLO error-budget
    gauge sits below ``budget_threshold``.
    """

    enter_ticks: int = 3
    exit_ticks: int = 6
    max_level: int = 3
    backlog_high: float = 2000.0
    budget_threshold: float = 0.0
    shed_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.enter_ticks < 1 or self.exit_ticks < 1:
            raise ValueError("enter_ticks and exit_ticks must be >= 1")
        if not 0 <= self.max_level <= 3:
            raise ValueError(f"max_level must be in [0, 3], got {self.max_level}")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError(
                f"shed_fraction must be in (0, 1], got {self.shed_fraction}"
            )

    def to_dict(self) -> dict:
        """The JSON form ``load_policy_file`` reads back."""
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BrownoutPolicy":
        """Build a brownout policy from its JSON dict form."""
        return cls(**_scalars_from_json(cls, data))


@dataclass(frozen=True)
class FeedforwardPolicy:
    """Predictive pre-positioning from the offered-load window.

    The controller keeps the last ``window_ticks`` arrival-rate samples
    and fits a least-squares slope through them; when the extrapolated
    rate ``horizon_s`` ahead exceeds ``min_gain`` × the current rate,
    capacity levers (``pressure_up=True``) are allowed to take their
    additive up-step *before* the reactive signal crosses ``high`` —
    the diurnal/surge ramp is met with capacity already in place.

    Feedforward only ever accelerates provisioning: it never triggers a
    relief move, it still respects per-lever cooldowns, and under
    constant in-capacity load the fitted slope is flat so it never
    fires — which is how it preserves the anti-oscillation guarantee
    (the hypothesis suite pins this down).
    """

    window_ticks: int = 12
    horizon_s: float = 30.0
    min_gain: float = 1.2

    def __post_init__(self) -> None:
        if self.window_ticks < 3:
            raise ValueError(
                f"window_ticks must be >= 3, got {self.window_ticks}"
            )
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {self.horizon_s}")
        if self.min_gain <= 1.0:
            raise ValueError(f"min_gain must be > 1, got {self.min_gain}")

    def to_dict(self) -> dict:
        """The JSON form ``load_policy_file`` reads back."""
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FeedforwardPolicy":
        """Build a feedforward policy from its JSON dict form."""
        return cls(**_scalars_from_json(cls, data))


@dataclass(frozen=True)
class ControlPolicy:
    """One complete controller configuration (the ``--control-policy`` file).

    ``tick_every_s`` is the control interval on the driving clock (the
    simulation engine for ``simulate``, the event loop for ``listen``).
    ``utilization_cap`` bounds capacity-guarded scale-down: a costed
    capacity lever may only shrink while the estimated demand fits into
    the post-shrink capacity at this utilization.
    """

    tick_every_s: float = 5.0
    levers: tuple[LeverPolicy, ...] = ()
    brownout: BrownoutPolicy | None = field(default_factory=BrownoutPolicy)
    utilization_cap: float = 0.8
    feedforward: FeedforwardPolicy | None = None

    def __post_init__(self) -> None:
        if self.tick_every_s <= 0:
            raise ValueError(
                f"tick_every_s must be positive, got {self.tick_every_s}"
            )
        if not 0.0 < self.utilization_cap <= 1.0:
            raise ValueError(
                f"utilization_cap must be in (0, 1], got {self.utilization_cap}"
            )
        names = [lv.name for lv in self.levers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate lever names in policy: {names}")

    def to_dict(self) -> dict:
        """The JSON form ``load_policy_file`` reads back."""
        return {
            "tick_every_s": self.tick_every_s,
            "utilization_cap": self.utilization_cap,
            "levers": [lv.to_dict() for lv in self.levers],
            "brownout": self.brownout.to_dict() if self.brownout else None,
            "feedforward": (
                self.feedforward.to_dict() if self.feedforward else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlPolicy":
        """Build a control policy from its JSON dict form."""
        brownout = data.get("brownout")
        feedforward = data.get("feedforward")
        return cls(
            **_scalars_from_json(cls, data),
            levers=tuple(
                LeverPolicy.from_dict(d) for d in data.get("levers", ())
            ),
            brownout=(
                BrownoutPolicy.from_dict(brownout)
                if brownout is not None else None
            ),
            feedforward=(
                FeedforwardPolicy.from_dict(feedforward)
                if feedforward is not None else None
            ),
        )


def default_policy() -> ControlPolicy:
    """The stock simulation policy: scale classifier workers with the
    backlog (costed), grow the forwarder batch under broker lag, and
    arm the full brownout ladder."""
    return ControlPolicy(
        tick_every_s=5.0,
        levers=(
            LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=200.0, low=40.0, min_value=1, max_value=16,
                up_step=1, down_factor=0.5, cooldown_s=10.0,
                hold_ticks=3, costed=True,
            ),
            LeverPolicy(
                name="fluentd_batch", signal="broker_lag",
                high=1000.0, low=100.0, min_value=100, max_value=20_000,
                up_step=500, down_factor=0.5, cooldown_s=10.0,
                hold_ticks=4,
            ),
        ),
        brownout=BrownoutPolicy(),
    )


def default_listen_policy() -> ControlPolicy:
    """The stock listener policy: trim the quota's admit rate under
    broker lag, probe it back additively when lag clears.  No brownout
    ladder: the listener has no rung to act on."""
    return ControlPolicy(
        tick_every_s=1.0,
        levers=(
            LeverPolicy(
                name="listener_rate", signal="broker_lag",
                high=5000.0, low=500.0, min_value=100, max_value=1_000_000,
                up_step=2000, down_factor=0.5, cooldown_s=2.0,
                hold_ticks=3, pressure_up=False,
            ),
        ),
        brownout=None,
    )


def load_policy_file(path: str | Path) -> ControlPolicy:
    """Read a control policy from its JSON file form."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("control policy file must contain a JSON object")
    return ControlPolicy.from_dict(data)
