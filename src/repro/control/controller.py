"""The deterministic AIMD controller and the brownout ladder.

:class:`Controller` is a pure state machine: every :meth:`~Controller.tick`
takes the current time from the *caller's* clock (the simulation engine
under ``simulate``, the asyncio loop under ``listen``), reads its
signals from the metrics registry through a
:class:`~repro.control.signals.SignalReader`, and moves its levers by
the policy's AIMD rules — additive steps toward more provisioning,
multiplicative steps toward less, a deadband between the ``low`` and
``high`` watermarks where nothing moves, a per-lever cooldown between
moves, and ``hold_ticks`` of consecutive quiet before any relief move.
Scale-down is additionally capacity-guarded by the actuator (see
:mod:`repro.control.actuators`), which is what makes a converged
controller *provably quiet*: under constant offered load within
capacity, after convergence the signal sits in the deadband or the
guard refuses further shrink, so the actuation count stops moving — the
property the hypothesis tests pin down, and the chaos suite bounds the
direction-flip count under injected faults.

Sustained overload descends the :class:`BrownoutLadder` one rung at a
time (L0 normal → L1 shrink batches → L2 cheap-classify → L3 shed at
accept); recovery climbs back symmetrically, one rung per
``exit_ticks`` healthy ticks.

Everything the controller does is visible in the ``repro_control_*``
families: tick and actuation counters (per lever and direction),
current setpoints, direction flips, the brownout level, and
reason-labelled shed counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.control.actuators import Actuator
from repro.control.policy import BrownoutPolicy, ControlPolicy, LeverPolicy
from repro.control.signals import SIGNALS, SignalReader
from repro.obs import wellknown

__all__ = ["Lever", "BrownoutLadder", "Controller", "controller_for_cluster"]


@dataclass
class Lever:
    """One bound lever: policy + actuator + per-lever control state."""

    policy: LeverPolicy
    actuator: Actuator
    value: float = field(init=False)
    last_move_s: float = field(default=float("-inf"), init=False)
    quiet_ticks: int = field(default=0, init=False)
    last_direction: str | None = field(default=None, init=False)
    n_actuations: int = field(default=0, init=False)
    n_flips: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        value = min(
            self.policy.max_value, max(self.policy.min_value, self.actuator.get())
        )
        if self.actuator.integral:
            value = float(int(round(value)))
        self.value = value


class BrownoutLadder:
    """Hysteretic overload ladder: L0 normal … L3 shed at accept.

    ``update`` descends one rung after ``enter_ticks`` consecutive
    overloaded ticks and climbs one rung after ``exit_ticks``
    consecutive healthy ticks; ``on_change(old, new)`` lets the host
    (cluster or listener loop) apply the rung's mitigation.
    """

    def __init__(
        self,
        policy: BrownoutPolicy,
        *,
        on_change=None,
        registry=None,
    ) -> None:
        self.policy = policy
        self.on_change = on_change
        self.level = 0
        self.n_changes = 0
        self._over_ticks = 0
        self._ok_ticks = 0
        self._m_level = wellknown.control_brownout_level(registry)
        self._m_level.set(0)

    def update(self, overloaded: bool) -> int:
        """Advance the ladder one tick; returns the (new) level."""
        if overloaded:
            self._over_ticks += 1
            self._ok_ticks = 0
            if (
                self._over_ticks >= self.policy.enter_ticks
                and self.level < self.policy.max_level
            ):
                self._change(self.level + 1)
                self._over_ticks = 0
        else:
            self._ok_ticks += 1
            self._over_ticks = 0
            if self._ok_ticks >= self.policy.exit_ticks and self.level > 0:
                self._change(self.level - 1)
                self._ok_ticks = 0
        return self.level

    def _change(self, new: int) -> None:
        old, self.level = self.level, new
        self.n_changes += 1
        self._m_level.set(new)
        if self.on_change is not None:
            self.on_change(old, new)


def _lever_flips(controller: "Controller") -> dict[str, int]:
    return {name: lever.n_flips for name, lever in controller.levers.items()}


class Controller:
    """Registry-driven AIMD control loop over bound levers.

    Parameters
    ----------
    policy:
        The :class:`~repro.control.policy.ControlPolicy` to enforce.
    registry:
        Metrics registry the signals read from and the
        ``repro_control_*`` families publish to (default: process-wide).
    on_brownout:
        Callback ``(old_level, new_level)`` applying a rung change;
        required for the ladder to have any effect.
    slo_targets:
        Quantile :class:`~repro.obs.slo.SloTarget` entries contributing
        to the overload predicate.  Budgets are evaluated over the
        *window* quantile (observations since the previous tick), so
        the ladder exits symmetrically once recent latency recovers —
        a cumulative quantile would pin the ladder down for the rest of
        the run.  Defaults to the stock SLOs' quantile targets.
    """

    def __init__(
        self,
        policy: ControlPolicy,
        *,
        registry=None,
        on_brownout=None,
        slo_targets=None,
    ) -> None:
        self.policy = policy
        self.reader = SignalReader(registry)
        self.levers: dict[str, Lever] = {}
        if slo_targets is None:
            from repro.obs.slo import default_slos

            slo_targets = [t for t in default_slos() if t.kind == "quantile"]
        self.slo_targets = list(slo_targets)
        self.brownout: BrownoutLadder | None = None
        if policy.brownout is not None:
            self.brownout = BrownoutLadder(
                policy.brownout, on_change=on_brownout, registry=registry
            )
        self.n_ticks = 0
        #: ∫ value dt of the costed lever (the autoscaling bill)
        self.worker_seconds = 0.0
        #: up-moves taken on the feedforward prediction alone
        self.n_feedforward_moves = 0
        self._last_tick_s: float | None = None
        self._ff_window: deque[tuple[float, float]] | None = None
        if policy.feedforward is not None:
            self._ff_window = deque(maxlen=policy.feedforward.window_ticks)
        # ticks, flips and setpoints are views of the counts this
        # controller keeps (and restores from the journal)
        wellknown.control_ticks(registry).view(self, "n_ticks")
        wellknown.control_flips(registry).view(self, _lever_flips)
        self._m_setpoint = wellknown.control_setpoint(registry)
        self._m_actuations = wellknown.control_actuations(registry)
        self._m_ff_rate = wellknown.control_feedforward_rate(registry)
        self._m_ff_moves = wellknown.control_feedforward_moves(registry)

    # -- wiring --------------------------------------------------------

    def bind(self, name: str, actuator: Actuator) -> Lever:
        """Bind the policy lever ``name`` to a live actuator."""
        for lever_policy in self.policy.levers:
            if lever_policy.name == name:
                lever = Lever(lever_policy, actuator)
                self.levers[name] = lever
                self._m_setpoint.view(lever, "value", lever=name)
                return lever
        raise ValueError(f"policy has no lever named {name!r}")

    @property
    def total_actuations(self) -> int:
        """Actuations across every lever since construction."""
        return sum(lv.n_actuations for lv in self.levers.values())

    @property
    def total_flips(self) -> int:
        """Direction reversals across every lever since construction."""
        return sum(lv.n_flips for lv in self.levers.values())

    # -- the loop ------------------------------------------------------

    def tick(self, now: float) -> None:
        """Run one control interval at time ``now`` (caller's clock)."""
        reader = self.reader
        reader.begin_tick(now)
        # prime the demand window every tick: counter baselines only
        # advance for signals actually read, and the shrink guard reads
        # the arrival rate lazily — without priming, its first-ever read
        # has no baseline, sees 0.0 demand, and waves the shrink through
        arrival = SIGNALS["arrival_rate"](reader)
        self.n_ticks += 1
        if self._last_tick_s is not None:
            dt = max(0.0, now - self._last_tick_s)
            for lever in self.levers.values():
                if lever.policy.costed:
                    self.worker_seconds += lever.value * dt
        ff_boost = self._feedforward(now, arrival)
        for lever in self.levers.values():
            self._evaluate(lever, now, ff_boost=ff_boost)
        if self.brownout is not None:
            self.brownout.update(self._overloaded(reader))
        reader.finish_tick()
        self._last_tick_s = now

    def _feedforward(self, now: float, arrival: float) -> bool:
        """Append the offered-load sample; True when a surge is predicted.

        Fits a least-squares slope over the full sample window and
        extrapolates ``horizon_s`` ahead; fires only with a full window
        (the first samples after start/resume ramp from a missing
        baseline and would fake a slope) and a positive current rate.
        """
        if self._ff_window is None:
            return False
        ff = self.policy.feedforward
        assert ff is not None
        if arrival <= 0:
            # no baseline yet (first tick after start/resume) or a dead
            # feed — a zero sample in the window would fake the very
            # ramp this term exists to predict
            self._m_ff_rate.set(arrival)
            return False
        self._ff_window.append((now, arrival))
        if len(self._ff_window) < ff.window_ticks:
            self._m_ff_rate.set(arrival)
            return False
        points = list(self._ff_window)
        t0 = points[0][0]
        xs = [t - t0 for t, _ in points]
        ys = [rate for _, rate in points]
        n = len(points)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x <= 0:
            self._m_ff_rate.set(arrival)
            return False
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / var_x
        predicted = max(0.0, ys[-1] + slope * ff.horizon_s)
        self._m_ff_rate.set(predicted)
        return predicted >= arrival * ff.min_gain

    def _evaluate(
        self, lever: Lever, now: float, *, ff_boost: bool = False
    ) -> None:
        pol = lever.policy
        pressure = SIGNALS[pol.signal](self.reader)
        pressure_dir = "up" if pol.pressure_up else "down"
        relief_dir = "down" if pol.pressure_up else "up"
        # feedforward pre-positions capacity levers only: an additive
        # up-move ahead of the reactive signal, never a relief move
        boosted = ff_boost and pol.pressure_up and pressure <= pol.high
        if pressure > pol.high or boosted:
            lever.quiet_ticks = 0
            if now - lever.last_move_s >= pol.cooldown_s:
                before = lever.n_actuations
                self._move(lever, pressure_dir, now)
                if boosted and lever.n_actuations > before:
                    self.n_feedforward_moves += 1
                    self._m_ff_moves.inc(lever=pol.name)
        elif pressure < pol.low:
            lever.quiet_ticks += 1
            if (
                lever.quiet_ticks >= pol.hold_ticks
                and now - lever.last_move_s >= pol.cooldown_s
            ):
                self._move(lever, relief_dir, now)
        else:
            # deadband: converged levers sit here and stay silent
            lever.quiet_ticks = 0

    def _move(self, lever: Lever, direction: str, now: float) -> None:
        pol = lever.policy
        if direction == "up":
            candidate = min(pol.max_value, lever.value + pol.up_step)
        else:
            candidate = max(pol.min_value, lever.value * pol.down_factor)
        if lever.actuator.integral:
            candidate = float(int(round(candidate)))
            candidate = min(pol.max_value, max(pol.min_value, candidate))
        if candidate == lever.value:
            return  # pinned at a bound: not an actuation
        if direction == "down" and not lever.actuator.can_shrink(
            self.reader, candidate, self.policy.utilization_cap
        ):
            return  # capacity guard: demand still needs the current size
        lever.actuator.apply(candidate)
        lever.value = candidate
        lever.last_move_s = now
        lever.quiet_ticks = 0
        lever.n_actuations += 1
        if lever.last_direction is not None and lever.last_direction != direction:
            lever.n_flips += 1
        lever.last_direction = direction
        self._m_actuations.inc(lever=pol.name, direction=direction)

    def _overloaded(self, reader: SignalReader) -> bool:
        """The brownout predicate: backlog blown or SLO budget burning."""
        brownout_policy = self.policy.brownout
        assert brownout_policy is not None
        backlog = reader.gauge_value("repro_stream_classifier_backlog")
        if backlog > brownout_policy.backlog_high:
            return True
        for target in self.slo_targets:
            value = reader.window_quantile(target.family, target.quantile)
            if value <= 0.0 or target.threshold <= 0:
                continue
            budget = 1.0 - value / target.threshold
            if budget < brownout_policy.budget_threshold:
                return True
        return False

    def stats(self) -> dict:
        """Summary counters for reports and benchmark tables."""
        return {
            "ticks": self.n_ticks,
            "actuations": {
                name: lever.n_actuations for name, lever in self.levers.items()
            },
            "flips": {
                name: lever.n_flips for name, lever in self.levers.items()
            },
            "setpoints": {
                name: lever.value for name, lever in self.levers.items()
            },
            "brownout_level": self.brownout.level if self.brownout else 0,
            "brownout_changes": self.brownout.n_changes if self.brownout else 0,
            "worker_seconds": self.worker_seconds,
            "feedforward_moves": self.n_feedforward_moves,
        }

    # -- durable state -------------------------------------------------

    def export_state(self) -> dict:
        """The controller's complete decision state as a JSON-safe dict.

        This is the payload of the ``"control"`` WAL record the cluster
        journals after every tick: per-lever setpoints and hysteresis
        (cooldown clocks, quiet ticks, direction, actuation/flip
        counts), ladder rung and its enter/exit counters, the costed
        integral, the feedforward sample window, and the signal
        reader's window baselines.  ``restore_state`` on a freshly
        bound controller reproduces the dead process's control loop
        exactly — same levers, same rung, same pending hysteresis.
        """
        state: dict = {
            "n_ticks": self.n_ticks,
            "worker_seconds": self.worker_seconds,
            "feedforward_moves": self.n_feedforward_moves,
            "last_tick_s": self._last_tick_s,
            "levers": {
                name: {
                    "value": lever.value,
                    # JSON has no -inf literal worth relying on; None
                    # marks "never moved" instead
                    "last_move_s": (
                        None if lever.last_move_s == float("-inf")
                        else lever.last_move_s
                    ),
                    "quiet_ticks": lever.quiet_ticks,
                    "last_direction": lever.last_direction,
                    "n_actuations": lever.n_actuations,
                    "n_flips": lever.n_flips,
                }
                for name, lever in self.levers.items()
            },
            "brownout": None,
            "feedforward_window": (
                None if self._ff_window is None
                else [[t, rate] for t, rate in self._ff_window]
            ),
            "reader": self.reader.export_window(),
        }
        if self.brownout is not None:
            state["brownout"] = {
                "level": self.brownout.level,
                "n_changes": self.brownout.n_changes,
                "over_ticks": self.brownout._over_ticks,
                "ok_ticks": self.brownout._ok_ticks,
            }
        return state

    def restore_state(self, state: dict) -> None:
        """Reinstate a journaled :meth:`export_state` snapshot.

        Restored setpoints are *repositioned* through the actuators
        (the rebuilt cluster starts at cold defaults) without counting
        as actuations — the journaled ``n_actuations``/``n_flips`` are
        restored verbatim, which is what the crash harness's
        zero-duplicate-actuations assertion checks.  Ladder restore
        re-applies the rung's mitigation via ``on_change`` (rungs are
        absolute) without advancing ``n_changes``.
        """
        self.n_ticks = int(state["n_ticks"])
        self.worker_seconds = float(state["worker_seconds"])
        self.n_feedforward_moves = int(state.get("feedforward_moves", 0))
        last_tick = state.get("last_tick_s")
        self._last_tick_s = None if last_tick is None else float(last_tick)
        for name, lever_state in state.get("levers", {}).items():
            lever = self.levers.get(name)
            if lever is None:
                continue  # policy lost this lever between generations
            value = float(lever_state["value"])
            if value != lever.value:
                lever.actuator.apply(value)
            lever.value = value
            last_move = lever_state.get("last_move_s")
            lever.last_move_s = (
                float("-inf") if last_move is None else float(last_move)
            )
            lever.quiet_ticks = int(lever_state.get("quiet_ticks", 0))
            lever.last_direction = lever_state.get("last_direction")
            lever.n_actuations = int(lever_state.get("n_actuations", 0))
            lever.n_flips = int(lever_state.get("n_flips", 0))
        brownout_state = state.get("brownout")
        if brownout_state is not None and self.brownout is not None:
            ladder = self.brownout
            level = int(brownout_state["level"])
            if level != ladder.level:
                old, ladder.level = ladder.level, level
                if ladder.on_change is not None:
                    ladder.on_change(old, level)
            ladder.n_changes = int(brownout_state.get("n_changes", 0))
            ladder._over_ticks = int(brownout_state.get("over_ticks", 0))
            ladder._ok_ticks = int(brownout_state.get("ok_ticks", 0))
            ladder._m_level.set(level)
        window = state.get("feedforward_window")
        if window is not None and self._ff_window is not None:
            self._ff_window.clear()
            for t, rate in window:
                self._ff_window.append((float(t), float(rate)))
        reader_state = state.get("reader")
        if reader_state is not None:
            self.reader.restore_window(reader_state)


def controller_for_cluster(cluster, policy: ControlPolicy, *, registry=None):
    """Bind a policy's levers onto a TivanCluster's live objects.

    Binds every lever the policy names — ``stage_workers``,
    ``fluentd_batch``, ``degrade_threshold``, ``store_active_nodes`` —
    and wires the brownout ladder into
    :meth:`~repro.stream.tivan.TivanCluster.apply_brownout`.  Levers
    that need an absent component (no classifier stage, single-node
    store) raise immediately: a policy that silently controls nothing
    would report a healthy run it never steered.
    """
    from repro.control.actuators import (
        CallableActuator,
        FluentdBatchActuator,
        StageWorkersActuator,
        StoreActiveNodesActuator,
    )

    controller = Controller(
        policy, registry=registry, on_brownout=cluster.apply_brownout
    )
    for lever_policy in policy.levers:
        name = lever_policy.name
        if name == "stage_workers":
            if cluster._stage is None:
                raise ValueError(f"lever {name!r} needs an attached classifier stage")
            actuator = StageWorkersActuator(cluster._stage)
        elif name == "fluentd_batch":
            actuator = FluentdBatchActuator(cluster.forwarder)
        elif name == "degrade_threshold":
            if cluster.degrade_backlog is None:
                raise ValueError(
                    "lever 'degrade_threshold' needs degrade_backlog set"
                )
            actuator = CallableActuator(
                lambda: cluster.degrade_backlog,
                cluster.set_degrade_backlog,
                integral=True,
            )
        elif name == "store_active_nodes":
            if not hasattr(cluster.store, "quiesce_node"):
                raise ValueError(
                    "lever 'store_active_nodes' needs a replicated store"
                )
            actuator = StoreActiveNodesActuator(cluster.store)
        else:
            raise ValueError(
                f"lever {name!r} is not bindable to a simulation cluster"
            )
        controller.bind(name, actuator)
    return controller
