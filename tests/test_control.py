"""Control-plane suite: AIMD levers, brownout ladder, anti-oscillation.

Four layers of coverage, mirroring the control loop's promises:

1. **Policy** — pure-data validation and byte-for-byte JSON round-trips
   (a policy file must be reviewable and replayable).
2. **Mechanics** — signal windows, deadbands, cooldowns, hold ticks,
   capacity-guarded shrink, flip accounting, and each actuator's
   contract (admission quota retune, executor resize, store quiesce).
3. **Anti-oscillation** — the hypothesis property: constant offered
   load within capacity means *zero* actuations after convergence.
4. **Chaos** — the controlled cluster runs under injected
   ``store.node_down`` / ``broker.partition_stall`` faults (and the
   executor lever under ``shard.worker_crash``) without the flip count
   escaping a small fixed bound, green across the CI seed matrix.
"""

import json
import os
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.control import (
    BrownoutLadder,
    BrownoutPolicy,
    CallableActuator,
    ControlPolicy,
    Controller,
    FeedforwardPolicy,
    LeverPolicy,
    ListenerRateActuator,
    SignalReader,
    StageWorkersActuator,
    StoreActiveNodesActuator,
    default_listen_policy,
    default_policy,
    load_policy_file,
)
from repro.core.message import SyslogMessage
from repro.core.taxonomy import Category
from repro.datagen.workload import StreamEvent, offered_load_events
from repro.faults import (
    SITE_NODE_DOWN,
    SITE_PARTITION_STALL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.ingest import DeficitRoundRobin
from repro.obs import MetricsRegistry, use_registry, wellknown
from repro.replication import ReplicatedLogStore
from repro.stream.tivan import ClassifierStage, TivanCluster

#: the CI chaos job shifts this to run the whole suite under other seeds
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]


# -- policy data model -----------------------------------------------------


class TestPolicy:
    def _lever(self, **kw):
        base = dict(
            name="stage_workers", signal="classifier_backlog",
            high=100.0, low=10.0, min_value=1, max_value=8,
        )
        base.update(kw)
        return LeverPolicy(**base)

    def test_unknown_lever_rejected(self):
        with pytest.raises(ValueError, match="unknown lever"):
            self._lever(name="warp_core")

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="unknown signal"):
            self._lever(signal="vibes")

    def test_watermark_order_enforced(self):
        with pytest.raises(ValueError, match="low must be <= high"):
            self._lever(high=1.0, low=2.0)

    def test_bounds_and_steps_validated(self):
        with pytest.raises(ValueError, match="min_value <= max_value"):
            self._lever(min_value=9, max_value=8)
        with pytest.raises(ValueError, match="up_step"):
            self._lever(up_step=0)
        with pytest.raises(ValueError, match="down_factor"):
            self._lever(down_factor=1.0)
        with pytest.raises(ValueError, match="hold_ticks"):
            self._lever(hold_ticks=0)

    def test_duplicate_levers_rejected(self):
        with pytest.raises(ValueError, match="duplicate lever"):
            ControlPolicy(levers=(self._lever(), self._lever()))

    def test_brownout_validation(self):
        with pytest.raises(ValueError, match="enter_ticks"):
            BrownoutPolicy(enter_ticks=0)
        with pytest.raises(ValueError, match="max_level"):
            BrownoutPolicy(max_level=4)
        with pytest.raises(ValueError, match="shed_fraction"):
            BrownoutPolicy(shed_fraction=0.0)

    @pytest.mark.parametrize(
        "policy", [default_policy(), default_listen_policy()]
    )
    def test_json_round_trip(self, policy):
        # through actual JSON text, not just dicts: the file format
        blob = json.dumps(policy.to_dict())
        assert ControlPolicy.from_dict(json.loads(blob)) == policy

    def test_load_policy_file(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(default_policy().to_dict()))
        assert load_policy_file(path) == default_policy()

    def test_absent_keys_take_the_dataclass_defaults(self):
        required = dict(
            name="stage_workers", signal="broker_lag", high=5, low=1, min=1, max=4
        )
        assert LeverPolicy.from_dict(required) == LeverPolicy(
            name="stage_workers", signal="broker_lag",
            high=5.0, low=1.0, min_value=1.0, max_value=4.0,
        )
        assert BrownoutPolicy.from_dict({}) == BrownoutPolicy()
        assert FeedforwardPolicy.from_dict({}) == FeedforwardPolicy()
        assert ControlPolicy.from_dict({"brownout": {}}) == ControlPolicy()
        with pytest.raises(KeyError, match="signal"):
            LeverPolicy.from_dict({"name": "stage_workers"})

    def test_policy_file_naming_the_executor_lever_fails_on_load(self, tmp_path):
        """No binder ever bound ``executor_workers``; the name is unknown now."""
        lever = dict(self._lever().to_dict(), name="executor_workers")
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"levers": [lever]}))
        with pytest.raises(
            ValueError, match=r"unknown lever 'executor_workers'; known: \('stage_workers'"
        ):
            load_policy_file(path)

    def test_load_policy_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_policy_file(path)

    def test_brownout_none_round_trips(self):
        policy = ControlPolicy(brownout=None)
        assert policy.to_dict()["brownout"] is None
        assert ControlPolicy.from_dict(policy.to_dict()).brownout is None


# -- signal reader ---------------------------------------------------------


class TestSignalReader:
    def test_absent_families_read_zero(self):
        reader = SignalReader(MetricsRegistry())
        reader.begin_tick(0.0)
        assert reader.gauge_value("repro_stream_classifier_backlog") == 0.0
        assert reader.counter_rate("repro_stream_relay_received_total") == 0.0
        assert reader.window_quantile("repro_e2e_latency_seconds", 0.99) == 0.0

    def test_counter_rate_is_windowed(self):
        reg = MetricsRegistry()
        reader = SignalReader(reg)
        received = wellknown.relay_received(reg)
        reader.begin_tick(0.0)
        assert reader.counter_rate("repro_stream_relay_received_total") == 0.0
        reader.finish_tick()
        received.inc(50)
        reader.begin_tick(5.0)
        rate = reader.counter_rate("repro_stream_relay_received_total")
        assert rate == pytest.approx(10.0)
        # reads inside one tick are stable (cached against the window)
        assert reader.counter_rate(
            "repro_stream_relay_received_total"
        ) == pytest.approx(10.0)
        reader.finish_tick()
        # a quiet interval reads zero, not the cumulative average
        reader.begin_tick(10.0)
        assert reader.counter_rate("repro_stream_relay_received_total") == 0.0

    def test_window_quantile_forgets_history(self):
        reg = MetricsRegistry()
        reader = SignalReader(reg)
        hist = wellknown.e2e_latency_seconds(reg)
        for _ in range(100):
            hist.observe(40.0)  # terrible history
        reader.begin_tick(0.0)  # first tick only baselines the buckets
        assert reader.window_quantile("repro_e2e_latency_seconds", 0.99) == 0.0
        reader.finish_tick()
        for _ in range(100):
            hist.observe(0.01)  # recovered window
        reader.begin_tick(5.0)
        p99 = reader.window_quantile("repro_e2e_latency_seconds", 0.99)
        reader.finish_tick()
        # the window quantile sees only the recovered observations
        assert 0.0 < p99 < 1.0
        # an empty window must not look like pressure
        reader.begin_tick(10.0)
        assert reader.window_quantile("repro_e2e_latency_seconds", 0.99) == 0.0

    def test_gauge_sum_spans_label_children(self):
        reg = MetricsRegistry()
        lag = wellknown.broker_lag(reg)
        lag.set(30.0, group="a")
        lag.set(12.0, group="b")
        reader = SignalReader(reg)
        reader.begin_tick(0.0)
        assert reader.gauge_sum("repro_broker_lag") == pytest.approx(42.0)


# -- AIMD mechanics --------------------------------------------------------


def _single_lever_controller(reg, **lever_kw):
    """A controller with one gauge-driven lever over a plain int box."""
    base = dict(
        name="degrade_threshold", signal="classifier_backlog",
        high=100.0, low=10.0, min_value=1, max_value=8,
        up_step=1, down_factor=0.5, cooldown_s=0.0, hold_ticks=1,
    )
    base.update(lever_kw)
    policy = ControlPolicy(
        tick_every_s=1.0, levers=(LeverPolicy(**base),), brownout=None
    )
    controller = Controller(policy, registry=reg)
    box = SimpleNamespace(value=4)

    def _set(v):
        box.value = int(v)

    lever = controller.bind(
        base["name"],
        CallableActuator(lambda: box.value, _set, integral=True),
    )
    return controller, lever, box


class TestAimdMechanics:
    def test_deadband_is_silent(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg)
        backlog = wellknown.classifier_backlog(reg)
        backlog.set(50.0)  # between low=10 and high=100
        for t in range(20):
            controller.tick(float(t))
        assert controller.total_actuations == 0
        assert box.value == 4

    def test_pressure_moves_additively_with_cooldown(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg, cooldown_s=2.0)
        wellknown.classifier_backlog(reg).set(500.0)
        for t in range(6):
            controller.tick(float(t))
        # moves at t=0, 2, 4 only: +1 each, gated by the 2 s cooldown
        assert box.value == 7
        assert lever.n_actuations == 3
        assert wellknown.control_actuations(reg).value(
            lever="degrade_threshold", direction="up"
        ) == 3

    def test_relief_requires_hold_ticks_and_halves(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg, hold_ticks=3)
        wellknown.classifier_backlog(reg).set(1.0)  # under low
        controller.tick(0.0)
        controller.tick(1.0)
        assert lever.n_actuations == 0  # only 2 quiet ticks so far
        controller.tick(2.0)
        assert lever.n_actuations == 1  # third quiet tick releases
        assert box.value == 2  # 4 × 0.5, multiplicative

    def test_hold_counter_resets_on_pressure_blip(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg, hold_ticks=3)
        backlog = wellknown.classifier_backlog(reg)
        backlog.set(1.0)
        controller.tick(0.0)
        controller.tick(1.0)
        backlog.set(50.0)  # back into the deadband: quiet run broken
        controller.tick(2.0)
        backlog.set(1.0)
        controller.tick(3.0)
        controller.tick(4.0)
        assert lever.n_actuations == 0  # the blip reset the hold counter
        controller.tick(5.0)
        assert lever.n_actuations == 1

    def test_pinned_at_bound_is_not_an_actuation(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg, max_value=4)
        wellknown.classifier_backlog(reg).set(500.0)
        for t in range(10):
            controller.tick(float(t))
        # already at max: every tick is a no-op, not a counted actuation
        assert lever.n_actuations == 0
        assert box.value == 4

    def test_flip_accounting(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg)
        backlog = wellknown.classifier_backlog(reg)
        backlog.set(500.0)
        controller.tick(0.0)  # up
        backlog.set(1.0)
        controller.tick(1.0)  # down: flip 1
        controller.tick(2.0)  # down again: not a flip
        backlog.set(500.0)
        controller.tick(3.0)  # up: flip 2
        assert lever.n_flips == 2
        assert controller.total_flips == 2
        assert wellknown.control_flips(reg).value(
            lever="degrade_threshold"
        ) == 2

    def test_can_shrink_guard_blocks_relief(self):
        class Stubborn(CallableActuator):
            """Actuator whose capacity guard always refuses a shrink."""

            def can_shrink(self, reader, candidate, utilization_cap):
                """Refuse every shrink request."""
                return False

        reg = MetricsRegistry()
        policy = ControlPolicy(
            tick_every_s=1.0, brownout=None,
            levers=(LeverPolicy(
                name="degrade_threshold", signal="classifier_backlog",
                high=100.0, low=10.0, min_value=1, max_value=8,
                cooldown_s=0.0, hold_ticks=1,
            ),),
        )
        controller = Controller(policy, registry=reg)
        box = SimpleNamespace(value=4)
        lever = controller.bind("degrade_threshold", Stubborn(
            lambda: box.value, lambda v: setattr(box, "value", int(v)),
            integral=True,
        ))
        wellknown.classifier_backlog(reg).set(1.0)
        for t in range(10):
            controller.tick(float(t))
        assert lever.n_actuations == 0
        assert box.value == 4

    def test_admission_lever_moves_down_under_pressure(self):
        # pressure_up=False: overload shrinks the lever multiplicatively
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(
            reg, pressure_up=False
        )
        wellknown.classifier_backlog(reg).set(500.0)
        controller.tick(0.0)
        assert box.value == 2  # 4 × 0.5: toward less admission
        wellknown.classifier_backlog(reg).set(1.0)
        controller.tick(1.0)
        assert box.value == 3  # +1: the additive probe back up

    def test_worker_seconds_integrates_costed_lever(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg, costed=True)
        wellknown.classifier_backlog(reg).set(50.0)  # deadband: no moves
        for t in range(0, 30, 5):
            controller.tick(float(t))
        # 5 intervals × 5 s × value 4
        assert controller.worker_seconds == pytest.approx(100.0)

    def test_bind_unknown_lever_raises(self):
        controller = Controller(
            ControlPolicy(levers=(), brownout=None),
            registry=MetricsRegistry(),
        )
        with pytest.raises(ValueError, match="no lever named"):
            controller.bind(
                "stage_workers",
                CallableActuator(lambda: 1, lambda v: None),
            )

    def test_stats_shape(self):
        reg = MetricsRegistry()
        controller, lever, box = _single_lever_controller(reg)
        wellknown.classifier_backlog(reg).set(50.0)
        controller.tick(0.0)
        stats = controller.stats()
        assert stats["ticks"] == 1
        assert stats["setpoints"] == {"degrade_threshold": 4}
        assert stats["brownout_level"] == 0


# -- anti-oscillation property ---------------------------------------------


class TestAntiOscillation:
    SERVICE_S = 0.04  # one worker drains 25 msg/s

    def _run(self, rate, initial_queue, ticks=240, feedforward=False):
        """Closed loop over a fluid queue model; returns the controller.

        Each 1 s tick the queue grows by the offered rate and drains at
        the current worker capacity; the backlog gauge and the arrival
        counter feed the controller exactly as the cluster would.
        """
        reg = MetricsRegistry()
        policy = ControlPolicy(
            tick_every_s=1.0, utilization_cap=0.8, brownout=None,
            levers=(LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=50.0, low=10.0, min_value=1, max_value=8,
                up_step=1, down_factor=0.5, cooldown_s=0.0, hold_ticks=2,
                costed=True,
            ),),
            feedforward=(
                FeedforwardPolicy(window_ticks=4, horizon_s=5.0)
                if feedforward else None
            ),
        )
        controller = Controller(policy, registry=reg)
        stage = SimpleNamespace(n_workers=1, service_time_s=self.SERVICE_S)
        lever = controller.bind("stage_workers", StageWorkersActuator(stage))
        backlog = wellknown.classifier_backlog(reg)
        received = wellknown.relay_received(reg)
        queue = float(initial_queue)
        counts = []
        for t in range(ticks):
            received.inc(rate)
            queue = max(0.0, queue + rate - stage.n_workers / self.SERVICE_S)
            backlog.set(queue)
            controller.tick(float(t))
            counts.append(controller.total_actuations)
        return controller, lever, counts

    @given(
        rate=st.integers(min_value=1, max_value=150),
        initial_queue=st.integers(min_value=0, max_value=2000),
    )
    def test_constant_load_converges_then_goes_silent(
        self, rate, initial_queue
    ):
        controller, lever, counts = self._run(rate, initial_queue)
        # convergence: zero actuations over the entire second half
        assert counts[-1] == counts[len(counts) // 2], (
            f"controller still moving under constant load: {counts[-10:]}"
        )
        # and the converged size actually carries the load
        capacity = lever.value / self.SERVICE_S
        assert capacity >= rate

    @given(rate=st.integers(min_value=1, max_value=19))
    def test_light_load_relieves_to_minimum(self, rate):
        # under 0.8 × 25 msg/s one worker suffices; relief must reach it
        controller, lever, counts = self._run(rate, 0, ticks=60)
        assert lever.value == 1

    @given(
        rate=st.integers(min_value=1, max_value=150),
        initial_queue=st.integers(min_value=0, max_value=2000),
    )
    def test_feedforward_preserves_the_guarantee(self, rate, initial_queue):
        """Feedforward armed, constant load: the same silence.

        A flat offered-load window fits a zero slope, so the predictor
        never fires — the anti-oscillation property must hold with the
        feedforward term switched on, with zero feedforward moves.
        """
        controller, lever, counts = self._run(
            rate, initial_queue, feedforward=True
        )
        assert counts[-1] == counts[len(counts) // 2], (
            f"feedforward broke convergence: {counts[-10:]}"
        )
        assert controller.n_feedforward_moves == 0
        capacity = lever.value / self.SERVICE_S
        assert capacity >= rate

    def test_feedforward_prepositions_ahead_of_the_ramp(self):
        """A steady ramp triggers up-moves before backlog crosses high."""
        reg = MetricsRegistry()
        policy = ControlPolicy(
            tick_every_s=1.0, utilization_cap=0.8, brownout=None,
            levers=(LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=50.0, low=10.0, min_value=1, max_value=8,
                up_step=1, down_factor=0.5, cooldown_s=0.0, hold_ticks=2,
                costed=True,
            ),),
            feedforward=FeedforwardPolicy(window_ticks=4, horizon_s=5.0),
        )
        controller = Controller(policy, registry=reg)
        stage = SimpleNamespace(n_workers=1, service_time_s=0.04)
        lever = controller.bind("stage_workers", StageWorkersActuator(stage))
        backlog = wellknown.classifier_backlog(reg)
        received = wellknown.relay_received(reg)
        queue = 0.0
        first_ff_move = first_high = None
        for t in range(30):
            rate = 10.0 + 8.0 * t  # the diurnal morning ramp
            received.inc(rate)
            queue = max(0.0, queue + rate - stage.n_workers / 0.04)
            backlog.set(queue)
            if queue > 50.0 and first_high is None:
                first_high = t
            controller.tick(float(t))
            if controller.n_feedforward_moves > 0 and first_ff_move is None:
                first_ff_move = t
        assert controller.n_feedforward_moves > 0
        # capacity moved before the reactive signal ever crossed high
        assert first_ff_move is not None
        assert first_high is None or first_ff_move < first_high
        assert lever.value > 1

    def test_surge_and_recovery_flips_once(self):
        # a backlog spike forces a climb; once it drains, 35 msg/s fits
        # comfortably into 2 workers (0.8 × 50), so relief halves back
        controller, lever, counts = self._run(35, 3000)
        assert lever.value == 2
        # one direction change total: up through the surge, then the
        # single reversal as relief shrinks back — no hunting
        assert lever.n_flips == 1
        # and quiet after convergence despite the surge history
        assert counts[-1] == counts[len(counts) * 3 // 4]


# -- brownout ladder -------------------------------------------------------


class TestBrownoutLadder:
    def _ladder(self, **kw):
        seen = []
        base = dict(enter_ticks=2, exit_ticks=3)
        base.update(kw)
        ladder = BrownoutLadder(
            BrownoutPolicy(**base),
            on_change=lambda old, new: seen.append((old, new)),
            registry=MetricsRegistry(),
        )
        return ladder, seen

    def test_descends_one_rung_per_enter_window(self):
        ladder, seen = self._ladder()
        levels = [ladder.update(True) for _ in range(6)]
        assert levels == [0, 1, 1, 2, 2, 3]
        assert seen == [(0, 1), (1, 2), (2, 3)]

    def test_max_level_is_a_ceiling(self):
        ladder, seen = self._ladder(max_level=1)
        for _ in range(10):
            ladder.update(True)
        assert ladder.level == 1

    def test_climb_back_is_slower(self):
        ladder, seen = self._ladder()
        for _ in range(4):
            ladder.update(True)
        assert ladder.level == 2
        levels = [ladder.update(False) for _ in range(6)]
        assert levels == [2, 2, 1, 1, 1, 0]

    def test_blip_resets_both_counters(self):
        ladder, seen = self._ladder(enter_ticks=3)
        ladder.update(True)
        ladder.update(True)
        ladder.update(False)  # healthy blip forgives the overload run
        ladder.update(True)
        ladder.update(True)
        assert ladder.level == 0
        ladder.update(True)
        assert ladder.level == 1


class TestClusterBrownout:
    def _cluster(self):
        cluster = TivanCluster(batch_size=100)
        cluster.attach_classifier(ClassifierStage(
            service_time_s=0.001, batch_size=64,
            cheap_classify_batch=lambda texts: (
                [Category.UNIMPORTANT] * len(texts)
            ),
        ))
        return cluster

    def test_rungs_stack_and_release(self):
        with use_registry(MetricsRegistry()):
            cluster = self._cluster()
            stage = cluster._stage
            cluster.apply_brownout(0, 1)
            assert stage.batch_size == 16  # 64 // 4
            assert not cluster._degraded_override
            cluster.apply_brownout(1, 2)
            assert cluster._degraded_override
            cluster.apply_brownout(2, 3)
            assert cluster._shed_fraction == 0.5
            # climb straight back to normal: everything released
            cluster.apply_brownout(3, 0)
            assert stage.batch_size == 64
            assert not cluster._degraded_override
            assert cluster._shed_fraction == 0.0

    def test_shed_is_deterministic_and_counted(self):
        with use_registry(MetricsRegistry()) as reg:
            cluster = self._cluster()
            cluster.apply_brownout(0, 3)
            cluster.load_events([
                StreamEvent(SyslogMessage(float(i), "cn001", "kernel", f"line {i}"), None)
                for i in range(10)
            ])
            cluster.engine.run()
            # exactly the fraction, every second arrival
            published = cluster.broker.partitions["cn001"].read_from(0, 10)
            assert [r.message.timestamp for r in published] == [0.0, 2.0, 4.0, 6.0, 8.0]
            assert cluster.n_shed == cluster.n_dropped == 5
            assert wellknown.control_shed(reg).value(reason="brownout") == 5

    def test_partial_descent_keeps_lower_rungs_off(self):
        with use_registry(MetricsRegistry()):
            cluster = self._cluster()
            cluster.apply_brownout(0, 1)
            assert cluster._shed_fraction == 0.0
            assert not cluster._degraded_override


# -- offered-load profiles -------------------------------------------------


class TestOfferedLoad:
    def _rate(self, events, lo, hi):
        return sum(
            1 for e in events if lo <= e.message.timestamp < hi
        ) / (hi - lo)

    def test_surge_profile_swings_the_middle_third(self):
        events = offered_load_events(
            profile="surge", duration_s=300.0, base_rate=5.0,
            swing=10.0, seed=3,
        )
        quiet = self._rate(events, 0.0, 100.0)
        surge = self._rate(events, 100.0, 200.0)
        assert surge > 5 * quiet  # the full swing is 10×

    def test_diurnal_profile_peaks_mid_run(self):
        events = offered_load_events(
            profile="diurnal", duration_s=400.0, base_rate=4.0,
            swing=8.0, seed=3,
        )
        # one sinusoidal period spans the run: crest at T/4, trough 3T/4
        peak = self._rate(events, 70.0, 130.0)
        trough = self._rate(events, 270.0, 330.0)
        assert peak > 2 * trough

    def test_constant_profile_and_determinism(self):
        a = offered_load_events(
            profile="constant", duration_s=120.0, base_rate=6.0, seed=9
        )
        b = offered_load_events(
            profile="constant", duration_s=120.0, base_rate=6.0, seed=9
        )
        assert (
            [e.message.timestamp for e in a]
            == [e.message.timestamp for e in b]
        )
        assert len(a) > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            offered_load_events(
                profile="tsunami", duration_s=60.0, base_rate=1.0
            )


# -- the admission quota's retune -----------------------------------------


class TestTokenBucketSetRate:
    """``set_rate`` on the listener's admission valve, the fair-share
    quota (its retune arithmetic is pinned in ``test_tenant_quota``)."""

    def test_concurrent_allow_and_retune(self):
        # the admission path races the control plane; no token is ever
        # double-spent and no exception escapes
        quota = DeficitRoundRobin(rate=1000.0, burst=200.0)
        allowed = []

        def hammer(tenant):
            count = 0
            for _ in range(500):
                if quota.allow(tenant):
                    count += 1
            allowed.append(count)

        def retune():
            for rate in (500.0, 2000.0, 100.0, 1000.0) * 25:
                quota.set_rate(rate)

        threads = [threading.Thread(target=hammer, args=(f"t{i}",)) for i in range(4)]
        threads.append(threading.Thread(target=retune))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # burst cap + four tenants' deficit headroom + worst-case accrual
        # over the test's wall time bounds total admissions; the
        # invariant is "no free tokens"
        assert sum(allowed) <= 200 + (200 + 100 + 200 / 3 + 50) + 2000 * 2.0

    def test_rate_must_be_positive(self):
        quota = DeficitRoundRobin(rate=10.0)
        with pytest.raises(ValueError, match="rate"):
            quota.set_rate(0.0)
        with pytest.raises(ValueError, match="burst"):
            quota.set_rate(10.0, burst=-1.0)

    def test_actuator_reads_and_writes_rate(self):
        quota = DeficitRoundRobin(rate=100.0)
        actuator = ListenerRateActuator(quota)
        assert actuator.get() == 100.0
        actuator.apply(250.0)
        assert quota.rate == 250.0


# -- store quiesce + breaker gauge (satellites) ----------------------------


class TestStoreControlSurface:
    def test_quiesce_demotes_preferred_primaries(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.quiesce_node(2)
        assert all(primary != 2 for primary in store._primary.values())
        store.activate_node(2)
        # full replication: every node owns every shard, so the natural
        # placement primary returns once preference is restored
        assert any(primary == 2 for primary in store._primary.values())

    def test_quiesce_refuses_below_quorum_floor(self):
        store = ReplicatedLogStore(
            n_nodes=3, n_replicas=2, write_quorum=2, read_quorum=2
        )
        store.quiesce_node(2)
        with pytest.raises(ValueError, match="quorum floor"):
            store.quiesce_node(1)

    def test_quiesce_is_idempotent_and_validates(self):
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.quiesce_node(1)
        store.quiesce_node(1)
        assert store.quiesced == {1}
        with pytest.raises(ValueError, match="no such node"):
            store.quiesce_node(7)
        with pytest.raises(ValueError, match="no such node"):
            store.activate_node(-1)

    def test_quiesced_node_still_serves_as_last_resort(self):
        # quiescing trades preference, never availability
        store = ReplicatedLogStore(n_nodes=3, n_replicas=2)
        store.quiesce_node(2)
        store.kill_node(0, wipe=False)
        store.kill_node(1, wipe=False)
        assert all(primary == 2 for primary in store._primary.values())

    def test_actuator_walks_active_count_deterministically(self):
        store = ReplicatedLogStore(
            n_nodes=5, n_replicas=2, write_quorum=2, read_quorum=2
        )
        actuator = StoreActiveNodesActuator(store)
        assert actuator.get() == 5.0
        actuator.apply(3)
        assert store.quiesced == {3, 4}  # highest-numbered demoted first
        actuator.apply(1)  # clamped at the quorum floor of 2
        assert actuator.get() == 2.0
        actuator.apply(4)
        assert store.quiesced == {2}  # highest-numbered reactivated first

    def test_breaker_state_gauge_tracks_transitions(self):
        with use_registry(MetricsRegistry()) as reg:
            store = ReplicatedLogStore(
                n_nodes=3, n_replicas=2, breaker_failures=2,
            )
            gauge = reg.get("repro_store_breaker_state")
            assert [gauge.value(node=str(i)) for i in range(3)] == [0, 0, 0]
            store.kill_node(1)
            for i in range(2):  # two failed probes trip the breaker
                store.bulk_index([_message(i)])
            assert gauge.value(node="1") == 2  # open
            assert store.breakers[1].state == "open"
            store.restart_node(1)
            assert gauge.value(node="1") == 0  # force-closed on restart


def _message(i):
    from repro.core.message import SyslogMessage

    return SyslogMessage(
        timestamp=float(i), hostname=f"cn{i % 5:03d}", app="kernel",
        text=f"control message number {i}",
    )


# -- closed-loop simulation + chaos ----------------------------------------


def _controlled_cluster(events, *, fault_injector=None, store_nodes=None):
    """A surge-ready cluster with a fast-reacting control policy."""
    cluster = TivanCluster(
        batch_size=25, flush_interval_s=1.0,
        fault_injector=fault_injector, store_nodes=store_nodes,
        store_replicas=2 if store_nodes else 1,
    )
    cluster.attach_classifier(ClassifierStage(
        service_time_s=0.04, batch_size=32,
        cheap_classify_batch=lambda texts: (
            [Category.UNIMPORTANT] * len(texts)
        ),
    ))
    policy = ControlPolicy(
        tick_every_s=5.0,
        levers=(
            LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=150.0, low=30.0, min_value=1, max_value=4,
                cooldown_s=5.0, hold_ticks=3, costed=True,
            ),
            LeverPolicy(
                name="fluentd_batch", signal="broker_lag",
                high=50.0, low=20.0, min_value=25, max_value=2000,
                up_step=200, cooldown_s=5.0, hold_ticks=4,
            ),
        ),
        brownout=BrownoutPolicy(backlog_high=10_000.0),
    )
    cluster.attach_controller(policy)
    cluster.load_events(events)
    return cluster


class TestClosedLoopSimulation:
    def test_controller_scales_through_a_surge(self):
        with use_registry(MetricsRegistry()) as reg:
            events = offered_load_events(
                profile="surge", duration_s=240.0, base_rate=4.0,
                swing=10.0, seed=7,
            )
            cluster = _controlled_cluster(events)
            report = cluster.run(270.0)
            assert report.indexed == report.produced
            assert report.control_ticks >= 40
            assert report.control_actuations >= 2
            assert report.control_worker_seconds > 0
            # the run's counters agree with the live metric families
            assert (
                wellknown.control_ticks(reg).value() == report.control_ticks
            )
            stats = cluster.controller.stats()
            assert stats["ticks"] == report.control_ticks

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_flip_count_bounded_under_chaos(self, seed):
        """Injected node churn and partition stalls must not make the
        controller hunt: the direction-flip count stays under a small
        fixed bound while the pipeline still drains."""
        with use_registry(MetricsRegistry()):
            inj = FaultInjector(FaultPlan(
                sites={
                    SITE_NODE_DOWN: FaultSpec(probability=0.05),
                    SITE_PARTITION_STALL: FaultSpec(probability=0.05),
                },
                seed=seed,
            ))
            events = offered_load_events(
                profile="surge", duration_s=240.0, base_rate=4.0,
                swing=8.0, seed=seed,
            )
            cluster = _controlled_cluster(
                events, fault_injector=inj, store_nodes=3
            )
            report = cluster.run(270.0)
            assert report.indexed > 0
            assert report.control_ticks >= 40
            assert report.control_flips <= 6, cluster.controller.stats()
            assert 0 <= report.brownout_level <= 3


# -- listen-mode policy wiring ---------------------------------------------


class TestListenPolicy:
    def test_lag_trims_rate_then_probes_back(self):
        reg = MetricsRegistry()
        policy = default_listen_policy()
        controller = Controller(policy, registry=reg)
        now = [0.0]
        quota = DeficitRoundRobin(rate=100_000.0, clock=lambda: now[0])
        lever = controller.bind(
            "listener_rate", ListenerRateActuator(quota)
        )
        lag = wellknown.broker_lag(reg)
        lag.set(50_000.0, group="fluentd")
        for t in range(4):
            controller.tick(float(t))
        assert quota.rate < 100_000.0  # admission trimmed under lag
        trimmed = quota.rate
        lag.set(0.0, group="fluentd")
        for t in range(4, 12):
            controller.tick(float(t))
        assert quota.rate > trimmed  # additive probe back up
        assert lever.n_flips == 1

    def test_arms_no_brownout_ladder(self):
        """The listener has no rung to act on, so a ladder would report
        a level while nothing is shed: 20 ticks of 30 s e2e latency
        leave the level at 0."""
        reg = MetricsRegistry()
        controller = Controller(default_listen_policy(), registry=reg)
        controller.bind("listener_rate", ListenerRateActuator(DeficitRoundRobin(1000.0)))
        e2e = wellknown.e2e_latency_seconds(reg)
        for t in range(20):
            e2e.observe(30.0)
            controller.tick(float(t))
        assert controller.brownout is None
        assert controller.stats()["brownout_level"] == 0
        assert wellknown.control_brownout_level(reg).value() == 0


# -- wellknown families ----------------------------------------------------


class TestControlFamiliesDeclared:
    def test_families_declared(self):
        reg = MetricsRegistry()
        wellknown.declare_all(reg)
        names = {m.name for m in reg.collect()}
        for name in (
            "repro_control_ticks_total",
            "repro_control_actuations_total",
            "repro_control_setpoint",
            "repro_control_flips_total",
            "repro_control_brownout_level",
            "repro_control_shed_total",
            "repro_control_feedforward_rate",
            "repro_control_feedforward_moves_total",
            "repro_ingest_tenant_received_total",
            "repro_ingest_tenant_accepted_total",
            "repro_ingest_tenant_shed_total",
            "repro_ingest_tenants_active",
            "repro_store_breaker_state",
        ):
            assert name in names, name
