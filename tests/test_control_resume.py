"""Durable control plane: crash-resuming controller state.

The control phase-2 promise is that a SIGKILLed ``--control`` durable
run wakes up with the *same* control loop it died with: identical
setpoints, ladder rung, cooldown clocks, and hysteresis counters, and
zero duplicate actuations from the restore itself.  Three layers:

1. **Round-trip** — ``export_state`` → JSON → ``restore_state`` on a
   freshly bound controller is the identity, and repositioning the
   rebuilt cluster's levers never counts as an actuation.
2. **Journal** — a durable controlled run writes ``"control"`` WAL
   records every tick and ``recover_state`` surfaces the newest one.
3. **SIGKILL harness** — the subprocess scenario: kill a controlled
   surge run mid-ramp, assert the resumed child's captured
   ``control_at_resume`` equals the journaled death state byte for
   byte, across the CI chaos-seed matrix.
"""

import json
import os
import signal
from types import SimpleNamespace

import pytest

from repro.control import (
    BrownoutPolicy,
    CallableActuator,
    ControlPolicy,
    Controller,
    FeedforwardPolicy,
    LeverPolicy,
    SignalReader,
)
from repro.durability import (
    SimConfig,
    recover_state,
    resume_simulation,
    run_child,
    run_to_completion,
)
from repro.obs import MetricsRegistry, use_registry, wellknown

#: the CI chaos job shifts this to run the whole suite under other seeds
SEED_SHIFT = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
CHAOS_SEEDS = [SEED_SHIFT, SEED_SHIFT + 1, SEED_SHIFT + 2]


@pytest.fixture(autouse=True)
def _fresh_registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


def _resume_policy() -> ControlPolicy:
    """One costed capacity lever, the ladder, and feedforward armed."""
    return ControlPolicy(
        tick_every_s=2.0,
        levers=(
            LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=20.0, low=4.0, min_value=1, max_value=20,
                up_step=2, down_factor=0.5, cooldown_s=2.0,
                hold_ticks=3, costed=True,
            ),
        ),
        brownout=BrownoutPolicy(
            backlog_high=150.0, enter_ticks=2, exit_ticks=4
        ),
        feedforward=FeedforwardPolicy(
            window_ticks=4, horizon_s=10.0, min_gain=1.2
        ),
    )


def _surge_config(seed: int, **kw) -> SimConfig:
    """A durable controlled run with an 8× surge in the middle third."""
    kw.setdefault("duration_s", 60.0)
    kw.setdefault("rate", 4.0)
    kw.setdefault("model_dir", None)
    kw.setdefault("service_time_s", 0.05)
    kw.setdefault("checkpoint_every_s", 10.0)
    kw.setdefault("load_profile", "surge")
    kw.setdefault("load_swing", 8.0)
    kw.setdefault("control", _resume_policy().to_dict())
    return SimConfig(seed=seed, **kw)


def _kill_point(seed: int) -> int:
    """An arming ordinal that lands mid-surge (t ≈ 26–32 s), after the
    controller has climbed several rungs but well before relief."""
    return 350 + 40 * (seed % 3)


# -- export/restore round-trip ---------------------------------------------


def _fluid_loop(reg, *, ticks, rate=80.0, service_s=0.04):
    """Run the anti-oscillation fluid queue against a fresh controller."""
    controller, box = _bound_controller(reg)
    backlog = wellknown.classifier_backlog(reg)
    received = wellknown.relay_received(reg)
    queue = 0.0
    for t in range(ticks):
        received.inc(rate)
        queue = max(0.0, queue + rate - box.value / service_s)
        backlog.set(queue)
        controller.tick(float(t))
    return controller, box


def _bound_controller(reg, *, initial=1):
    policy = ControlPolicy(
        tick_every_s=1.0,
        levers=(
            LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=50.0, low=10.0, min_value=1, max_value=8,
                up_step=1, down_factor=0.5, cooldown_s=0.0,
                hold_ticks=2, costed=True,
            ),
        ),
        brownout=BrownoutPolicy(backlog_high=500.0),
        feedforward=FeedforwardPolicy(
            window_ticks=4, horizon_s=5.0, min_gain=1.2
        ),
    )
    controller = Controller(policy, registry=reg)
    box = SimpleNamespace(value=initial)

    def _set(v):
        box.value = int(v)

    controller.bind(
        "stage_workers",
        CallableActuator(lambda: box.value, _set, integral=True),
    )
    return controller, box


class TestStateRoundTrip:
    def test_export_restore_is_identity(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            controller, box = _fluid_loop(reg, ticks=30)
        assert controller.total_actuations > 0  # the loop actually moved
        exported = json.loads(json.dumps(controller.export_state()))

        fresh_reg = MetricsRegistry()
        restored, fresh_box = _bound_controller(fresh_reg)
        restored.restore_state(exported)
        assert restored.export_state() == exported
        # the actuator was driven to the journaled setpoint...
        assert fresh_box.value == int(box.value)
        # ...without the repositioning counting as an actuation
        assert restored.total_actuations == controller.total_actuations

    def test_restore_repositions_without_counting(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            controller, box = _fluid_loop(reg, ticks=30)
        exported = controller.export_state()
        n_before = exported["levers"]["stage_workers"]["n_actuations"]
        assert n_before > 0

        restored, fresh_box = _bound_controller(MetricsRegistry(), initial=1)
        assert fresh_box.value != box.value  # cold default differs
        restored.restore_state(exported)
        lever = restored.levers["stage_workers"]
        assert fresh_box.value == int(box.value)
        assert lever.n_actuations == n_before

    def test_reader_window_roundtrip(self):
        reg = MetricsRegistry()
        received = wellknown.relay_received(reg)
        hist = wellknown.e2e_latency_seconds(reg)
        reader = SignalReader(reg)
        reader.begin_tick(0.0)
        received.inc(40)
        hist.observe(0.2)
        reader.begin_tick(10.0)
        exported = json.loads(json.dumps(reader.export_window()))

        fresh = SignalReader(reg)
        fresh.restore_window(exported)
        assert fresh.export_window() == exported
        # a restored window yields the same rate on the next tick
        received.inc(80)
        reader.begin_tick(20.0)
        fresh.begin_tick(20.0)
        assert fresh.counter_rate("repro_stream_relay_received_total") == \
            reader.counter_rate("repro_stream_relay_received_total")


# -- control records in the WAL --------------------------------------------


class TestControlJournal:
    def test_durable_run_journals_control_records(self, tmp_path):
        _surge_config(seed=1, duration_s=20.0).save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        assert cluster.controller is not None
        cluster.run(config.duration_s + 30.0)
        journal.wal.close()
        recovered = recover_state(tmp_path)
        control = recovered.state.control
        assert control is not None
        assert control["n_ticks"] == cluster.controller.n_ticks
        assert "stage_workers" in control["levers"]

    def test_resume_restores_controller(self, tmp_path):
        _surge_config(seed=2, duration_s=20.0).save(tmp_path)
        cluster, config, journal = resume_simulation(tmp_path)
        cluster.run(config.duration_s + 30.0)
        expected = cluster.controller.export_state()
        journal.wal.close()

        cluster2, _config, journal2 = resume_simulation(tmp_path)
        assert cluster2.controller.export_state() == \
            json.loads(json.dumps(expected))
        journal2.wal.close()


# -- the subprocess SIGKILL harness ----------------------------------------


class TestCrashResume:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_sigkill_resumes_identical_control_state(self, tmp_path, seed):
        _surge_config(seed=seed).save(tmp_path)
        proc = run_child(
            tmp_path, crash_at=_kill_point(seed), crash_seed=seed,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # the journaled death state, read before the clean run appends
        expected = recover_state(tmp_path).state.control
        assert expected is not None
        acts = {
            name: lv["n_actuations"]
            for name, lv in expected["levers"].items()
        }
        assert sum(acts.values()) > 0, (
            f"kill point fired before any actuation: {expected}"
        )

        final = run_child(tmp_path, timeout=120)
        assert final.returncode == 0, final.stderr
        report = json.loads((tmp_path / "report.json").read_text())

        # identical setpoints, ladder rung, cooldown clocks, hysteresis
        assert report["control_at_resume"] == expected
        # zero duplicate actuations from the restore itself
        resumed_acts = {
            name: lv["n_actuations"]
            for name, lv in report["control_at_resume"]["levers"].items()
        }
        assert resumed_acts == acts
        # the resumed loop kept running and conservation still held
        assert report["control"]["ticks"] > expected["n_ticks"]
        c = report["conservation"]
        assert c["lost"] == 0 and c["duplicated"] == 0, c

    def test_control_families_read_the_resumed_controller(self, tmp_path, _fresh_registry):
        """Ticks, flips and setpoints are views of the controller: right
        after an in-process resume of the SIGKILLed surge they read the
        counts the journal restored, not the last checkpoint's copy, and
        they still read the controller when the run is out."""
        seed = SEED_SHIFT
        _surge_config(seed=seed).save(tmp_path)
        proc = run_child(tmp_path, crash_at=_kill_point(seed), crash_seed=seed, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        cluster, config, _journal = resume_simulation(tmp_path)
        controller = cluster.controller

        def assert_views():
            reg = _fresh_registry
            assert wellknown.control_ticks(reg).value() == controller.n_ticks
            for name, lever in controller.levers.items():
                assert wellknown.control_setpoint(reg).value(lever=name) == lever.value
                assert wellknown.control_flips(reg).value(lever=name) == lever.n_flips

        assert controller.n_ticks > 0
        assert_views()
        run_to_completion(cluster, config)
        assert_views()
