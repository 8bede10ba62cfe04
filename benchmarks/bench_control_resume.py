"""EXP-RESUME — crash-resumed controller vs cold-restarted controller.

The durable control plane's acceptance experiment: one controlled
surge run is stopped mid-ramp (its decision state journaled as
``control`` WAL records), and the same WAL directory is then resumed
two ways over identical remaining work:

- **warm** — the stock durable resume: ``resume_simulation`` restores
  the journaled controller (setpoints, cooldown clocks, ladder rung,
  feedforward window) and repositions the rebuilt cluster's levers
  without counting actuations.
- **cold** — a restart that lost its control state: the same resumed
  cluster, but with a *fresh* controller at policy defaults and the
  worker pool back at its cold size, exactly as a pre-journal build
  would come up.

Asserted shape: the warm controller is back at the pre-stop setpoint
within ≤ 2 control ticks (usually 0 — the restore itself repositions),
while the cold one spends strictly more ticks re-climbing the AIMD
ladder under a backlog it had already solved once.

Environment knobs: ``REPRO_BENCH_RESUME_DURATION`` (simulated seconds,
default 60), ``REPRO_BENCH_RESUME_RATE`` (base messages/second,
default 4).  The comparison rows always land in
``BENCH_control_resume.json``.
"""

from __future__ import annotations

import os
import shutil

from conftest import emit, write_artifact

from repro.control import (
    BrownoutPolicy,
    ControlPolicy,
    FeedforwardPolicy,
    LeverPolicy,
)
from repro.durability import SimConfig, recover_state, resume_simulation, run_to_completion
from repro.experiments.common import format_table
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
)

DURATION_S = float(os.environ.get("REPRO_BENCH_RESUME_DURATION", "60"))
BASE_RATE = float(os.environ.get("REPRO_BENCH_RESUME_RATE", "4"))
SWING = 8.0
LEVER = "stage_workers"
COLD_WORKERS = 1  # ClassifierStage's cold default worker-pool size


def _policy() -> ControlPolicy:
    return ControlPolicy(
        tick_every_s=2.0,
        levers=(
            LeverPolicy(
                name=LEVER, signal="classifier_backlog",
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


def _config() -> SimConfig:
    return SimConfig(
        duration_s=DURATION_S, rate=BASE_RATE, seed=7, model_dir=None,
        service_time_s=0.05, checkpoint_every_s=10.0,
        load_profile="surge", load_swing=SWING,
        control=_policy().to_dict(),
    )


def _seed_run(seed_dir) -> float:
    """Run the controlled surge to mid-ramp; returns the stop setpoint."""
    registry = MetricsRegistry()
    previous = default_registry()
    set_default_registry(registry)
    try:
        _config().save(seed_dir)
        cluster, config, journal = resume_simulation(seed_dir)
        cluster.run(config.duration_s * 0.55)  # stop mid-surge
        journal.wal.close()
    finally:
        set_default_registry(previous)
    control = recover_state(seed_dir).state.control
    assert control is not None, "seed run journaled no control records"
    return float(control["levers"][LEVER]["value"])


def _lane(lane_dir, *, warm: bool, target: float) -> dict:
    """Resume one lane and count ticks until the lever re-reaches target."""
    registry = MetricsRegistry()
    previous = default_registry()
    set_default_registry(registry)
    try:
        cluster, config, _journal = resume_simulation(lane_dir)
        controller = cluster.controller
        assert controller is not None
        if not warm:
            # a restart that lost its control state: fresh controller at
            # policy defaults, worker pool back at the cold size
            cluster._stage.n_workers = COLD_WORKERS
            controller = cluster.attach_controller(
                ControlPolicy.from_dict(config.control)
            )
        start_value = controller.levers[LEVER].value
        trajectory: list[float] = []
        real_tick = controller.tick

        def tick(now: float) -> None:
            real_tick(now)
            trajectory.append(controller.levers[LEVER].value)

        controller.tick = tick
        report, _conservation = run_to_completion(cluster, config)
    finally:
        set_default_registry(previous)
    if start_value >= target:
        ticks_to_target = 0
    else:
        ticks_to_target = next(
            (i + 1 for i, v in enumerate(trajectory) if v >= target),
            len(trajectory) + 1,
        )
    return {
        "lane": "warm" if warm else "cold",
        "start_setpoint": start_value,
        "target_setpoint": target,
        "ticks_to_target": ticks_to_target,
        "ticks": controller.n_ticks,
        "actuations": controller.total_actuations,
        "flips": controller.total_flips,
        "indexed": report.indexed,
    }


def test_warm_resume_reconverges_within_two_ticks(tmp_path):
    seed_dir = tmp_path / "seed"
    seed_dir.mkdir()
    target = _seed_run(seed_dir)
    assert target > COLD_WORKERS, (
        f"surge never moved the lever (target={target}); nothing to resume"
    )

    lanes = {}
    for warm in (True, False):
        lane_dir = tmp_path / ("warm" if warm else "cold")
        shutil.copytree(seed_dir, lane_dir)
        lanes["warm" if warm else "cold"] = _lane(
            lane_dir, warm=warm, target=target
        )

    rows = [lanes["warm"], lanes["cold"]]
    emit(
        f"Crash-resumed vs cold-restarted controller "
        f"({SWING:.0f}x surge, stop at {DURATION_S * 0.55:.0f}s)",
        format_table(
            ["Lane", "start", "target", "ticks to target",
             "actuations", "flips"],
            [[r["lane"], r["start_setpoint"], r["target_setpoint"],
              r["ticks_to_target"], r["actuations"], r["flips"]]
             for r in rows],
        ),
    )
    write_artifact("control_resume", {
        "params": {
            "duration_s": DURATION_S,
            "base_rate": BASE_RATE,
            "swing": SWING,
            "lever": LEVER,
        },
        "rows": rows,
    })

    warm_lane, cold_lane = lanes["warm"], lanes["cold"]
    # the restored controller wakes up already positioned
    assert warm_lane["ticks_to_target"] <= 2, warm_lane
    # the cold restart re-climbs the ladder it had already climbed
    assert cold_lane["ticks_to_target"] > warm_lane["ticks_to_target"], lanes
    assert cold_lane["ticks_to_target"] >= 3, cold_lane
