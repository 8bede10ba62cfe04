"""EXP-CTRL — closed-loop autoscaling vs static provisioning.

The control-plane acceptance experiment: one surge trace whose offered
load swings 10× (base → 10× base for the middle third, back down for
the last third) is replayed through three provisioning strategies over
the *same* simulated cluster topology:

- **static-min** — one classifier worker, a tiny forwarder flush batch:
  the cheap configuration.  Under the surge its drain capacity is below
  the offered rate, broker lag and classifier backlog grow without
  bound, and the e2e p99 blows through the stock 5 s SLO.
- **static-max** — peak-sized workers and flush batch all run long: the
  SLO holds, but the worker-seconds bill is peak × duration.
- **controlled** — starts at the static-min setpoints with the
  closed-loop controller attached: AIMD grows the forwarder batch on
  broker lag and the worker pool on classifier backlog during the
  surge, and the capacity-guarded relief path shrinks both back once
  the surge passes.

Asserted shape: the controlled run holds the e2e p99 under the stock
SLO across the full swing (static-min demonstrably does not) while
billing fewer worker-seconds than static-max — elasticity without
oscillation (the flip count stays tiny).

Environment knobs: ``REPRO_BENCH_CTRL_DURATION`` (simulated seconds,
default 900; CI smoke uses 450), ``REPRO_BENCH_CTRL_RATE`` (base
messages/second, default 4), ``REPRO_BENCH_MATRIX_OUT`` (write the
comparison rows as JSON for artifact upload).
"""

from __future__ import annotations

import json
import os

from conftest import emit, write_artifact

from repro.control import BrownoutPolicy, ControlPolicy, LeverPolicy
from repro.core.taxonomy import Category
from repro.datagen.workload import offered_load_events
from repro.experiments.common import format_table
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    histogram_quantile,
    set_default_registry,
)
from repro.obs.slo import default_slos
from repro.stream.tivan import SETTLE_MARGIN_S, ClassifierStage, TivanCluster

DURATION_S = float(os.environ.get("REPRO_BENCH_CTRL_DURATION", "900"))
BASE_RATE = float(os.environ.get("REPRO_BENCH_CTRL_RATE", "4"))
SWING = 10.0
SERVICE_S = 0.04          # one worker classifies 25 msg/s
MAX_WORKERS = 4
MIN_BATCH, MAX_BATCH = 25, 2000

E2E_SLO_S = next(t.threshold for t in default_slos() if t.name == "e2e_p99")


def _bench_policy() -> ControlPolicy:
    """The bench's controller: batch on broker lag, workers on backlog."""
    return ControlPolicy(
        tick_every_s=5.0,
        utilization_cap=0.8,
        levers=(
            LeverPolicy(
                name="stage_workers", signal="classifier_backlog",
                high=150.0, low=30.0, min_value=1, max_value=MAX_WORKERS,
                up_step=1, down_factor=0.5, cooldown_s=5.0,
                hold_ticks=3, costed=True,
            ),
            LeverPolicy(
                name="fluentd_batch", signal="broker_lag",
                high=50.0, low=20.0, min_value=MIN_BATCH, max_value=MAX_BATCH,
                up_step=200, down_factor=0.5, cooldown_s=5.0, hold_ticks=4,
            ),
        ),
        brownout=BrownoutPolicy(backlog_high=10_000.0),
    )


def _run(name: str, *, n_workers: int, batch: int, controlled: bool):
    """One strategy over the shared surge trace; returns the row dict."""
    registry = MetricsRegistry()
    previous = default_registry()
    set_default_registry(registry)
    try:
        events = offered_load_events(
            profile="surge", duration_s=DURATION_S,
            base_rate=BASE_RATE, swing=SWING, seed=7,
        )
        cluster = TivanCluster(
            batch_size=batch, flush_interval_s=1.0, trace_sample=1.0,
        )
        cluster.attach_classifier(ClassifierStage(
            service_time_s=SERVICE_S, batch_size=32, n_workers=n_workers,
            cheap_classify_batch=lambda texts: (
                [Category.UNIMPORTANT] * len(texts)
            ),
        ))
        if controlled:
            cluster.attach_controller(_bench_policy())
        cluster.load_events(events)
        report = cluster.run(DURATION_S + SETTLE_MARGIN_S)
        p99 = _e2e_p99(registry)
        worker_seconds = (
            report.control_worker_seconds
            if controlled else n_workers * DURATION_S
        )
        return {
            "name": name,
            "produced": report.produced,
            "indexed": report.indexed,
            "backlog": report.final_backlog,
            "e2e_p99_s": p99,
            "worker_seconds": worker_seconds,
            "actuations": report.control_actuations,
            "flips": report.control_flips,
            "shed": report.shed_messages,
        }
    finally:
        set_default_registry(previous)


def _e2e_p99(registry: MetricsRegistry) -> float:
    fam = registry.get("repro_e2e_latency_seconds")
    merged: dict[float, int] = {}
    for _labels, child in fam.samples():
        for edge, cum in child.cumulative():
            merged[edge] = merged.get(edge, 0) + cum
    return histogram_quantile(sorted(merged.items()), 0.99)


def test_autoscale_holds_slo_cheaper_than_static():
    static_min = _run(
        "static-min", n_workers=1, batch=MIN_BATCH, controlled=False
    )
    static_max = _run(
        "static-max", n_workers=MAX_WORKERS, batch=MAX_BATCH,
        controlled=False,
    )
    controlled = _run(
        "controlled", n_workers=1, batch=MIN_BATCH, controlled=True
    )

    rows = [static_min, static_max, controlled]
    emit(
        f"Closed-loop autoscaling vs static provisioning "
        f"({SWING:.0f}x surge, {DURATION_S:.0f}s)",
        format_table(
            ["Strategy", "e2e p99 s", "worker-s", "backlog",
             "actuations", "flips", "shed"],
            [[r["name"], r["e2e_p99_s"], r["worker_seconds"],
              r["backlog"], r["actuations"], r["flips"], r["shed"]]
             for r in rows],
        ),
    )
    write_artifact("autoscale", {
        "params": {
            "duration_s": DURATION_S,
            "base_rate": BASE_RATE,
            "swing": SWING,
            "e2e_slo_s": E2E_SLO_S,
        },
        "rows": rows,
    })
    # legacy knob: the CI matrix job uploads this exact path
    out = os.environ.get("REPRO_BENCH_MATRIX_OUT")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)

    # the swing is real: the cheap static configuration violates the SLO
    assert static_min["e2e_p99_s"] > E2E_SLO_S, static_min
    # peak provisioning holds it, as does the controller...
    assert static_max["e2e_p99_s"] < E2E_SLO_S, static_max
    assert controlled["e2e_p99_s"] < E2E_SLO_S, controlled
    # ...but the controller bills materially fewer worker-seconds
    assert (
        controlled["worker_seconds"] < 0.75 * static_max["worker_seconds"]
    ), (controlled["worker_seconds"], static_max["worker_seconds"])
    # elasticity without oscillation: a handful of direction changes
    assert controlled["flips"] <= 8, controlled
    # and the controller actually did something
    assert controlled["actuations"] >= 2, controlled
