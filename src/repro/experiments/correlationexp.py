"""EXP-CORR: facility-event correlation (§4.5.1).

Builds the paper's suggested security view: badge-access events to the
data-center room, a log stream in which some USB-device events follow
badge swipes (someone walks in and plugs something in) while background
noise continues throughout, and the lagged-window correlator that joins
them.  A control correlation against an unrelated category (SSH
traffic, which has no relationship to physical access) validates the
permutation baseline: its lift must hover around 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.taxonomy import Category
from repro.datagen.workload import Incident, generate_stream
from repro.monitor.correlate import CorrelationResult, EventCorrelator
from repro.stream.tivan import SETTLE_MARGIN_S, TivanCluster

__all__ = ["CorrelationExperimentResult", "run_correlation_experiment"]


@dataclass(frozen=True)
class CorrelationExperimentResult:
    """Correlations of badge events against USB (signal) and SSH (control)."""

    usb: CorrelationResult
    ssh_control: CorrelationResult
    n_badge_events: int
    indexed: int


def run_correlation_experiment(
    *,
    duration_s: float = 7200.0,
    background_rate: float = 2.0,
    n_badged_visits: int = 15,
    n_unrelated_swipes: int = 6,
    max_lag_s: float = 60.0,
    seed: int = 0,
) -> CorrelationExperimentResult:
    """Run the badge ↔ USB correlation scenario end to end."""
    rng = np.random.default_rng(seed)
    # badge swipes that lead to USB activity shortly after
    visit_times = np.sort(rng.uniform(300.0, duration_s - 600.0, size=n_badged_visits))
    incidents = []
    for i, t in enumerate(visit_times):
        lag = float(rng.uniform(20.0, max_lag_s * 0.6))
        incidents.append(Incident(
            name=f"usb-visit-{i}",
            category=Category.USB,
            start=float(t) + lag,
            duration=30.0,
            hostnames=(f"sk{int(rng.integers(0, 6)):03d}",),
            peak_rate=1.5,
        ))
    # swipes with no following activity (cleaning crew, tours)
    idle_swipes = rng.uniform(300.0, duration_s - 600.0, size=n_unrelated_swipes)
    badge_times = np.sort(np.concatenate([visit_times, idle_swipes]))

    events = generate_stream(
        duration_s=duration_s,
        background_rate=background_rate,
        incidents=incidents,
        seed=seed + 1,
    )
    cluster = TivanCluster()
    cluster.load_events(events)
    cluster.run(duration_s + SETTLE_MARGIN_S)

    # classified target streams from the store (ground-truth labels here;
    # in deployment these come from the classification pipeline)
    usb_times = sorted(
        e.message.timestamp for e in events if e.label is Category.USB
    )
    ssh_times = sorted(
        e.message.timestamp for e in events if e.label is Category.SSH
    )
    correlator = EventCorrelator(max_lag_s=max_lag_s, n_shifts=200, seed=seed)
    usb = correlator.correlate(
        badge_times, usb_times,
        candidate_labels=[
            "badge-visit" if t in set(visit_times.tolist()) else "badge-idle"
            for t in badge_times.tolist()
        ],
        horizon=duration_s,
    )
    ssh = correlator.correlate(badge_times, ssh_times, horizon=duration_s)
    return CorrelationExperimentResult(
        usb=usb,
        ssh_control=ssh,
        n_badge_events=len(badge_times),
        indexed=len(cluster.store),
    )
