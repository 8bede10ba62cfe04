"""EXP-THRU: can classification keep up with the message stream?

§1: "In just an hour over a million messages can be produced in a small
scale test-bed"; §6: LLM classification "will not be able to keep up
with the continuous flow of messages without dedicating significantly
more resources."  This experiment runs the full Tivan simulation at a
sweep of arrival rates with classifier stages whose service times come
from (a) the measured traditional pipeline and (b) Table 3's LLM cost
model, and reports backlog growth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.pipeline import ClassificationPipeline
from repro.datagen.generator import CorpusGenerator
from repro.datagen.workload import generate_stream
from repro.experiments.table3 import run_table3
from repro.ml import ComplementNB
from repro.stream.tivan import ClassifierStage, TivanCluster

__all__ = [
    "ThroughputRow",
    "run_throughput_sweep",
    "measured_pipeline_service_time",
    "find_crossover_rate",
]


@dataclass(frozen=True)
class ThroughputRow:
    """Backlog outcome for one (classifier, arrival rate) cell."""

    classifier: str
    service_time_s: float
    arrival_rate_hz: float
    produced: int
    classified: int
    final_backlog: int
    keeping_up: bool


def measured_pipeline_service_time(
    *,
    scale: float = 0.01,
    seed: int = 0,
    n_probe: int = 500,
) -> float:
    """Train the traditional pipeline and measure its per-message time
    through the batch-first path (one ``classify_batch`` of the probe)."""
    corpus = CorpusGenerator(scale=scale, seed=seed).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    probe = (corpus.texts * ((n_probe // len(corpus.texts)) + 1))[:n_probe]
    t0 = time.perf_counter()
    pipe.classify_batch(probe)
    return (time.perf_counter() - t0) / len(probe)


def find_crossover_rate(
    service_time_s: float,
    *,
    duration_s: float = 90.0,
    seed: int = 0,
    safety: float = 1.5,
) -> tuple[float, bool, bool]:
    """Locate a classifier's saturation point empirically.

    Queueing theory puts the crossover at ``1/service_time`` arrivals
    per second; this verifies it in the simulator by running just below
    (rate/safety) and just above (rate×safety) the predicted point.

    Returns
    -------
    (predicted_rate_hz, keeps_up_below, keeps_up_above)
        The prediction is validated when the classifier keeps up below
        the crossover and drowns above it.
    """
    if service_time_s <= 0:
        raise ValueError(f"service_time_s must be positive, got {service_time_s}")
    if safety <= 1.0:
        raise ValueError(f"safety must be > 1, got {safety}")
    predicted = 1.0 / service_time_s

    def run_at(rate: float) -> bool:
        events = generate_stream(
            duration_s=duration_s, background_rate=rate, seed=seed
        )
        cluster = TivanCluster()
        cluster.load_events(events)
        cluster.attach_classifier(ClassifierStage(service_time_s=service_time_s))
        return cluster.run(duration_s + 10.0).keeping_up

    return predicted, run_at(predicted / safety), run_at(predicted * safety)


def run_throughput_sweep(
    *,
    rates_hz: tuple[float, ...] = (1.0, 5.0, 20.0),
    duration_s: float = 120.0,
    seed: int = 0,
    include_traditional: bool = True,
    stage_batch_size: int = 1,
) -> list[ThroughputRow]:
    """Sweep arrival rates against LLM-speed and pipeline-speed stages.

    Service times: the three Table 3 models (regenerated from the cost
    model) and, optionally, the measured traditional pipeline.
    ``stage_batch_size`` sets how many queued documents each simulated
    service tick drains.
    """
    stages: list[tuple[str, float]] = [
        (row.model, row.inference_time_s) for row in run_table3()
    ]
    if include_traditional:
        stages.append(
            ("tfidf+complement-nb (measured)", measured_pipeline_service_time(seed=seed))
        )
    rows: list[ThroughputRow] = []
    for rate in rates_hz:
        events = generate_stream(
            duration_s=duration_s, background_rate=rate, seed=seed
        )
        for name, svc in stages:
            cluster = TivanCluster()
            cluster.load_events(events)
            cluster.attach_classifier(
                ClassifierStage(service_time_s=svc, batch_size=stage_batch_size)
            )
            report = cluster.run(duration_s + 10.0)
            rows.append(
                ThroughputRow(
                    classifier=name,
                    service_time_s=svc,
                    arrival_rate_hz=rate,
                    produced=report.produced,
                    classified=report.classified,
                    final_backlog=report.final_backlog,
                    keeping_up=report.keeping_up,
                )
            )
    return rows
