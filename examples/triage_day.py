#!/usr/bin/env python3
"""A day in the life of the test-bed: end-to-end triage scenario.

Simulates a full collection day on the Tivan pipeline with two injected
incidents (a cold-aisle door left open, an unexpected USB device —
§4.5's motivating scenarios), classifies the stream in real time with
the trained pipeline, raises per-category alert emails, and renders the
monitoring dashboards an administrator would look at.

Run:  python examples/triage_day.py
"""

from repro.core import (
    AlertRouter,
    Category,
    ClassificationPipeline,
    EmailSink,
)
from repro.datagen import CorpusGenerator, Incident, generate_stream
from repro.ml import LogisticRegression
from repro.monitor import (
    BurstDetector,
    RackTopology,
    localize_bursts,
    render_overview,
)
from repro.stream import TivanCluster
from repro.stream.tivan import SETTLE_MARGIN_S, ClassifierStage

DURATION_S = 1800.0  # half an hour of stream, compressed
RACK_HOSTS = tuple(f"cn{i:03d}" for i in range(8))


def main() -> None:
    print("Training the classification pipeline on historical data...")
    history = CorpusGenerator(scale=0.02, seed=11).generate()
    pipeline = ClassificationPipeline(classifier=LogisticRegression(max_iter=200))
    pipeline.fit(history.texts, history.labels)

    print("Simulating the day's stream with two incidents...")
    events = generate_stream(
        duration_s=DURATION_S,
        background_rate=5.0,
        seed=23,
        incidents=[
            Incident("cold-aisle-door-open", Category.THERMAL,
                     start=600.0, duration=120.0, hostnames=RACK_HOSTS,
                     peak_rate=2.0),
            Incident("unexpected-usb", Category.USB,
                     start=1200.0, duration=40.0, hostnames=("sk002",),
                     peak_rate=3.0),
        ],
    )
    cluster = TivanCluster()
    cluster.load_events(events)
    cluster.attach_classifier(
        ClassifierStage(
            service_time_s=max(pipeline.mean_service_time, 1e-4),
            classify_batch=lambda texts: [r.category for r in pipeline.classify_batch(texts)],
        )
    )
    report = cluster.run(DURATION_S + SETTLE_MARGIN_S)
    print(f"  produced={report.produced} indexed={report.indexed} "
          f"classified={report.classified} backlog={report.final_backlog}\n")

    # Alerting: one email per (category, host) with cooldown.
    email = EmailSink()
    router = AlertRouter.with_defaults(email)
    for doc_id in range(len(cluster.store)):
        doc = cluster.store.get(doc_id)
        if doc.category is not None:
            router.route(
                doc.category,
                timestamp=doc.message.timestamp,
                hostname=doc.message.hostname,
                text=doc.message.text,
                severity=doc.message.severity,
            )
    print(f"[alerting] {len(email.outbox)} notification emails "
          f"(cooldown suppressed the thermal storm into per-node digests)")
    if email.outbox:
        print("--- first email ---")
        print(email.outbox[0])

    # Frequency + positional analysis.
    detector = BurstDetector(z_threshold=3.0)
    topology = RackTopology.grid(RACK_HOSTS, nodes_per_rack=8)
    bursts_by_host = {
        h: detector.detect_in_store(cluster.store, interval_s=60.0, term=h)
        for h in RACK_HOSTS
    }
    incidents = localize_bursts(topology, bursts_by_host)
    print("[positional analysis]")
    for inc in incidents:
        print(f"  rack {inc.rack}: {len(inc.affected_nodes)}/8 nodes surged "
              f"in window {inc.window[0]:.0f}-{inc.window[1]:.0f}s "
              f"-> check cooling / containment door")
    print()
    print(render_overview(cluster.store, interval_s=120.0))


if __name__ == "__main__":
    main()
