#!/usr/bin/env python3
"""Tour of the Tivan log store: queries, aggregations, capacity (§4.2).

Ingests a simulated stream through the full pipeline, then exercises
the store the way a Grafana dashboard (or an investigating admin)
would: term and phrase search, time-range filtering, severity cuts,
aggregations — and sizes the paper's hardware against its published
ingest volumes.

Run:  python examples/tivan_queries.py
"""

from repro.core import Category, Severity
from repro.datagen import Incident, generate_stream
from repro.stream import CapacityPlanner, PAPER_CLUSTER, TivanCluster
from repro.monitor import render_top_panel


def main() -> None:
    print("Ingesting a 30-minute stream through relay -> broker -> fluentd -> store...")
    events = generate_stream(
        duration_s=1800.0, background_rate=6.0, seed=4,
        incidents=[Incident("door", Category.THERMAL, start=600.0,
                            duration=90.0,
                            hostnames=tuple(f"cn{i:03d}" for i in range(4)),
                            peak_rate=2.0)],
    )
    cluster = TivanCluster()
    cluster.load_events(events)
    report = cluster.run(1830.0)
    store = cluster.store
    print(f"  indexed {report.indexed} messages, "
          f"{store.index_stats()['unique_terms']} unique terms, "
          f"shards {store.shard_counts()}\n")

    print("[term query] messages mentioning 'throttled':")
    hits = store.term_query("throttled", limit=3)
    print(f"  {hits.total} hits; e.g.:")
    for d in hits.docs:
        print(f"    t={d.message.timestamp:7.1f}s {d.message.hostname}: "
              f"{d.message.text[:70]}")

    print("\n[phrase query] 'temperature above threshold':")
    print(f"  {store.phrase_query('temperature above threshold').total} hits")

    print("\n[time + severity cut] warnings-or-worse during the incident:")
    cut = store.term_query("kernel", t0=600.0, t1=700.0,
                           max_severity=Severity.WARNING)
    print(f"  {cut.total} kernel messages at WARNING+ in 600-700s")

    print("\n[aggregations]")
    print(render_top_panel(store.terms_aggregation("app", top=5),
                           title="  messages by service"))
    sev = store.severity_histogram()
    print(render_top_panel(
        [(s.name.lower(), n) for s, n in sorted(sev.items())],
        title="  messages by severity",
    ))

    print("\n[capacity] sizing the paper's cluster from this sample:")
    plan = CapacityPlanner(cluster=PAPER_CLUSTER).plan(
        store, records_per_month=30_000_000
    )
    print(f"  {plan.bytes_per_record:,.0f} bytes per indexed record")
    print(f"  30M records/month = {plan.monthly_bytes / 1e9:.1f} GB/month")
    print(f"  retention on 6x4TB (1 replica): {plan.retention_months:,.0f} months")
    print(f"  ceiling at 12-month retention: "
          f"{plan.max_sustainable_records_per_month:,.0f} records/month")
    print("\nThe paper's 'thirty million log records a month' (§4.2) is "
          "well inside this hardware — headroom for the whole facility.")


if __name__ == "__main__":
    main()
