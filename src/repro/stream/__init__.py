"""Discrete-event simulation of the Tivan log-collection pipeline (§4.2).

The paper's infrastructure forwards every node's syslog stream to a
central relay, through Fluentd into an OpenSearch cluster, visualized
with Grafana.  This package rebuilds that path as a discrete-event
simulation with real data structures:

- :mod:`repro.stream.events` — the event engine (heap scheduler),
- :mod:`repro.stream.fluentd` — the forwarder: buffering, batching,
  flush intervals, retry with backoff, bounded-queue backpressure,
- :mod:`repro.stream.opensearch` — an indexed document store with a
  real inverted index: term and phrase queries, time-range filters,
  date-histogram and terms aggregations, round-robin shards,
- :mod:`repro.stream.tivan` — the assembled cluster: each trace line
  is scheduled straight onto its relay, which publishes to the log
  broker the forwarders consume; plus classifier attachment so the
  throughput experiments (can classification keep up with >1M
  messages/hour? §5) run end-to-end.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "events": ("EventEngine", "Event"),
    "fluentd": ("FluentdForwarder", "ForwarderStats"),
    "opensearch": ("LogStore", "LogDocument", "QueryResult", "DateHistogramBucket"),
    "tivan": ("TivanCluster", "IngestReport", "ClassifierStage"),
    "capacity": ("CapacityPlanner", "CapacityPlan", "ClusterSpec", "PAPER_CLUSTER"),
})
