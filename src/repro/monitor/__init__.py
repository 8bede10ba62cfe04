"""Monitoring and diagnosis analyses (§4.5).

Four techniques the paper recommends for finding and diagnosing
test-bed issues, implemented over the :class:`repro.stream.opensearch.
LogStore`:

- :mod:`repro.monitor.frequency` — frequency/temporal analysis: detect
  surges of messages (per cluster, node, or service) against a rolling
  baseline (§4.5.1),
- :mod:`repro.monitor.positional` — positional analysis: the data-
  center rack/switch topology (networkx) and localisation of incidents
  to racks (§4.5.2; the cold-aisle-door scenario),
- :mod:`repro.monitor.perarch` — per-architecture analysis: cross-
  check a node's anomalous readings against its architecture peers to
  filter false sensor indications (§4.5.3),
- :mod:`repro.monitor.dashboard` — ASCII dashboards standing in for the
  Grafana front-end.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "frequency": ("BurstDetector", "Burst", "message_rate_series"),
    "positional": ("RackTopology", "RackIncident", "localize_bursts"),
    "perarch": ("ArchPeerComparator", "PeerVerdict"),
    "sensors": ("SensorSweepAnalyzer", "SensorFinding"),
    "correlate": ("EventCorrelator", "CorrelationResult", "CorrelatedPair"),
    "dashboard": (
        "render_rate_panel", "render_top_panel", "render_overview", "render_confusion",
        "render_metrics_panel",
    ),
})
