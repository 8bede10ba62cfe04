"""Observability: metrics registry and trace spans.

The paper's deliverable is a monitored pipeline — Grafana panels over
OpenSearch (§4.2) — and the ROADMAP's "as fast as the hardware allows"
claim needs live counters and latency histograms, not after-the-fact
reports.  This package is the telemetry layer the rest of the repo
writes into:

- :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families with labels in a thread-safe
  :class:`MetricsRegistry`; Prometheus text and JSON snapshot
  exposition; :class:`NullRegistry` to zero out instrumentation cost,
- :mod:`repro.obs.trace` — :class:`Span` / :class:`Tracer` with
  parent links, exported and adopted by value across process
  boundaries,
- :mod:`repro.obs.wellknown` — the metric catalogue: every family the
  repo emits is one statement there, and the accessors, ``declare_all``,
  the dashboard sections and the ``docs/API.md`` reference derive from it,
- :mod:`repro.obs.propagation` — cross-hop trace contexts: seedable
  head sampling at listener accept, hop spans chained through broker /
  forwarder / store / WAL, surviving SIGKILL+resume,
- :mod:`repro.obs.slo` — declarative SLO targets (latency quantiles,
  loss ratios) evaluated from the registry with error-budget gauges,
- :mod:`repro.obs.httpd` — the stdlib ``/metrics`` + ``/health`` +
  ``/trace/<id>`` HTTP thread behind ``--metrics-port``.

Instrumented code resolves the process-wide default registry/tracer at
write time, so swapping them (:func:`use_registry`,
:func:`set_default_tracer`) redirects all telemetry without re-wiring.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "httpd": ("OpsServer",),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
        "default_latency_buckets", "default_registry", "histogram_quantile", "load_snapshot",
        "parse_prometheus", "set_default_registry", "use_registry",
        "write_snapshot",
    ),
    "propagation": (
        "TraceContext", "TraceSampler", "carried", "carrying", "derive_trace_id", "record_hop",
        "render_waterfall", "trace_is_complete",
    ),
    "slo": (
        "SloStatus", "SloTarget", "SloTracker", "default_slos", "load_slo_file", "quantile_slo",
        "ratio_slo",
    ),
    "trace": ("Span", "Tracer", "default_tracer", "set_default_tracer"),
})
