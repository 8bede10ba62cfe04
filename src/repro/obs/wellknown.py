"""The repo's metric catalogue: every well-known family, stated once.

Each family is one module-level statement::

    broker_lag = _gauge("broker", "repro_broker_lag", "Records published but …", ("group",))

The assignment target is the accessor instrumented modules call
(``wellknown.broker_lag(registry).view(group, "lag_seen", group=name)``,
``wellknown.faults_injected(registry).inc(site=s)``); the arguments are
the dashboard section, the metric name, the help text and the label
names.  Every other listing of the families is derived from these
statements: ``__all__``, :func:`declare_all`, the accessor docstrings,
the section grouping of ``render_metrics_panel`` and the "Metric
reference" table in ``docs/API.md`` (:func:`render_reference`) — so
names, help strings and label sets cannot drift between the writer,
the exposition and the documentation.

An accessor is get-or-create against the given registry (default: the
process-wide one) through the registry's public ``counter`` / ``gauge``
/ ``histogram`` methods, so a :class:`~repro.obs.metrics.NullRegistry`
still hands back its shared no-op metric.  :func:`declare_all`
registers the full schema at once so a snapshot carries zero-valued
samples for subsystems that have not run yet — a scrape of a freshly
started process already shows every panel.

To add a family, add one statement where its samples belong in the
exposition (statement order is registration order), then replace the
block between the ``metric-reference`` markers in ``docs/API.md`` with
the output of::

    PYTHONPATH=src python -c "from repro.obs import wellknown; print(wellknown.render_reference())"

``tests/test_wellknown.py`` fails while the committed block differs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)


class Family(NamedTuple):
    """One catalogue row: everything the repo states about a metric family."""

    kind: str  #: ``counter`` | ``gauge`` | ``histogram`` — the registry method that creates it
    section: str  #: the ``render_metrics_panel`` section it renders under, one of SECTIONS
    name: str
    help: str
    labels: tuple[str, ...]
    accessor: Callable[..., Counter | Gauge | Histogram]  #: ``accessor(registry=None)``


#: dashboard panel sections, in display order
SECTIONS = ("pipeline", "stream", "ingest", "broker", "store", "durability", "control",
            "faults", "e2e + slo")

#: every declared family, in registration (= exposition) order
CATALOGUE: list[Family] = []


def _family(kind: str, section: str, name: str, help: str, labels: tuple[str, ...] = ()):
    """Append one family to the catalogue; returns its accessor."""
    if section not in SECTIONS:
        raise ValueError(f"{name}: unknown panel section {section!r}")

    def accessor(registry: MetricsRegistry | None = None):
        if registry is None:
            registry = default_registry()
        return getattr(registry, kind)(name, help, labels)

    labelled = f", labelled by {', '.join(labels)}" if labels else ""
    accessor.__doc__ = f"{kind.capitalize()} ``{name}``{labelled}: {help}."
    CATALOGUE.append(Family(kind, section, name, help, labels, accessor))
    return accessor


_counter: Callable[..., Callable[..., Counter]] = partial(_family, "counter")
_gauge: Callable[..., Callable[..., Gauge]] = partial(_family, "gauge")
_histogram: Callable[..., Callable[..., Histogram]] = partial(_family, "histogram")

# -- classification pipeline -------------------------------------------
stage_seconds = _histogram(
    "pipeline", "repro_pipeline_stage_seconds",
    "Wall-clock seconds per pipeline stage per batch", ("stage",))
stage_items = _counter(
    "pipeline", "repro_pipeline_stage_items_total",
    "Messages processed per pipeline stage", ("stage",))
pipeline_batches = _counter("pipeline", "repro_pipeline_batches_total", "Batches classified")
pipeline_messages = _counter("pipeline", "repro_pipeline_messages_total", "Messages classified")
pipeline_filtered = _counter(
    "pipeline", "repro_pipeline_filtered_total",
    "Messages short-circuited by the blacklist pre-filter")
pipeline_batch_seconds = _histogram(
    "pipeline", "repro_pipeline_batch_seconds", "End-to-end classify_batch wall-clock seconds")

# -- template-dedup cache ----------------------------------------------
template_cache_hits = _counter(
    "pipeline", "repro_template_cache_hits_total",
    "Classify lookups served from the template-dedup cache per worker process", ("worker",))
template_cache_misses = _counter(
    "pipeline", "repro_template_cache_misses_total",
    "Template-cache lookups that fell through to the model stage per worker process", ("worker",))
template_cache_evictions = _counter(
    "pipeline", "repro_template_cache_evictions_total",
    "LRU entries evicted from the template-dedup cache per worker process", ("worker",))
template_cache_invalidations = _counter(
    "pipeline", "repro_template_cache_invalidations_total",
    "Template-cache clears caused by a pipeline refit bumping the generation stamp, "
    "per worker process", ("worker",))
template_cache_size = _gauge(
    "pipeline", "repro_template_cache_size",
    "Entries currently held by the template-dedup cache per worker process", ("worker",))

# -- stream layer (Tivan) ----------------------------------------------
fluentd_buffer_depth = _gauge(
    "stream", "repro_stream_fluentd_buffer_depth", "Messages buffered in the Fluentd forwarder")
fluentd_flush_size = _gauge(
    "stream", "repro_stream_fluentd_flush_size", "Messages written by the most recent flush")
fluentd_flushed_messages = _counter(
    "stream", "repro_stream_fluentd_flushed_total",
    "Messages flushed to the store by the forwarder")
relay_received = _counter(
    "stream", "repro_stream_relay_received_total", "Messages received by the primary syslog relay")
relay_dropped = _counter(
    "stream", "repro_stream_relay_dropped_total",
    "Messages dropped by the relay under downstream backpressure")
classifier_backlog = _gauge(
    "stream", "repro_stream_classifier_backlog",
    "Indexed documents awaiting classification (engine-clock sampled)")
degraded_mode = _gauge(
    "stream", "repro_stream_degraded_mode",
    "1 while the classifier stage is degraded to the cheap path")
degraded_transitions = _counter(
    "stream", "repro_stream_degraded_transitions_total",
    "Degraded-mode transitions (direction=enter|exit)", ("direction",))
degraded_messages = _counter(
    "stream", "repro_stream_degraded_messages_total",
    "Messages classified by the cheap blacklist/bucketing path while degraded")

# -- fault injection & resilience --------------------------------------
faults_injected = _counter(
    "faults", "repro_faults_injected_total", "Faults fired by the injector per site", ("site",))
faults_dead_letters = _counter(
    "faults", "repro_faults_dead_letters_total",
    "Messages captured into a dead-letter queue per site", ("site",))
faults_quarantined = _counter(
    "faults", "repro_faults_quarantined_total",
    "Messages quarantined by classify_batch instead of aborting the batch")
faults_dlq_evicted = _counter(
    "faults", "repro_faults_dlq_evicted_total",
    "Oldest dead letters evicted by a bounded dead-letter queue")

# -- durability (WAL + checkpoints) ------------------------------------
wal_appends = _counter(
    "durability", "repro_wal_appends_total",
    "Records appended to the write-ahead log per record kind", ("kind",))
wal_bytes = _counter("durability", "repro_wal_bytes_total", "Bytes appended to the write-ahead log")
wal_fsyncs = _counter(
    "durability", "repro_wal_fsyncs_total", "fsync calls issued by the write-ahead log")
wal_rotations = _counter(
    "durability", "repro_wal_rotations_total", "WAL segments rotated after reaching the size limit")
wal_last_seq = _gauge(
    "durability", "repro_wal_last_seq", "Highest sequence number appended to the WAL")
wal_truncated_bytes = _counter(
    "durability", "repro_wal_truncated_bytes_total",
    "Torn-tail bytes discarded during WAL recovery")
wal_replayed_records = _counter(
    "durability", "repro_wal_replayed_records_total",
    "WAL records replayed past the newest checkpoint on recovery")
checkpoint_writes = _counter(
    "durability", "repro_checkpoint_writes_total", "Checkpoints written (atomic temp-then-rename)")
checkpoint_last_bytes = _gauge(
    "durability", "repro_checkpoint_last_bytes",
    "Size in bytes of the most recently written checkpoint")
checkpoint_last_wal_seq = _gauge(
    "durability", "repro_checkpoint_last_wal_seq",
    "Last WAL sequence number applied by the most recent checkpoint")

# -- replicated store --------------------------------------------------
store_node_up = _gauge(
    "store", "repro_store_node_up",
    "1 while the replicated-store coordinator can reach the node", ("node",))
store_quorum_write_seconds = _histogram(
    "store", "repro_store_quorum_write_seconds",
    "Coordinator wall-clock seconds per quorum bulk write")
store_quorum_read_seconds = _histogram(
    "store", "repro_store_quorum_read_seconds", "Coordinator wall-clock seconds per quorum read")
store_quorum_failures = _counter(
    "store", "repro_store_quorum_failures_total",
    "Operations refused because too few owner nodes were reachable", ("op",))
store_hints_queued = _counter(
    "store", "repro_store_hints_queued_total",
    "Hinted-handoff entries queued for unreachable owner nodes")
store_hints_replayed = _counter(
    "store", "repro_store_hints_replayed_total",
    "Hinted-handoff entries replayed to rejoined owner nodes")
store_hints_dropped = _counter(
    "store", "repro_store_hints_dropped_total",
    "Oldest hints evicted by the bounded per-node hint buffer")
store_read_repairs = _counter(
    "store", "repro_store_read_repairs_total",
    "Stale or missing replica copies repaired during quorum reads")
store_repair_docs = _counter(
    "store", "repro_store_repair_docs_total",
    "Document copies pushed between nodes by anti-entropy sync")
store_breaker_transitions = _counter(
    "store", "repro_store_breaker_transitions_total",
    "Per-node circuit breaker transitions by entered state", ("state",))
store_node_timeouts = _counter(
    "store", "repro_store_node_timeouts_total", "Simulated store-node timeouts per node", ("node",))

# -- ingest listener & log broker --------------------------------------
ingest_received = _counter(
    "ingest", "repro_ingest_received_total",
    "Wire lines received by the syslog listener per transport", ("proto",))
ingest_accepted = _counter(
    "ingest", "repro_ingest_accepted_total",
    "Wire lines parsed into messages and accepted by the listener")
ingest_shed = _counter(
    "ingest", "repro_ingest_shed_total",
    "Wire lines shed by the listener's fair-share admission quota, all tenants")
ingest_accept_dropped = _counter(
    "ingest", "repro_ingest_accept_dropped_total",
    "Wire lines dropped at accept time by the ingest.accept_drop fault site "
    "(simulated NIC queue overflow)")
ingest_parse_errors = _counter(
    "ingest", "repro_ingest_parse_errors_total",
    "Wire lines that matched neither RFC 3164 nor RFC 5424 and were quarantined to "
    "the dead-letter queue")
ingest_oversize = _counter(
    "ingest", "repro_ingest_oversize_total",
    "Wire lines over the listener's size cap, quarantined to the dead-letter queue")
ingest_publish_refused = _counter(
    "ingest", "repro_ingest_publish_refused_total",
    "Accepted messages refused by the broker (stalled partition), quarantined to "
    "the dead-letter queue")
ingest_tenant_received = _counter(
    "ingest", "repro_ingest_tenant_received_total",
    "Parsed wire lines per tenant (host/app admission key)", ("tenant",))
ingest_tenant_accepted = _counter(
    "ingest", "repro_ingest_tenant_accepted_total",
    "Wire lines admitted through the per-tenant fair-share quota", ("tenant",))
ingest_tenant_shed = _counter(
    "ingest", "repro_ingest_tenant_shed_total",
    "Wire lines shed by the per-tenant admission quota", ("tenant", "reason"))
ingest_tenants_active = _gauge(
    "ingest", "repro_ingest_tenants_active",
    "Tenants currently tracked by the deficit-round-robin quota")
broker_published = _counter(
    "broker", "repro_broker_published_total", "Records appended to log-broker partitions")
broker_publish_refused = _counter(
    "broker", "repro_broker_publish_refused_total",
    "Publishes refused because the target partition was stalled")
broker_polled = _counter(
    "broker", "repro_broker_polled_total",
    "Records delivered to consumer-group members by poll", ("group",))
broker_commits = _counter(
    "broker", "repro_broker_commits_total",
    "Consumer-group offset commits applied by the broker", ("group",))
broker_commits_lost = _counter(
    "broker", "repro_broker_commits_lost_total",
    "Consumer-group offset commits dropped in flight by the broker.commit_lost fault site")
broker_lag = _gauge(
    "broker", "repro_broker_lag",
    "Records published but not yet committed by the consumer group", ("group",))
broker_partitions = _gauge(
    "broker", "repro_broker_partitions", "Partitions the log broker currently holds")
broker_partition_stalls = _counter(
    "broker", "repro_broker_partition_stalls_total",
    "Partition stall events fired by the broker.partition_stall site")

# -- end-to-end telemetry (tracing, latency, SLOs) ---------------------
trace_sampled = _counter(
    "e2e + slo", "repro_trace_sampled_total",
    "Messages head-sampled into a cross-hop trace at accept time")
e2e_latency_seconds = _histogram(
    "e2e + slo", "repro_e2e_latency_seconds",
    "Listener-accept to store-indexed seconds for sampled messages")
broker_queue_age_seconds = _histogram(
    "broker", "repro_broker_queue_age_seconds",
    "Publish-to-poll dwell seconds of sampled records in broker partitions")
broker_lag_age_seconds = _gauge(
    "broker", "repro_broker_lag_age_seconds",
    "Age in seconds of the oldest record published but not yet committed by the "
    "consumer group", ("group",))
poll_to_flush_seconds = _histogram(
    "stream", "repro_stream_poll_to_flush_seconds",
    "Seconds a sampled message dwelt in the forwarder buffer, poll/flush: from the "
    "poll that buffered it to a successful flush")
wal_fsync_seconds = _histogram(
    "durability", "repro_wal_fsync_seconds", "Wall-clock seconds per write-ahead-log fsync call")
slo_value = _gauge(
    "e2e + slo", "repro_slo_value", "Current observed value of the declared SLO", ("slo",))
slo_target = _gauge(
    "e2e + slo", "repro_slo_target",
    "Declared threshold the SLO's observed value must stay under", ("slo",))
slo_compliant = _gauge(
    "e2e + slo", "repro_slo_compliant",
    "1 while the SLO's observed value meets its target, else 0", ("slo",))
slo_budget_remaining = _gauge(
    "e2e + slo", "repro_slo_error_budget_remaining",
    "Fraction of the SLO's error budget still unburned (1 - value/target, clamped "
    "to [-1, 1])", ("slo",))

# -- control plane (closed-loop autoscaling / brownout) ----------------
control_ticks = _counter("control", "repro_control_ticks_total", "Control-loop ticks executed")
control_actuations = _counter(
    "control", "repro_control_actuations_total",
    "Lever moves applied by the controller", ("lever", "direction"))
control_setpoint = _gauge(
    "control", "repro_control_setpoint",
    "Current value the controller holds each lever at", ("lever",))
control_flips = _counter(
    "control", "repro_control_flips_total",
    "Actuations whose direction reversed the lever's previous move", ("lever",))
control_brownout_level = _gauge(
    "control", "repro_control_brownout_level",
    "Current brownout ladder level (0 normal, 1 shrink batches, 2 cheap classify, 3 "
    "shed at accept)")
control_shed = _counter(
    "control", "repro_control_shed_total",
    "Messages dropped at accept by the brownout ladder", ("reason",))
control_feedforward_rate = _gauge(
    "control", "repro_control_feedforward_rate",
    "Offered-load rate the feedforward term predicts at its horizon (msgs/s; tracks "
    "the current rate while the window warms up)")
control_feedforward_moves = _counter(
    "control", "repro_control_feedforward_moves_total",
    "Capacity up-moves taken on the feedforward surge prediction before the "
    "reactive signal crossed its high watermark", ("lever",))

# -- store circuit breakers --------------------------------------------
store_breaker_state = _gauge(
    "store", "repro_store_breaker_state",
    "Circuit-breaker state per store node (0 closed, 1 half-open, 2 open)", ("node",))


def _named_accessors(namespace: dict) -> list[str]:
    """Name each accessor after the module-level name it is bound to."""
    bound = {id(obj): name for name, obj in namespace.items() if not name.startswith("_")}
    for family in CATALOGUE:
        name = bound[id(family.accessor)]  # KeyError: declared but not bound to a public name
        family.accessor.__name__ = family.accessor.__qualname__ = name
    return [family.accessor.__name__ for family in CATALOGUE]


__all__ = [
    *_named_accessors(globals()),
    "CATALOGUE", "Family", "SECTIONS", "declare_all", "render_reference",
]


def declare_all(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Register every well-known family; returns the registry.

    Called before writing a snapshot so the exposition always carries
    the full schema — unlabeled gauges/counters show a zero sample even
    when their subsystem never ran in this process.
    """
    registry = registry if registry is not None else default_registry()
    for family in CATALOGUE:
        family.accessor(registry)
    return registry


def render_reference() -> str:
    """The generated ``docs/API.md`` block: one table of families per panel section."""
    lines = ["<!-- metric-reference:begin (generated by wellknown.render_reference) -->"]
    for section in SECTIONS:
        lines += ["", f"**{section}**", ""]
        lines += ["| family | kind | labels | help |", "|---|---|---|---|"]
        for family in CATALOGUE:
            if family.section == section:
                labels = ", ".join(f"`{label}`" for label in family.labels) or "—"
                help = family.help.replace("|", "\\|")  # a bare pipe would end the table cell
                lines.append(f"| `{family.name}` | {family.kind} | {labels} | {help} |")
    return "\n".join([*lines, "", "<!-- metric-reference:end -->"])
