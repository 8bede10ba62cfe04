"""Metric names, units and directions, and how each is computed from a pass.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's vocabulary; ``BENCHMARK.json``
at the repository root repeats them for the driver and ``test_smoke.py`` holds
the two in step.  A pass is the dictionary ``run.run_pass`` returns.
"""

from __future__ import annotations

import statistics

import numpy as np

import dashboard
from spine import NOMINAL_PROBE_NS

#: name, unit, better, floor of the regression bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.15),
    ("sat_msgs_per_s", "lines/s", "higher", 0.08),
    ("cpu_us_per_msg", "us", "lower", 0.06),
    ("paced_cpu_us_per_msg", "us", "lower", 0.05),
    ("e2e_p50_ms", "ms", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: end-to-end by nature, but too unsteady on this sandbox to carry a bound (see
#: README, "Demoted"); reported with the per-layer metrics, from the untraced twin
DEMOTED = (
    ("e2e_p99_ms", "ms", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
)

#: name, unit, better
PER_LAYER = (
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.sent_lines", "count", "higher"),
    ("ingest.listener.lines_in", "count", "higher"),
    ("ingest.listener.accepted", "count", "higher"),
    ("ingest.listener.rejected", "count", "lower"),
    ("ingest.listener.oversize", "count", "lower"),
    ("ingest.listener.shed", "count", "lower"),
    ("ingest.listener.dlq_entries", "count", "lower"),
    ("ingest.listener.self_us_per_line", "us", "lower"),
    ("stream.rfc.parse_us_per_line", "us", "lower"),
    ("ingest.quota.allow_us_per_line", "us", "lower"),
    ("ingest.quota.tenants_active", "count", "lower"),
    ("ingest.broker.publish_us_per_msg", "us", "lower"),
    ("ingest.broker.poll_us_per_msg", "us", "lower"),
    ("ingest.broker.commit_calls", "count", "lower"),
    ("ingest.broker.lag_max", "count", "lower"),
    ("ingest.broker.queue_age_p50_ms", "ms", "lower"),
    ("ingest.broker.queue_age_p99_ms", "ms", "lower"),
    ("stream.fluentd.flush_calls", "count", "lower"),
    ("stream.fluentd.flush_batch_mean", "count", "higher"),
    ("stream.fluentd.flush_self_us_per_msg", "us", "lower"),
    ("stream.fluentd.poll_self_us_per_msg", "us", "lower"),
    ("stream.fluentd.poll_to_flush_p50_ms", "ms", "lower"),
    ("stream.fluentd.failed_flushes", "count", "lower"),
    ("stream.fluentd.buffer_max", "count", "lower"),
    ("core.pipeline.classify_us_per_msg", "us", "lower"),
    ("core.pipeline.classify_calls", "count", "lower"),
    ("core.pipeline.quarantined", "count", "lower"),
    ("core.template_cache.hits", "count", "higher"),
    ("core.template_cache.misses", "count", "lower"),
    ("core.template_cache.hit_ratio", "ratio", "higher"),
    ("core.template_cache.evictions", "count", "lower"),
    ("replication.store.bulk_index_us_per_msg", "us", "lower"),
    ("replication.store.set_category_us_per_msg", "us", "lower"),
    ("replication.store.quorum_refusals", "count", "lower"),
    ("replication.store.docs_final", "count", "higher"),
    ("replication.store.query_calls", "count", "higher"),
    ("replication.store.query.date_histogram_p50_ms", "ms", "lower"),
    ("replication.store.query.terms_aggregation_p50_ms", "ms", "lower"),
    ("replication.store.query.severity_histogram_p50_ms", "ms", "lower"),
    ("replication.store.query.term_query_p50_ms", "ms", "lower"),
    ("durability.recovery.journal_us_per_msg", "us", "lower"),
    ("durability.wal.appends", "count", "lower"),
    ("durability.wal.bytes_written", "bytes", "lower"),
    ("durability.wal.fsyncs", "count", "lower"),
    ("durability.wal.append_us_per_record", "us", "lower"),
    ("obs.traced_messages", "count", "higher"),
    ("obs.harness_trace_overhead_pct", "%", "lower"),
    ("spine.busy_share_paced", "ratio", "lower"),
    ("spine.unattributed_pct", "%", "lower"),
) + DEMOTED

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
#: a run whose generator ran later than this at p99 measured the generator
MAX_LATE_P99_MS = 10.0
MAX_UNATTRIBUTED_PCT = 5.0


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- the sandbox's own noise ---------------------------------------------------
# The host takes a vCPU away for a third of the time or more, for seconds or
# minutes on end, and the guest's clocks (CPU time included) run on meanwhile:
# the same burst read 85 and 158 us per line ten minutes apart.  The spine
# therefore runs a fixed kernel, the speed probe, every 50 ms of a burst, every
# 200 ms of the paced phase and after every quiescent query.  The mean reading
# over a phase, against the reading of an undisturbed core, says how much slower
# than undisturbed the phase ran, and its times are divided by that.  The unit
# is then a micro- or millisecond on the undisturbed sandbox.  Two numbers are
# not rescaled: set-up (no probe fits inside ``fit``, so the fastest of three
# builds is taken) and the paced CPU per line (idle polling adapts to the speed
# and steadies it by itself).

def speed_factor(speed_ns) -> float:
    """How many times slower than an undisturbed core these readings were taken."""
    return statistics.fmean(speed_ns) / NOMINAL_PROBE_NS


# -- end to end ------------------------------------------------------------------

#: latency percentiles are taken per window of the paced phase and the median
#: window reported: one scheduling stall then moves one window, not the run.
#: At the slowest paced rate a window still has ten samples beyond its p99.
LATENCY_WINDOW_S = 2.0


def e2e_latencies_ms(pass_: dict) -> list[np.ndarray]:
    """Due time -> flush done of every accepted paced line, one array per window."""
    due = pass_["paced"]["send"]["due_ns"]
    flushes = pass_["paced"]["report"]["flushes"]
    ordinals = [np.asarray(o) for _done, o in flushes]
    done = np.repeat([d for d, _o in flushes], [len(o) for o in ordinals])
    due = due[np.concatenate(ordinals)]
    span = due.max() - due.min() + 1
    n = max(1, round(span / (LATENCY_WINDOW_S * 1e9)))  # equal windows of about that length
    window = (due - due.min()) * n // span
    return [(done - due)[window == w] / 1e6 for w in range(n)]


def windowed_pct(windows: list[np.ndarray], q: float) -> float:
    return statistics.median(float(np.percentile(w, q)) for w in windows)


def paced_latency_ms(pass_: dict, q: float) -> float:
    """Windowed percentile of the paced e2e latency, at undisturbed speed."""
    factor = speed_factor(pass_["paced"]["report"]["speed_ns"])
    return windowed_pct(e2e_latencies_ms(pass_), q) / factor


def quiescent_queries(pass_: dict) -> list[tuple[str, float]]:
    """(kind, service ms) of the quiescent rotations, at undisturbed speed."""
    dash = pass_["dashboard"]
    size = len(dashboard.KINDS)
    out = []
    for i in range(0, len(dash["queries"]), size):
        # a rotation is bracketed and interleaved by probe readings
        factor = speed_factor(dash["speed_ns"][i:i + size + 1])
        out += [(kind, (end - start) / 1e6 / factor)
                for kind, _due, start, end in dash["queries"][i:i + size]]
    return out


def query_latencies_ms(pass_: dict) -> list[float]:
    """Due -> result of the dashboard client the workload runs (see README)."""
    paced = pass_["paced"]["report"]
    if paced["queries"]:
        factor = speed_factor(paced["speed_ns"])
        return [(end - due) / 1e6 / factor for _kind, due, _start, end in paced["queries"]]
    return [ms for _kind, ms in quiescent_queries(pass_)]


def burst_rate(burst: dict) -> float:
    """Lines disposed per second of a burst, at undisturbed speed."""
    report = burst["report"]
    seconds = (report["end_ns"] - burst["first_byte_ns"]) / 1e9
    return report["received"] / seconds * speed_factor(report["speed_ns"])


def burst_cpu_us(burst: dict) -> float:
    """Spine CPU per line of a burst, at undisturbed speed."""
    report = burst["report"]
    return report["cpu_ns"] / 1e3 / report["received"] / speed_factor(report["speed_ns"])


def end_to_end(pass_: dict) -> dict:
    paced = pass_["paced"]["report"]
    bursts = pass_["bursts"]
    values = {
        # no probe fits inside ``fit``; a slow spell only ever adds time
        "setup_s": min(pass_["ready"]["setup_seconds"]),
        "sat_msgs_per_s": statistics.median(map(burst_rate, bursts)),
        "cpu_us_per_msg": statistics.median(map(burst_cpu_us, bursts)),
        "paced_cpu_us_per_msg": paced["cpu_ns"] / 1e3 / paced["received"],
        "e2e_p50_ms": paced_latency_ms(pass_, 50),
        "peak_rss_mb": pass_["stopped"]["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}


def demoted(pass_: dict) -> dict:
    queries = query_latencies_ms(pass_)
    values = {
        "e2e_p99_ms": paced_latency_ms(pass_, 99),
        "query_p50_ms": _pct(queries, 50),
        "query_p90_ms": _pct(queries, 90),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _b in DEMOTED}


def sample_counts(pass_: dict) -> dict:
    """How many samples stand behind each number."""
    return {
        "e2e_latency_samples_per_window": [len(w) for w in e2e_latencies_ms(pass_)],
        "query_samples": len(query_latencies_ms(pass_)),
        "paced_lines": pass_["paced"]["report"]["received"],
        "burst_lines": [b["report"]["received"] for b in pass_["bursts"]],
        "burst_speed_factors": [round(speed_factor(b["report"]["speed_ns"]), 3) for b in pass_["bursts"]],
        "setup_builds": len(pass_["ready"]["setup_seconds"]),
    }


# -- per layer -------------------------------------------------------------------

def poll_to_flush_ms(report: dict) -> list[float]:
    """Per message, poll -> flush done; the forwarder's buffer is a FIFO."""
    polls = [list(p) for p in report["trace"]["polls"]]
    out, head = [], 0
    for done, ordinals in report["flushes"]:
        left = len(ordinals)
        while left and head < len(polls):
            take = min(left, polls[head][1])
            out.extend([(done - polls[head][0]) / 1e6] * take)
            polls[head][1] -= take
            left -= take
            if not polls[head][1]:
                head += 1
    return out


def reconcile(report: dict) -> float:
    """Share of a phase's wall time (%) inside no span and no yield to the listener."""
    trace = report["trace"]
    wall = trace["perf1"] - trace["perf0"]
    return 100.0 * abs(wall - trace["top_ns"] - trace["yield_ns"]) / wall


def burst_trace(traced: dict) -> dict:
    """Span self times, per-message sums and line counts over the bursts, at undisturbed speed."""
    out = {"self_ns": {}, "sums": {}, "wal_appends": 0, "lines": 0, "flushed": 0, "wall_ns": 0,
           "yield_ns": 0, "yield_cpu_ns": 0}
    for burst in traced["bursts"]:
        report, trace = burst["report"], burst["report"]["trace"]
        factor = speed_factor(report["speed_ns"])
        for name, ns in trace["self_ns"].items():
            out["self_ns"][name] = out["self_ns"].get(name, 0) + ns / factor
        for name, (calls, ns) in trace["sums"].items():
            have = out["sums"].get(name, (0, 0))
            out["sums"][name] = (have[0] + calls, have[1] + ns / factor)
        out["wal_appends"] += trace["span_calls"].get("durability.wal.append", 0)
        out["lines"] += report["received"]
        out["flushed"] += sum(len(o) for _t, o in report["flushes"])
        out["wall_ns"] += (trace["perf1"] - trace["perf0"]) / factor
        out["yield_ns"] += trace["yield_ns"] / factor
        out["yield_cpu_ns"] += trace["yield_cpu_ns"] / factor
    return out


def per_layer(traced: dict, untraced: dict) -> dict:
    """Layer metrics of the traced pass; ``untraced`` is the same pass with tracing off.

    Costs per message come from the bursts (saturation, at undisturbed speed),
    waits from the paced phase, counts from the whole pass.
    """
    paced = traced["paced"]["report"]
    last = traced["bursts"][-1]["report"]
    counts = last["counts"]  # the program's counters are cumulative
    bt = burst_trace(traced)
    self_ns, flushed = bt["self_ns"], bt["flushed"]
    per_msg = lambda ns, n: ns / 1e3 / max(1, n)
    publish_calls, publish_ns = bt["sums"].get("ingest.broker.publish", (0, 0))
    accept_calls, accept_ns = bt["sums"].get("durability.recovery.accept", (0, 0))
    queries = [(k, (end - start) / 1e6) for k, _due, start, end in paced["queries"]]
    queries += quiescent_queries(traced)
    by_kind = {kind: [ms for k, ms in queries if k == kind] for kind in dashboard.KINDS}
    # records are polled in publish order: the first ones are the paced phase's
    ages_ms = np.asarray(traced["stopped"]["queue_ages"][: paced["counts"]["ingest.listener.accepted"]]) * 1e3
    cpu = lambda p: statistics.median(map(burst_cpu_us, p["bursts"]))
    values = dict(counts)
    values.update({
        "loadgen.late_p99_ms": traced["paced"]["send"]["late_p99_ms"],
        "loadgen.sent_lines": traced["sent_lines"],
        "ingest.listener.self_us_per_line": per_msg(bt["yield_cpu_ns"] - publish_ns, bt["lines"]),
        "stream.rfc.parse_us_per_line": traced["probes"]["parse_us_per_line"],
        "ingest.quota.allow_us_per_line": traced["probes"]["allow_us_per_line"],
        "ingest.broker.publish_us_per_msg": per_msg(publish_ns, publish_calls),
        "ingest.broker.poll_us_per_msg": per_msg(self_ns.get("ingest.broker.poll", 0), flushed),
        "ingest.broker.lag_max": max(b["report"]["lag_max"] for b in [traced["paced"], *traced["bursts"]]),
        "ingest.broker.queue_age_p50_ms": _pct(ages_ms, 50),
        "ingest.broker.queue_age_p99_ms": _pct(ages_ms, 99),
        "stream.fluentd.flush_self_us_per_msg": per_msg(self_ns.get("stream.fluentd.flush", 0), flushed),
        "stream.fluentd.poll_self_us_per_msg": per_msg(
            self_ns.get("stream.fluentd.poll_broker", 0), flushed),
        "stream.fluentd.poll_to_flush_p50_ms": _pct(poll_to_flush_ms(paced), 50),
        "core.pipeline.classify_us_per_msg": per_msg(
            self_ns.get("core.pipeline.classify_batch", 0), flushed),
        "replication.store.bulk_index_us_per_msg": per_msg(
            self_ns.get("replication.store.bulk_index", 0), flushed),
        "replication.store.set_category_us_per_msg": per_msg(
            self_ns.get("replication.store.set_category", 0), flushed),
        "replication.store.query_calls": len(queries),
        "durability.recovery.journal_us_per_msg": per_msg(
            accept_ns + self_ns.get("durability.recovery.flushed", 0), accept_calls),
        "durability.wal.append_us_per_record": per_msg(
            self_ns.get("durability.wal.append", 0), bt["wal_appends"]),
        "obs.harness_trace_overhead_pct": 100.0 * (cpu(traced) / cpu(untraced) - 1.0),
        "spine.busy_share_paced": paced["cpu_ns"] / paced["wall_ns"],
        "spine.unattributed_pct": max(
            reconcile(p["report"]) for p in [traced["paced"], *traced["bursts"]]),
    })
    for kind in ("date_histogram", "terms_aggregation", "severity_histogram", "term_query"):
        values[f"replication.store.query.{kind}_p50_ms"] = _pct(by_kind[kind], 50)
    values.update({name: m["value"] for name, m in demoted(untraced).items()})
    return {name: {"value": values[name], "unit": unit} for name, unit, _b in PER_LAYER}


def layer_shares(traced: dict) -> list[tuple[str, float]]:
    """Where the bursts' wall time went, layer by layer (share of wall)."""
    bt = burst_trace(traced)
    rows = dict(bt["self_ns"])
    rows.update({name: ns for name, (_calls, ns) in bt["sums"].items()})
    rows["ingest.listener (self)"] = bt["yield_cpu_ns"] - rows.get("ingest.broker.publish", 0)
    rows["idle"] = bt["yield_ns"] - bt["yield_cpu_ns"]
    return sorted(((name, ns / bt["wall_ns"]) for name, ns in rows.items()), key=lambda r: -r[1])
