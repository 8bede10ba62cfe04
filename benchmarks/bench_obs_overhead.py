"""OBS — instrumentation overhead on the classify_batch hot path.

The observability layer (repro.obs) rides on every batch: per-stage
StageTimer mirroring into histograms, batch/message counters, and one
end-to-end latency observation.  The design budget is <3% throughput
cost versus instrumentation compiled down to nothing, which this bench
checks by timing the same pipeline over the same batch against a
:class:`~repro.obs.NullRegistry` (no-op metrics) and a live
:class:`~repro.obs.MetricsRegistry`.

Rounds are interleaved null/live and run with the cyclic GC paused, so
collection pauses and slow drift land on both lanes.  The pass/fail
statistic is the smaller of two uncontended-overhead estimators (see
:func:`_overhead_pct`): on a multi-tenant box either one alone can be
inflated by one-sided contention, while a genuine telemetry
regression inflates both.

A second lane runs the whole ingest spine — listener parse → broker
publish → consumer poll → forwarder flush → store bulk-index — with
cross-hop trace sampling (1/64) on the live side, bounding *total*
telemetry cost on the path the latency histograms actually cover.

Round sizes are tuned so a single round is short (a contention burst
can only shadow a few rounds, not a lane) while the round count keeps
the estimators well-sampled, and a pass that still reads over budget
is re-measured up to ``REPRO_BENCH_OBS_ATTEMPTS`` times (default 3) —
bursts are independent across passes, a regression persists.
Environment knobs: ``REPRO_BENCH_OBS_N`` / ``REPRO_BENCH_OBS_ROUNDS``
(pipeline lane, default 6000 messages × 12 pairs),
``REPRO_BENCH_OBS_BROKER_N`` / ``REPRO_BENCH_OBS_BROKER_ROUNDS``
(broker lane, default 4000 × 15).  Both lanes' rows land in
``BENCH_obs_overhead.json``.

The counted form of the 3% budget is a tier-1 floor:
``tests/test_perf_smoke.py::TestFlushToll`` bounds the share of a
one-line publish → poll → sink → journal → commit round's ``src/repro``
bytecodes that run in telemetry frames (``repro/obs/``,
``repro/runtime/timing.py``), every metric still exact at every read.

The well-known accessor floor (``TestWellknownAccessorFloor``) is the
wall-clock ratio tier-1 once held: a catalogue accessor call against a
direct ``registry.counter`` get-or-create (≤ 1.5×).  Tier-1 now counts
what it timed (one ``_get_or_create`` and no label bind a call); here
the ratio is a ledger row in ``BENCH_wellknown_accessor_floor.json``.
"""

from __future__ import annotations

import gc
import os
import time

from conftest import BENCH_SEED, emit, write_artifact

from repro.core.pipeline import ClassificationPipeline
from repro.datagen.generator import CorpusGenerator
from repro.datagen.sender import wire_lines
from repro.datagen.workload import standard_simulation_events
from repro.experiments.common import format_table
from repro.ingest import LogBroker, SyslogListener
from repro.ml import ComplementNB
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    TraceSampler,
    Tracer,
    default_tracer,
    set_default_tracer,
    use_registry,
    wellknown,
)
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder, settle
from repro.stream.opensearch import LogStore

N_MESSAGES = int(os.environ.get("REPRO_BENCH_OBS_N", "6000"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "12"))
BROKER_N = int(os.environ.get("REPRO_BENCH_OBS_BROKER_N", "4000"))
BROKER_ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_BROKER_ROUNDS", "15"))
OVERHEAD_BUDGET_PCT = 3.0
TRACE_SAMPLE = 1.0 / 64.0
#: a measurement pass that reads over budget is repeated up to this
#: many times before the gate fails: contention bursts are transient
#: and independent across passes, a real telemetry regression is not
MAX_ATTEMPTS = int(os.environ.get("REPRO_BENCH_OBS_ATTEMPTS", "3"))
#: BENCH_obs_overhead.json: one row per measured path
_ARTIFACT: dict[str, dict] = {}


def _overhead_pct(null_times: list[float], live_times: list[float]) -> float:
    """Uncontended-overhead estimate from interleaved rounds, percent.

    Two estimators, each robust to a different contention shape: the
    min-of-rounds delta (contention only ever adds time, so per-lane
    minima converge on the uncontended floor) and the median of
    adjacent-pair deltas (pairs cancel slow drift, the median discards
    burst-hit pairs).  Either alone can read high when contention lands
    on one lane only; a real telemetry regression raises both, so the
    smaller is compared against the budget.
    """
    min_based = (min(live_times) - min(null_times)) / min(null_times)
    pairs = sorted(
        (live - null) / null for null, live in zip(null_times, live_times)
    )
    return min(min_based, pairs[len(pairs) // 2]) * 100.0


def _record(path: str, n: int, rounds: int, null_s: float, live_s: float,
            overhead_pct: float, **extra) -> None:
    """Add one path's row to ``BENCH_obs_overhead.json`` (rewritten whole)."""
    _ARTIFACT[path] = {
        "messages": n, "rounds": rounds,
        "null_ms_per_round": null_s * 1e3, "live_ms_per_round": live_s * 1e3,
        "null_msg_per_s": n / null_s, "live_msg_per_s": n / live_s,
        "overhead_pct": overhead_pct, "budget_pct": OVERHEAD_BUDGET_PCT, **extra,
    }
    write_artifact("obs_overhead", _ARTIFACT)


def _time_round(pipe: ClassificationPipeline, batch: tuple[str, ...]) -> float:
    # cyclic-GC pauses are scheduling noise: at ~20k allocations per
    # round a collection landing in one lane but not the other swamps
    # a 3% budget, so rounds run with the collector paused
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        pipe.classify_batch(batch)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def test_obs_overhead(benchmark):
    corpus = CorpusGenerator(scale=0.02, seed=BENCH_SEED).generate()
    pipe = ClassificationPipeline(classifier=ComplementNB())
    pipe.fit(corpus.texts, corpus.labels)
    texts = (corpus.texts * (N_MESSAGES // len(corpus.texts) + 1))[:N_MESSAGES]
    batch = tuple(texts)

    # warm both paths (imports, registry family creation, caches)
    with use_registry(NullRegistry()):
        pipe.classify_batch(batch)
    with use_registry(MetricsRegistry()):
        pipe.classify_batch(batch)

    live_registry = MetricsRegistry()
    overhead_pct = float("inf")
    for _ in range(MAX_ATTEMPTS):
        null_times: list[float] = []
        live_times: list[float] = []
        for _ in range(N_ROUNDS):
            with use_registry(NullRegistry()):
                null_times.append(_time_round(pipe, batch))
            with use_registry(live_registry):
                live_times.append(_time_round(pipe, batch))
        overhead_pct = min(overhead_pct, _overhead_pct(null_times, live_times))
        if overhead_pct < OVERHEAD_BUDGET_PCT:
            break

    null_s, live_s = min(null_times), min(live_times)
    null_rate, live_rate = len(batch) / null_s, len(batch) / live_s

    benchmark.pedantic(
        lambda: _time_round(pipe, batch), rounds=1, iterations=1
    )
    benchmark.extra_info["n_messages"] = len(batch)
    benchmark.extra_info["null_msg_per_s"] = round(null_rate)
    benchmark.extra_info["live_msg_per_s"] = round(live_rate)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 3)

    rows = [
        ["null registry (no-op)", f"{null_s * 1e3:.1f}", f"{null_rate:,.0f}", "-"],
        ["live registry", f"{live_s * 1e3:.1f}", f"{live_rate:,.0f}",
         f"{overhead_pct:+.2f}%"],
    ]
    emit(
        f"Observability overhead — {len(batch):,} messages × "
        f"{N_ROUNDS} rounds (min)",
        format_table(["registry", "ms/round", "msg/s", "overhead"], rows)
        + f"\nbudget: <{OVERHEAD_BUDGET_PCT:.0f}%  "
        + ("PASS" if overhead_pct < OVERHEAD_BUDGET_PCT else "FAIL"),
    )

    _record("classify_batch", len(batch), N_ROUNDS, null_s, live_s, overhead_pct)

    # sanity: the live registry actually recorded the rounds
    messages = live_registry.get("repro_pipeline_messages_total")
    assert messages is not None and messages.value() > 0
    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"instrumentation overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
    )


def _broker_lines() -> list[bytes]:
    events = standard_simulation_events(
        duration_s=120, background_rate=60, seed=BENCH_SEED, incident=True
    )
    out = wire_lines([e.message for e in events])
    while len(out) < BROKER_N:
        out = out + out
    return out[:BROKER_N]


def _broker_round(lines: list[bytes], *, registry, trace_sample: float) -> float:
    """One fully-wired ingest-spine pass; returns elapsed seconds.

    Each round gets its own broker/store/forwarder and a fresh default
    tracer, so hop spans never accumulate across rounds and both lanes
    pay identical allocation costs.
    """
    prev_tracer = default_tracer()
    set_default_tracer(Tracer())
    try:
        with use_registry(registry):
            sampler = (
                TraceSampler(trace_sample, seed=BENCH_SEED)
                if trace_sample > 0.0 else None
            )
            broker = LogBroker()
            store = LogStore()
            listener = SyslogListener(
                broker, udp_port=None, tcp_port=None, trace_sampler=sampler,
            )
            fwd = FluentdForwarder(
                engine=EventEngine(), sink=store.bulk_index,
                batch_size=1000, buffer_limit=len(lines) + 1,
                broker=broker, consumer_group="bench", clock=time.perf_counter,
            )
            gc.collect()  # see _time_round: rounds run GC-paused
            gc.disable()
            try:
                t0 = time.perf_counter()
                for line in lines:
                    listener._handle_line(line, udp=True)
                settle([fwd])
                elapsed = time.perf_counter() - t0
            finally:
                gc.enable()
            assert listener.stats.accepted == len(lines)
            assert len(store) == len(lines)
            return elapsed
    finally:
        set_default_tracer(prev_tracer)


def test_obs_broker_path_overhead(benchmark):
    lines = _broker_lines()

    # warm both paths (imports, family creation, parser caches)
    _broker_round(lines, registry=NullRegistry(), trace_sample=0.0)
    _broker_round(lines, registry=MetricsRegistry(), trace_sample=TRACE_SAMPLE)

    live_registry = MetricsRegistry()
    overhead_pct = float("inf")
    for _ in range(MAX_ATTEMPTS):
        null_times: list[float] = []
        live_times: list[float] = []
        for _ in range(BROKER_ROUNDS):
            null_times.append(
                _broker_round(lines, registry=NullRegistry(), trace_sample=0.0)
            )
            live_times.append(
                _broker_round(
                    lines, registry=live_registry, trace_sample=TRACE_SAMPLE
                )
            )
        overhead_pct = min(overhead_pct, _overhead_pct(null_times, live_times))
        if overhead_pct < OVERHEAD_BUDGET_PCT:
            break

    null_s, live_s = min(null_times), min(live_times)
    null_rate, live_rate = len(lines) / null_s, len(lines) / live_s

    benchmark.pedantic(
        lambda: _broker_round(
            lines, registry=MetricsRegistry(), trace_sample=TRACE_SAMPLE
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["n_messages"] = len(lines)
    benchmark.extra_info["null_msg_per_s"] = round(null_rate)
    benchmark.extra_info["live_msg_per_s"] = round(live_rate)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 3)
    benchmark.extra_info["trace_sample"] = TRACE_SAMPLE

    rows = [
        ["null registry, tracing off", f"{null_s * 1e3:.1f}",
         f"{null_rate:,.0f}", "-"],
        [f"live registry + 1/{int(1 / TRACE_SAMPLE)} tracing",
         f"{live_s * 1e3:.1f}", f"{live_rate:,.0f}", f"{overhead_pct:+.2f}%"],
    ]
    emit(
        f"Broker-path telemetry overhead — {len(lines):,} messages × "
        f"{BROKER_ROUNDS} rounds (min)",
        format_table(["lane", "ms/round", "msg/s", "overhead"], rows)
        + f"\nbudget: <{OVERHEAD_BUDGET_PCT:.0f}%  "
        + ("PASS" if overhead_pct < OVERHEAD_BUDGET_PCT else "FAIL"),
    )

    _record(
        "broker_path", len(lines), BROKER_ROUNDS, null_s, live_s, overhead_pct,
        trace_sample=TRACE_SAMPLE,
    )

    # sanity: the live lane really published, sampled, and timed e2e
    published = live_registry.get("repro_broker_published_total")
    assert published is not None and published.value() > 0
    snap = live_registry.snapshot()
    e2e = sum(
        int(sample["count"])
        for fam in snap["metrics"]
        if fam["name"] == "repro_e2e_latency_seconds"
        for sample in fam["samples"]
    )
    assert e2e > 0, "trace sampling produced no e2e latency observations"
    assert overhead_pct < OVERHEAD_BUDGET_PCT, (
        f"broker-path telemetry overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget"
    )


def _best_ratio(numerator, denominator, rounds: int = 9) -> float:
    """``numerator()`` over ``denominator()`` (seconds each): alternating
    rounds, best round of each side."""
    passes = [(numerator(), denominator()) for _ in range(rounds)]
    return min(p[0] for p in passes) / min(p[1] for p in passes)


class TestWellknownAccessorFloor:
    """A catalogue accessor is a thin get-or-create: hot paths call a
    dozen of them per classified batch.  The ratio is written to
    ``BENCH_wellknown_accessor_floor.json`` whether or not its bound held."""

    def test_accessor_costs_at_most_half_more_than_direct_get_or_create(self):
        registry = MetricsRegistry()
        family = next(f for f in wellknown.CATALOGUE if f.accessor is wellknown.broker_polled)
        name, help_text, labels = family.name, family.help, family.labels

        def accessor_round() -> float:
            accessor = wellknown.broker_polled
            t0 = time.perf_counter()
            for _ in range(2_000):
                accessor(registry)
            return time.perf_counter() - t0

        def direct_round() -> float:
            counter = registry.counter
            t0 = time.perf_counter()
            for _ in range(2_000):
                counter(name, help_text, labels)
            return time.perf_counter() - t0

        assert wellknown.broker_polled(registry) is registry.counter(name, help_text, labels)
        ratio = _best_ratio(accessor_round, direct_round, rounds=25)
        write_artifact("wellknown_accessor_floor", {"ratio": ratio, "bound": 1.5})
        assert ratio <= 1.5, f"an accessor costs {ratio:.2f}x a direct get-or-create"
