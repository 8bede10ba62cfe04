"""Sharded parallel classification over process workers.

§5's feasibility bar is >1M messages/hour; one Python process tops out
well below the hardware's capacity because the preprocessing chain is
pure-Python and GIL-bound.  :class:`ShardedExecutor` scatters a
:class:`~repro.runtime.batch.MessageBatch` into order-preserving chunks
across a ``ProcessPoolExecutor`` whose workers hold their own copy of
the fitted pipeline (initialized exactly once per worker, not per
chunk), then gathers the per-chunk results back in order.

Small batches are not worth a round-trip through pickle: below
``min_parallel`` messages — or with ``n_workers=1`` — the executor
degrades to the plain serial batch path, so callers can route *every*
batch through one object and let it pick the strategy.

Failure is the common case at scale, so the sharded path assumes
workers die: every chunk carries a deadline (``chunk_timeout_s``), a
dead worker is detected (``BrokenProcessPool``) and the pool respawned,
and the lost chunk is re-dispatched with exponential backoff plus
deterministic jitter.  A chunk that exhausts ``max_chunk_retries``
re-dispatches is routed through the parent pipeline's serial path
instead — degraded throughput, never a lost message.  All of it is
counted (``repro_faults_*`` families) and, with a
:class:`~repro.faults.FaultInjector` attached, reproducible on demand.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from time import perf_counter

from repro.faults.plan import SITE_CHUNK_TIMEOUT, SITE_WORKER_CRASH
from repro.runtime.batch import MessageBatch
from repro.runtime.timing import StageReport

__all__ = ["ShardedExecutor"]

# Per-worker singleton: the fitted pipeline each process classifies
# with.  Set once by the pool initializer; fork start methods inherit
# the parent's object for free, spawn start methods receive it pickled.
_WORKER_PIPELINE = None


def _init_worker(pipeline, model_dir) -> None:
    global _WORKER_PIPELINE
    if pipeline is not None:
        _WORKER_PIPELINE = pipeline
    else:
        from repro.core.serialize import load_pipeline

        _WORKER_PIPELINE = load_pipeline(model_dir)
    # injected faults are decided in the parent (per chunk, so chunk
    # scheduling cannot perturb the fire sequence); a worker-side
    # injector copy would draw from its own stream nondeterministically
    _WORKER_PIPELINE.fault_injector = None


def _classify_chunk(texts: tuple[str, ...], span_ctx: dict | None = None,
                    fault: dict | None = None):
    """Classify one chunk in a worker; returns results plus telemetry.

    The worker times itself, snapshots its pipeline's per-chunk stage
    report, and records a span parented on the context the dispatching
    process sent over — all of it returned by value so the parent can
    stitch the telemetry back together (worker-process registries are
    invisible to the parent).  Dead-letter entries captured while
    classifying are exported the same way, so the parent's queue stays
    the single source of truth.

    ``fault`` is the parent-armed injection payload: ``{"crash": True}``
    SIGKILLs this worker on receipt (a real abrupt death, not an
    exception), ``{"delay_s": x}`` stalls past the parent's chunk
    deadline.
    """
    from repro.obs.trace import Tracer

    assert _WORKER_PIPELINE is not None, "worker used before initialization"
    if fault:
        if fault.get("crash"):
            os.kill(os.getpid(), signal.SIGKILL)
        delay = fault.get("delay_s", 0.0)
        if delay:
            time.sleep(delay)
    tracer = Tracer()
    _WORKER_PIPELINE.reset_timing()
    dlq_mark = len(_WORKER_PIPELINE.dead_letters)
    cache = _WORKER_PIPELINE.template_cache
    cache_mark = cache.counters() if cache is not None else None
    t0 = perf_counter()
    with tracer.span(
        "shard.worker_chunk", parent=span_ctx,
        n_messages=len(texts), worker_pid=os.getpid(),
    ):
        results = _WORKER_PIPELINE.classify_batch(MessageBatch(texts=texts))
    busy_s = perf_counter() - t0
    cache_stats = None
    if cache is not None:
        after = cache.counters()
        cache_stats = {k: after[k] - cache_mark[k] for k in after}
        cache_stats["size"] = len(cache)
    return (
        results,
        _WORKER_PIPELINE.timing_report().as_dict(),
        tracer.export(),
        os.getpid(),
        busy_s,
        _WORKER_PIPELINE.dead_letters.since(dlq_mark),
        cache_stats,
    )


class ShardedExecutor:
    """Chunked multi-process ``classify_batch`` with serial fallback.

    Parameters
    ----------
    pipeline:
        A fitted :class:`~repro.core.pipeline.ClassificationPipeline`.
        With a ``fork`` start method the workers inherit it without
        serialization; otherwise it must pickle (all supported
        estimators do).
    model_dir:
        Alternative to ``pipeline``: a :func:`save_pipeline` directory
        each worker loads on initialization.  Exactly one of
        ``pipeline`` / ``model_dir`` is required.
    n_workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``1``
        disables the pool entirely (pure serial).
    chunk_size:
        Messages per scattered work item.
    min_parallel:
        Batches smaller than this run serially — scatter/gather
        overhead (pickling texts out, results back) dominates below a
        few thousand messages.
    chunk_timeout_s:
        Deadline for one chunk's submit-to-result round trip.  A chunk
        that misses it is treated as lost and re-dispatched; without a
        deadline a worker dying mid-chunk could stall the gather
        forever.  ``None`` disables the deadline (not recommended).
    max_chunk_retries:
        Re-dispatches granted to a chunk after its first failed attempt
        (crash, timeout, or worker-raised error) before it is routed
        through the serial fallback.
    retry_base_s, retry_max_s:
        Exponential-backoff bounds between re-dispatch rounds; the
        actual delay adds up to 25% deterministic jitter drawn from
        ``retry_seed``.
    retry_seed:
        Seed for the jitter stream (reproducible backoff schedules).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  Armed sites
        ``shard.worker_crash`` and ``shard.chunk_timeout`` are checked
        once per chunk dispatch, in dispatch order, in this process —
        fully deterministic under a fixed plan and seed.
    tracer:
        Optional :class:`repro.obs.Tracer` for the sharded path's trace
        spans; ``None`` uses the process default.  Each sharded batch
        becomes one trace: a ``shard.classify_batch`` root in this
        process with every worker's ``shard.worker_chunk`` stitched in
        as children.

    The pool is created lazily on the first large-enough batch and
    workers are initialized exactly once; use as a context manager (or
    call :meth:`close`) to release the processes.
    """

    def __init__(
        self,
        pipeline=None,
        *,
        model_dir: str | Path | None = None,
        n_workers: int | None = None,
        chunk_size: int = 2000,
        min_parallel: int = 4000,
        chunk_timeout_s: float | None = 60.0,
        max_chunk_retries: int = 3,
        retry_base_s: float = 0.05,
        retry_max_s: float = 2.0,
        retry_seed: int = 0,
        fault_injector=None,
        tracer=None,
    ) -> None:
        if (pipeline is None) == (model_dir is None):
            raise ValueError("provide exactly one of pipeline / model_dir")
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ValueError(
                f"chunk_timeout_s must be positive or None, got {chunk_timeout_s}"
            )
        if max_chunk_retries < 0:
            raise ValueError(
                f"max_chunk_retries must be >= 0, got {max_chunk_retries}"
            )
        self._pipeline = pipeline
        self._model_dir = model_dir
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.min_parallel = min_parallel
        self.chunk_timeout_s = chunk_timeout_s
        self.max_chunk_retries = max_chunk_retries
        self.retry_base_s = retry_base_s
        self.retry_max_s = retry_max_s
        self.fault_injector = fault_injector
        self.tracer = tracer
        self._retry_rng = random.Random(f"shard-retry:{retry_seed}")
        self._pool: ProcessPoolExecutor | None = None
        #: batches that went through the pool vs the serial path
        self.n_sharded_batches = 0
        self.n_serial_batches = 0
        #: resilience counters (mirrored into repro_faults_* metrics)
        self.n_worker_respawns = 0
        self.n_chunk_retries = 0
        self.n_serial_fallback_chunks = 0

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    @property
    def pipeline(self):
        """The parent-side pipeline (lazy-loaded from ``model_dir``)."""
        if self._pipeline is None:
            from repro.core.serialize import load_pipeline

            self._pipeline = load_pipeline(self._model_dir)
        return self._pipeline

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_worker,
                initargs=(self._pipeline, self._model_dir),
            )
        return self._pool

    def _respawn_pool(self, registry) -> None:
        """Replace a broken pool; the next dispatch gets fresh workers."""
        from repro.obs import wellknown

        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.n_worker_respawns += 1
        wellknown.faults_worker_respawns(registry).inc()

    # -- fault arming --------------------------------------------------

    def _arm_chunk_fault(self) -> dict | None:
        """Parent-side injection decision for one chunk dispatch."""
        inj = self.fault_injector
        if inj is None:
            return None
        if inj.should_fire(SITE_WORKER_CRASH):
            return {"crash": True}
        if inj.should_fire(SITE_CHUNK_TIMEOUT):
            stall = (self.chunk_timeout_s or 1.0) * 1.5 + 0.1
            return {"delay_s": stall}
        return None

    def _backoff_delay(self, round_no: int) -> float:
        base = min(self.retry_base_s * 2 ** (round_no - 1), self.retry_max_s)
        return base * (1.0 + 0.25 * self._retry_rng.random())

    # -- classification ------------------------------------------------

    def classify_batch(self, batch: MessageBatch | Sequence[str]):
        """Classify a batch, sharding across workers when it pays off.

        Returns the same ``list[PipelineResult]`` as
        :meth:`ClassificationPipeline.classify_batch`, in input order —
        under worker crashes and stalls too: lost chunks are retried on
        a respawned pool and, past the retry budget, classified
        serially in this process, so exactly one result per input comes
        back regardless of how the pool behaved.  Service-time
        accounting (``service_seconds``/``n_classified`` and the
        ``shard`` timer stage) lands on the parent pipeline either way,
        so ``messages_per_hour()`` reflects the strategy actually used.

        The sharded path is fully observable: workers return their
        per-chunk stage reports (merged into the parent pipeline's
        timer, and therefore into the metrics registry — per-stage item
        counts come out identical to a serial run), per-worker message
        counters, dispatch/queue-wait histograms, worker dead-letter
        entries (adopted into the parent queue), and child spans
        stitched under one ``shard.classify_batch`` trace.
        """
        from repro.obs.trace import default_tracer

        batch = MessageBatch.coerce(batch)
        if self.n_workers == 1 or len(batch) < self.min_parallel:
            self.n_serial_batches += 1
            return self.pipeline.classify_batch(batch)
        self.n_sharded_batches += 1
        tracer = self.tracer if self.tracer is not None else default_tracer()
        pipe = self.pipeline
        registry = pipe.timer.registry
        t0 = perf_counter()
        chunks = [c.texts for c in batch.chunks(self.chunk_size)]
        with tracer.span(
            "shard.classify_batch",
            n_messages=len(batch), n_chunks=len(chunks),
            n_workers=self.n_workers,
        ) as root:
            by_chunk, fallback_idx, fallback_s = self._gather_resilient(
                chunks, root.context(), registry, tracer
            )
        # chunks the pool classified are accounted here as one sharded
        # interval; serial-fallback chunks already accounted themselves
        # inside pipe.classify_batch, so they are excluded to keep
        # message counts exact
        n_fallback = sum(len(chunks[i]) for i in fallback_idx)
        n_gathered = len(batch) - n_fallback
        gathered_s = max(0.0, perf_counter() - t0 - fallback_s)
        if n_gathered:
            pipe.service_seconds += gathered_s
            pipe.n_classified += n_gathered
            pipe.timer.add("shard", gathered_s, n_gathered)
            fallback = set(fallback_idx)
            n_filtered = sum(
                1
                for i, chunk_results in enumerate(by_chunk)
                if i not in fallback
                for r in chunk_results
                if r.filtered
            )
            pipe._record_batch_metrics(n_gathered, n_filtered, gathered_s)
        results: list = []
        for chunk_results in by_chunk:
            results.extend(chunk_results)
        return results

    def _gather_resilient(self, chunks, ctx, registry, tracer):
        """Dispatch every chunk until classified; never loses a chunk.

        Returns ``(results_by_chunk, fallback_indices, fallback_seconds)``.
        Each round submits all still-pending chunks, collects results
        under the chunk deadline, respawns the pool if a worker died,
        and re-dispatches failures after a backoff — until every chunk
        either came back from a worker or burned its retry budget and
        went through the serial fallback.
        """
        from repro.obs import wellknown

        pipe = self.pipeline
        dispatch_hist = wellknown.shard_dispatch_seconds(registry)
        wait_hist = wellknown.shard_queue_wait_seconds(registry)
        msg_counter = wellknown.shard_messages(registry)
        chunk_counter = wellknown.shard_chunks(registry)
        retry_counter = wellknown.faults_chunk_retries(registry)

        by_chunk: list = [None] * len(chunks)
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        fallback_idx: list[int] = []
        round_no = 0
        while pending:
            round_no += 1
            pool_broken = False
            futures: dict[int, tuple] = {}
            for idx in pending:
                fault = self._arm_chunk_fault()
                try:
                    fut = self._ensure_pool().submit(
                        _classify_chunk, chunks[idx], ctx, fault
                    )
                except Exception:
                    # pool died while submitting: everything not yet
                    # submitted fails this round and is re-dispatched
                    pool_broken = True
                    continue
                futures[idx] = (fut, perf_counter())
            failed: list[int] = []
            for idx in pending:
                entry = futures.get(idx)
                if entry is None:
                    failed.append(idx)
                    continue
                fut, t_submit = entry
                try:
                    (chunk_results, report_dict, spans, pid, busy_s,
                     dlq_entries, cache_stats) = fut.result(
                        timeout=self.chunk_timeout_s)
                except BrokenProcessPool:
                    pool_broken = True
                    failed.append(idx)
                    continue
                except Exception:
                    # deadline miss or a worker-raised error; the chunk
                    # is re-dispatched (a stale result arriving later is
                    # simply discarded with its future)
                    failed.append(idx)
                    continue
                roundtrip = perf_counter() - t_submit
                dispatch_hist.observe(roundtrip)
                wait_hist.observe(max(0.0, roundtrip - busy_s))
                msg_counter.inc(len(chunks[idx]), worker=str(pid))
                chunk_counter.inc(worker=str(pid))
                pipe.timer.merge(StageReport.from_dict(report_dict))
                tracer.adopt(spans)
                if dlq_entries:
                    pipe.dead_letters.extend(dlq_entries)
                    wellknown.faults_quarantined(registry).inc(len(dlq_entries))
                if cache_stats is not None:
                    # the worker's registry is invisible here: republish
                    # its deltas under its pid, as the serial path does
                    wellknown.mirror_template_cache(cache_stats, pid, registry)
                by_chunk[idx] = chunk_results
            if pool_broken:
                self._respawn_pool(registry)
            still: list[int] = []
            for idx in failed:
                attempts[idx] += 1
                if attempts[idx] > self.max_chunk_retries:
                    fallback_idx.append(idx)
                else:
                    still.append(idx)
                    self.n_chunk_retries += 1
                    retry_counter.inc()
            pending = still
            if pending:
                time.sleep(self._backoff_delay(round_no))
        fallback_s = 0.0
        if fallback_idx:
            fallback_counter = wellknown.faults_serial_fallbacks(registry)
            for idx in sorted(fallback_idx):
                t0 = perf_counter()
                by_chunk[idx] = pipe.classify_batch(
                    MessageBatch(texts=chunks[idx])
                )
                fallback_s += perf_counter() - t0
                self.n_serial_fallback_chunks += 1
                fallback_counter.inc()
        return by_chunk, fallback_idx, fallback_s
