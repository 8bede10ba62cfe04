"""Batch-first runtime layer for the classification hot path.

The paper's feasibility argument (§5) needs classification to keep up
with >1M messages/hour; this package is the machinery that gets the
repo there:

- :mod:`repro.runtime.batch` — :class:`MessageBatch`, the columnar
  unit of work that flows through normalize → tokenize → vectorize as
  one batch instead of per-message calls,
- :mod:`repro.runtime.executor` — :class:`ShardedExecutor`, chunked
  multi-process ``classify_batch`` with one-shot worker initialization
  and a serial fallback for small batches,
- :mod:`repro.runtime.timing` — :class:`StageTimer`, per-stage
  ``perf_counter`` accounting (normalize / vectorize / predict /
  route) surfaced via ``repro-syslog classify --timing`` and
  :meth:`ClassificationPipeline.timing_report`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "batch": ("MessageBatch",),
    "executor": ("ShardedExecutor",),
    "timing": ("StageReport", "StageStat", "StageTimer"),
})
