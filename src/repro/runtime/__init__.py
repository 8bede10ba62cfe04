"""Per-stage accounting for the classification hot path.

The paper's feasibility argument (§5) needs classification to keep up
with >1M messages/hour; one process running
:meth:`~repro.core.pipeline.ClassificationPipeline.classify_batch`
clears that bar.  :class:`StageTimer` (:mod:`repro.runtime.timing`)
is the per-stage ``perf_counter`` accounting (normalize / vectorize /
predict / route) that shows where the time goes, surfaced via
``repro-syslog classify --timing`` and
:meth:`ClassificationPipeline.timing_report`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "timing": ("StageReport", "StageStat", "StageTimer"),
})
