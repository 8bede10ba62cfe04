"""Core syslog-analysis library: taxonomy, message model, pipeline.

This package holds the paper's primary contribution — the actionable
category taxonomy (§4.1) and the real-time classification pipeline that
routes heterogeneous syslog messages into those categories and raises
per-category alerts, with drift monitoring to detect when the message
distribution shifts (the failure mode that forced continuous retraining
of the legacy bucketing approach, §3).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "taxonomy": ("Category", "CATEGORIES", "TAXONOMY", "CategorySpec"),
    "message": ("SyslogMessage", "Severity", "Facility"),
    "pipeline": ("ClassificationPipeline", "PipelineResult"),
    "template_cache": ("TemplateCache",),
    "alerts": ("AlertRule", "AlertRouter", "Alert", "EmailSink"),
    "drift": ("DriftMonitor", "DriftReport"),
    "registry": ("ModelRegistry", "ModelRecord"),
    "retrain": ("RetrainController", "RetrainEvent"),
    "serialize": ("save_pipeline", "load_pipeline", "save_classifier", "load_classifier"),
})
