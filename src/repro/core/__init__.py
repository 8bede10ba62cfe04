"""Core syslog-analysis library: taxonomy, message model, pipeline.

This package holds the paper's primary contribution — the actionable
category taxonomy (§4.1) and the real-time classification pipeline that
routes heterogeneous syslog messages into those categories and raises
per-category alerts, with drift monitoring to detect when the message
distribution shifts (the failure mode that forced continuous retraining
of the legacy bucketing approach, §3).
"""

from repro.core.taxonomy import Category, CATEGORIES, TAXONOMY, CategorySpec
from repro.core.message import SyslogMessage, Severity, Facility
from repro.core.pipeline import ClassificationPipeline, PipelineResult
from repro.core.template_cache import TemplateCache
from repro.core.alerts import AlertRule, AlertRouter, Alert, EmailSink
from repro.core.drift import DriftMonitor, DriftReport
from repro.core.registry import ModelRegistry, ModelRecord
from repro.core.retrain import RetrainController, RetrainEvent
from repro.core.serialize import save_pipeline, load_pipeline, save_classifier, load_classifier

__all__ = [
    "Category",
    "CATEGORIES",
    "TAXONOMY",
    "CategorySpec",
    "SyslogMessage",
    "Severity",
    "Facility",
    "ClassificationPipeline",
    "PipelineResult",
    "TemplateCache",
    "AlertRule",
    "AlertRouter",
    "Alert",
    "EmailSink",
    "DriftMonitor",
    "DriftReport",
    "ModelRegistry",
    "ModelRecord",
    "RetrainController",
    "RetrainEvent",
    "save_pipeline",
    "load_pipeline",
    "save_classifier",
    "load_classifier",
]
