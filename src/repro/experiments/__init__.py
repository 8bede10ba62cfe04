"""Experiment runners — one per paper table/figure.

Each module reproduces one artifact of the paper's evaluation and
returns structured results the benchmarks print and the tests assert
on.  The experiment ↔ module map lives in DESIGN.md; paper-vs-measured
numbers are recorded in EXPERIMENTS.md.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "common": ("ExperimentData", "format_table"),
    "classifiers": (
        "ClassifierRow", "run_classifier_comparison", "linear_svc_confusion",
        "CLASSIFIER_FACTORIES",
    ),
    "table1": ("run_table1",),
    "table2": ("run_table2",),
    "table3": ("run_table3", "Table3Row"),
    "prompt_ablation": ("run_prompt_ablation", "PromptAblationRow"),
    "throughput": ("run_throughput_sweep", "ThroughputRow"),
    "driftexp": ("run_drift_experiment", "DriftRow"),
    "blacklistexp": ("run_blacklist_experiment", "BlacklistResult"),
    "monitoringexp": ("run_monitoring_experiment", "MonitoringResult"),
})
