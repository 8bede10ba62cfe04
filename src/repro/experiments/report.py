"""One-shot experiment report: every paper artifact, regenerated.

``write_report`` runs all experiment runners at a configurable scale
and writes a self-contained markdown report with paper-vs-measured
tables — the programmatic equivalent of running the whole benchmark
suite with ``-s`` and collecting the banners.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.classifiers import (
    fig3_layout,
    linear_svc_confusion,
    run_classifier_comparison,
)
from repro.experiments.common import ExperimentData, format_table
from repro.experiments.correlationexp import run_correlation_experiment
from repro.experiments.driftexp import run_drift_experiment
from repro.experiments.retrainexp import run_retrain_experiment
from repro.experiments.table1 import run_table1, table1_layout
from repro.experiments.table2 import run_table2, table2_layout
from repro.experiments.table3 import run_table3, table3_layout
from repro.monitor.dashboard import render_confusion

__all__ = ["write_report", "build_report"]


def build_report(*, scale: float = 0.02, seed: int = 0) -> str:
    """Run every experiment and return the markdown report text."""
    sections: list[str] = [
        "# Experiment report — Heterogeneous Syslog Analysis reproduction",
        f"\nGenerated at corpus scale {scale} (paper dataset = scale 1.0), "
        f"seed {seed}.  Absolute timings depend on this machine; the "
        "paper-vs-measured *shape* is the reproduction criterion "
        "(see EXPERIMENTS.md).\n",
    ]

    # Table 1
    tops = run_table1(scale=scale, seed=seed)
    sections.append("## Table 1 — top TF-IDF tokens per category\n")
    sections.append("```\n" + format_table(*table1_layout(tops)) + "\n```\n")

    # Table 2
    t2 = run_table2(scale=scale, seed=seed)
    sections.append("## Table 2 — unique messages per category\n")
    sections.append(
        "```\n" + format_table(*table2_layout(t2))
        + f"\n```\nall texts unique: {t2.all_unique}\n"
    )

    # Figure 3 + Figure 2
    data = ExperimentData(scale=scale, seed=seed)
    rows = run_classifier_comparison(data)
    sections.append("## Figure 3 — traditional classifiers\n")
    sections.append("```\n" + format_table(*fig3_layout(rows)) + "\n```\n")
    cm, labels = linear_svc_confusion(data)
    sections.append("## Figure 2 — Linear SVC confusion matrix\n")
    sections.append("```\n" + render_confusion(cm, labels) + "\n```\n")

    # Table 3
    t3 = run_table3()
    sections.append("## Table 3 — LLM inference cost\n")
    sections.append("```\n" + format_table(*table3_layout(t3)) + "\n```\n")

    # Drift
    drift = run_drift_experiment(scale=min(scale, 0.01), seed=seed,
                                 generations=(0, 1, 2))
    sections.append("## Firmware drift — bucketing vs ML\n")
    sections.append("```\n" + format_table(
        ["fw gen", "bucket coverage", "new buckets", "ML wF1"],
        [[r.generation, r.bucket_coverage, r.new_buckets, r.ml_weighted_f1]
         for r in drift],
    ) + "\n```\n")

    # Retrain
    rt = run_retrain_experiment(scale=min(scale, 0.008), seed=seed)
    sections.append("## Newcomer-vendor adaptation\n")
    sections.append(
        f"static accuracy on newcomer messages: {rt.static_newcomer_accuracy:.3f}; "
        f"adaptive: {rt.adaptive_newcomer_accuracy:.3f} after "
        f"{rt.retrain_events} retrain(s) / {rt.labels_requested} labels.\n"
    )

    # Correlation
    corr = run_correlation_experiment(seed=seed, duration_s=3600.0)
    sections.append("## Badge-access correlation\n")
    sections.append(
        f"USB lift {corr.usb.lift:.2f} (p={corr.usb.p_value:.3f}); "
        f"SSH control lift {corr.ssh_control.lift:.2f} "
        f"(p={corr.ssh_control.p_value:.3f}).\n"
    )
    return "\n".join(sections)


def write_report(path: str | Path, *, scale: float = 0.02, seed: int = 0) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(scale=scale, seed=seed))
    return path
