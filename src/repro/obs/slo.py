"""Declarative SLOs evaluated straight from the metrics registry.

The paper's operability argument (§4.5) needs more than raw counters:
an operator (and, per ROADMAP item 3, the future autoscaler) wants
*judgments* — is p99 accept-to-indexed latency under target, is the
loss rate inside budget — and a burn signal when it is not.

An :class:`SloTarget` names a threshold over the registry in one of two
shapes:

- ``quantile``: a quantile of one histogram family must stay under the
  threshold (``p99(repro_e2e_latency_seconds) < 5s``), and
- ``ratio``: a sum of counter families over another sum must stay under
  the threshold (loss rate = shed + dropped + errors over received).

:class:`SloTracker` evaluates its targets against a registry snapshot
and publishes four wellknown gauge families per target —
``repro_slo_value``, ``repro_slo_target``, ``repro_slo_compliant``,
``repro_slo_error_budget_remaining`` — so SLO state rides the same
``/metrics`` scrape as everything else.  Targets round-trip through
plain dicts (:func:`load_slo_file` reads a JSON list), which is the
``--slo-file`` CLI knob.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs import wellknown
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    histogram_quantile,
)

__all__ = [
    "SloTarget",
    "SloStatus",
    "SloTracker",
    "quantile_slo",
    "ratio_slo",
    "default_slos",
    "load_slo_file",
]


@dataclass(frozen=True)
class SloTarget:
    """One declarative objective over the metrics registry.

    ``kind`` is ``"quantile"`` (``family``/``quantile`` set) or
    ``"ratio"`` (``numerator``/``denominator`` family-name tuples set).
    ``threshold`` is the value the observation must stay strictly
    under.
    """

    name: str
    kind: str
    threshold: float
    family: str | None = None
    quantile: float | None = None
    numerator: tuple[str, ...] = ()
    denominator: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The JSON form ``load_slo_file`` reads back."""
        out: dict = {"name": self.name, "kind": self.kind, "threshold": self.threshold}
        if self.kind == "quantile":
            out["family"] = self.family
            out["quantile"] = self.quantile
        else:
            out["numerator"] = list(self.numerator)
            out["denominator"] = list(self.denominator)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SloTarget":
        kind = data["kind"]
        if kind == "quantile":
            return quantile_slo(
                data["name"], data["family"], data["quantile"], data["threshold"]
            )
        if kind == "ratio":
            return ratio_slo(
                data["name"],
                data["numerator"],
                data["denominator"],
                data["threshold"],
            )
        raise ValueError(f"unknown SLO kind: {kind!r}")


def quantile_slo(
    name: str, family: str, quantile: float, threshold: float
) -> SloTarget:
    """``quantile(family) < threshold`` (e.g. p99 e2e latency < 5s)."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    return SloTarget(
        name=name, kind="quantile", threshold=threshold,
        family=family, quantile=quantile,
    )


def ratio_slo(name: str, numerator, denominator, threshold: float) -> SloTarget:
    """``sum(numerator) / sum(denominator) < threshold`` (e.g. loss rate)."""
    return SloTarget(
        name=name, kind="ratio", threshold=threshold,
        numerator=tuple(numerator), denominator=tuple(denominator),
    )


def default_slos() -> list[SloTarget]:
    """The repo's stock objectives for the broker-spine pipeline."""
    return [
        quantile_slo("e2e_p99", "repro_e2e_latency_seconds", 0.99, 5.0),
        ratio_slo(
            "ingest_loss",
            (
                "repro_ingest_shed_total",
                "repro_ingest_accept_dropped_total",
                "repro_ingest_parse_errors_total",
                "repro_ingest_oversize_total",
                "repro_ingest_publish_refused_total",
            ),
            ("repro_ingest_received_total",),
            0.01,
        ),
        quantile_slo(
            "quorum_write_p99", "repro_store_quorum_write_seconds", 0.99, 1.0
        ),
    ]


def load_slo_file(path: str | Path) -> list[SloTarget]:
    """Read a JSON list of SLO target dicts (the ``--slo-file`` format)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError("SLO file must contain a JSON list of targets")
    return [SloTarget.from_dict(d) for d in data]


@dataclass(frozen=True)
class SloStatus:
    """One target's evaluation: observed value vs. declared threshold."""

    name: str
    kind: str
    value: float
    threshold: float
    ok: bool
    budget_remaining: float


def _family_samples(snapshot: dict, name: str) -> list[dict]:
    for fam in snapshot.get("metrics", []):
        if fam["name"] == name:
            return fam["samples"]
    return []


def _merged_buckets(samples: list[dict]) -> list[tuple[float, int]]:
    """Sum a histogram family's cumulative buckets across its children."""
    merged: dict[float, int] = {}
    for sample in samples:
        for edge, cum in sample.get("buckets", []):
            key = float("inf") if edge == "+Inf" else float(edge)
            merged[key] = merged.get(key, 0) + int(cum)
    return sorted(merged.items())


def _summed_values(snapshot: dict, names) -> float:
    return sum(
        float(sample.get("value", 0.0))
        for name in names
        for sample in _family_samples(snapshot, name)
    )


class SloTracker:
    """Evaluates declarative targets and publishes them as gauges.

    A target with no data yet (empty histogram, zero denominator)
    evaluates to 0.0 and is vacuously compliant — a freshly started
    process should not begin life in violation.
    """

    def __init__(
        self,
        targets: list[SloTarget] | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.targets = list(targets) if targets is not None else default_slos()
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else default_registry()

    def evaluate(self) -> list[SloStatus]:
        """Evaluate every target against the registry; update the gauges."""
        registry = self.registry
        snapshot = registry.snapshot()
        g_value = wellknown.slo_value(registry)
        g_target = wellknown.slo_target(registry)
        g_ok = wellknown.slo_compliant(registry)
        g_budget = wellknown.slo_budget_remaining(registry)
        statuses = []
        for target in self.targets:
            if target.kind == "quantile":
                buckets = _merged_buckets(
                    _family_samples(snapshot, target.family)
                )
                value = histogram_quantile(buckets, target.quantile)
            else:
                denom = _summed_values(snapshot, target.denominator)
                value = (
                    _summed_values(snapshot, target.numerator) / denom
                    if denom > 0 else 0.0
                )
            ok = value < target.threshold
            if target.threshold > 0:
                budget = max(-1.0, min(1.0, 1.0 - value / target.threshold))
            else:
                budget = 1.0 if value == 0.0 else -1.0
            g_value.set(value, slo=target.name)
            g_target.set(target.threshold, slo=target.name)
            g_ok.set(1.0 if ok else 0.0, slo=target.name)
            g_budget.set(budget, slo=target.name)
            statuses.append(SloStatus(
                name=target.name, kind=target.kind, value=value,
                threshold=target.threshold, ok=ok, budget_remaining=budget,
            ))
        return statuses
