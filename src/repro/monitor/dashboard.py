"""ASCII dashboards (the Grafana stand-in).

The paper's Grafana front-end shows message-rate panels, top-N
groupings, and category overviews; these renderers produce the same
panels as fixed-width text for terminals, logs, and test assertions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.stream.opensearch import LogStore

__all__ = [
    "render_rate_panel",
    "render_top_panel",
    "render_overview",
    "render_confusion",
    "render_metrics_panel",
]

_BARS = " ▁▂▃▄▅▆▇█"


def _sparkline(counts: Sequence[float]) -> str:
    arr = np.asarray(counts, dtype=np.float64)
    if arr.size == 0:
        return ""
    hi = arr.max()
    if hi <= 0:
        return _BARS[0] * arr.size
    idx = np.minimum((arr / hi * (len(_BARS) - 1)).astype(int), len(_BARS) - 1)
    return "".join(_BARS[i] for i in idx)


def render_rate_panel(
    times: Sequence[float],
    counts: Sequence[int],
    *,
    title: str = "messages / interval",
    width: int = 60,
) -> str:
    """Sparkline rate panel with min/max annotations."""
    counts = list(counts)
    if len(counts) > width:
        # down-sample by max within equal chunks (peaks must survive)
        chunks = np.array_split(np.asarray(counts, dtype=np.float64), width)
        counts = [float(c.max()) for c in chunks]
    line = _sparkline(counts)
    lo = min(counts) if counts else 0
    hi = max(counts) if counts else 0
    span = ""
    if len(times) >= 2:
        span = f"  t=[{times[0]:.0f}..{times[-1]:.0f}]s"
    return f"{title}{span}\n[{line}] min={lo:.0f} max={hi:.0f}"


def render_top_panel(
    pairs: Sequence[tuple[str, int]], *, title: str = "top", width: int = 40
) -> str:
    """Horizontal bar chart of (name, count) pairs."""
    lines = [title]
    if not pairs:
        return title + "\n(no data)"
    hi = max(c for _n, c in pairs) or 1
    name_w = max(len(n) for n, _c in pairs)
    for name, count in pairs:
        bar = "#" * max(1, int(count / hi * width))
        lines.append(f"{name:<{name_w}} {bar} {count}")
    return "\n".join(lines)


def render_confusion(
    cm, labels: Sequence[str], *, max_label: int = 12
) -> str:
    """ASCII heatmap of a confusion matrix (the Figure 2 panel).

    Cells are shaded by their row-normalized value; exact counts are
    printed for the diagonal and any non-zero off-diagonal cell.
    """
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] != len(labels):
        raise ValueError(
            f"confusion matrix shape {cm.shape} does not match {len(labels)} labels"
        )
    short = [str(l)[:max_label] for l in labels]
    w = max(max(len(s) for s in short), 6)
    header = " " * (w + 1) + " ".join(s.rjust(w) for s in short)
    lines = [header]
    row_sums = cm.sum(axis=1, keepdims=True).astype(float)
    row_sums[row_sums == 0] = 1.0
    shade = cm / row_sums
    for i, name in enumerate(short):
        cells = []
        for j in range(len(short)):
            v = cm[i, j]
            if v == 0:
                cells.append("·".rjust(w))
            else:
                mark = _BARS[min(int(shade[i, j] * (len(_BARS) - 1)), len(_BARS) - 1)]
                cells.append(f"{v}{mark}".rjust(w))
        lines.append(name.rjust(w) + " " + " ".join(cells))
    return "\n".join(lines)


def _fmt_metric_value(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def render_metrics_panel(source, *, title: str = "metrics") -> str:
    """Live registry state as a terminal panel (the Grafana stand-in).

    ``source`` is a :class:`repro.obs.MetricsRegistry` or a snapshot
    dict (:meth:`MetricsRegistry.snapshot`, or a file loaded with
    :func:`repro.obs.load_snapshot`).  Counters show cumulative value
    plus a per-second rate over the registry's uptime when known;
    histograms render a sparkline over their log-scale buckets with
    count/mean and interpolated p50/p95/p99.

    Families are grouped into the subsystem sections the metric
    catalogue (:mod:`repro.obs.wellknown`) files them under, in
    ``wellknown.SECTIONS`` order; names the catalogue does not declare
    land in ``other``.  Section headers are omitted when nothing is
    declared, so ad-hoc registries render as a flat panel.
    """
    from repro.obs import wellknown
    from repro.obs.metrics import histogram_quantile

    sections = {family.name: family.section for family in wellknown.CATALOGUE}

    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    uptime = snapshot.get("uptime_seconds")
    header = title
    if uptime is not None:
        header += f"  (uptime {uptime:.1f}s)"
    lines = [header]
    name_rows: list[tuple[str, str, str]] = []
    for metric in snapshot["metrics"]:
        kind = metric["type"]
        section = sections.get(metric["name"], "other")
        for sample in metric["samples"]:
            label = f"{metric['name']}{_fmt_labels(sample.get('labels', {}))}"
            if kind == "histogram":
                count = sample.get("count", 0)
                if not count:
                    name_rows.append((section, label, "(no observations)"))
                    continue
                # cumulative -> per-bucket counts for the sparkline,
                # trimmed to the occupied range so shape is visible
                buckets = [
                    (float("inf") if edge == "+Inf" else float(edge), n)
                    for edge, n in sample["buckets"]
                ]
                per_bucket = [
                    n - (buckets[i - 1][1] if i else 0)
                    for i, (_e, n) in enumerate(buckets)
                ]
                occupied = [i for i, n in enumerate(per_bucket) if n > 0]
                lo, hi = occupied[0], occupied[-1]
                spark = _sparkline(per_bucket[lo:hi + 1])
                mean = sample["sum"] / count
                p50, p95, p99 = (histogram_quantile(buckets, q)
                                 for q in (0.5, 0.95, 0.99))
                name_rows.append((
                    section,
                    label,
                    f"[{spark}] n={count} mean={mean:.3g} "
                    f"p50={p50:.3g} p95={p95:.3g} p99={p99:.3g}",
                ))
            else:
                value = sample["value"]
                text = _fmt_metric_value(value)
                if kind == "counter" and uptime:
                    text += f"  ({value / uptime:.2f}/s)"
                name_rows.append((section, label, text))
    if not name_rows:
        return header + "\n(no metrics)"
    name_w = max(len(n) for _s, n, _ in name_rows)
    order = [*wellknown.SECTIONS, "other"]
    grouped = {s: [r for r in name_rows if r[0] == s] for s in order}
    flat = all(s == "other" for s, _n, _b in name_rows)
    for section in order:
        rows = grouped[section]
        if not rows:
            continue
        if not flat:
            lines.append(f"-- {section} --")
        lines += [f"{name:<{name_w}}  {body}" for _s, name, body in rows]
    return "\n".join(lines)


def render_overview(store: LogStore, *, interval_s: float = 60.0) -> str:
    """Cluster overview: rate panel + top hosts/apps/categories."""
    buckets = store.date_histogram(interval_s=interval_s)
    times = [b.start for b in buckets]
    counts = [b.count for b in buckets]
    sev = store.severity_histogram()
    sev_pairs = [(s.name.lower(), n) for s, n in sorted(sev.items())]
    sections = [
        f"=== Tivan overview: {len(store)} documents ===",
        render_rate_panel(times, counts, title=f"rate per {interval_s:.0f}s"),
        render_top_panel(store.terms_aggregation("hostname", top=5), title="top hosts"),
        render_top_panel(store.terms_aggregation("app", top=5), title="top services"),
        render_top_panel(sev_pairs, title="severity"),
    ]
    cats = store.terms_aggregation("category", top=8)
    if cats:
        sections.append(render_top_panel(cats, title="categories"))
    return "\n\n".join(sections)
