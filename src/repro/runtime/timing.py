"""Per-stage timing for the classification hot path.

The paper's feasibility argument (§5/§6) is quantitative — a classifier
either keeps up with the stream or it does not — yet knowing *that* a
pipeline is slow says nothing about *where* the time goes.
:class:`StageTimer` instruments the batch path (normalize → vectorize →
predict → route) with ``perf_counter`` accumulators per stage so the
CLI (``repro-syslog classify --timing``) and
:meth:`~repro.core.pipeline.ClassificationPipeline.timing_report` can
show a breakdown without any measurable overhead on the hot path
(one clock read per stage per batch, not per message).

Since the :mod:`repro.obs` metrics registry landed, ``StageTimer`` is a
thin adapter over it: every :meth:`StageTimer.add` both updates the
local accumulators (so ``timing_report()`` keeps its historical
behaviour) and observes the interval in the well-known
``repro_pipeline_stage_seconds`` histogram, and the
``repro_pipeline_stage_items_total`` counter reads the accumulators'
items, so live exposition (``--metrics-out``) and the one-shot report
always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.obs import wellknown
from repro.obs.metrics import Views, default_registry

__all__ = ["StageTimer", "StageStat", "StageReport"]

def _items_by_stage(stats: dict) -> dict:
    return {(stage,): stat.items for stage, stat in list(stats.items())}


@dataclass
class StageStat:
    """Accumulated cost of one pipeline stage.

    Attributes
    ----------
    seconds:
        Total wall-clock seconds spent in the stage.
    calls:
        Number of timed entries (≈ batches processed).
    items:
        Number of items (messages) the stage processed.
    """

    seconds: float = 0.0
    calls: int = 0
    items: int = 0

    def add(self, seconds: float, items: int = 0) -> None:
        """Fold one timed interval into the accumulator."""
        self.seconds += seconds
        self.calls += 1
        self.items += items

    @property
    def items_per_second(self) -> float:
        """Throughput of this stage in isolation (0 when untimed)."""
        return self.items / self.seconds if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class StageReport:
    """Immutable snapshot of a :class:`StageTimer`.

    Attributes
    ----------
    stages:
        Stage name → :class:`StageStat`, in first-seen order.
    total_seconds:
        Wall-clock seconds across all stages (the stages are sequential
        on the hot path, so this is ≈ total batch service time).
    """

    stages: dict[str, StageStat]
    total_seconds: float

    def render(self) -> str:
        """Human-readable table of the per-stage breakdown.

        Stages timed with ``items=0`` show ``-`` for throughput — an
        untimed column, not a measured zero.
        """
        if not self.stages:
            return "no stages timed"
        name_w = max(max(len(n) for n in self.stages), len("total")) + 2
        lines = [f"{'stage':<{name_w}}{'seconds':>10}  {'%':>6}  "
                 f"{'items':>9}  {'items/s':>12}"]
        total = self.total_seconds or 1.0
        for name, s in self.stages.items():
            rate = f"{s.items_per_second:.1f}" if s.items > 0 else "-"
            lines.append(
                f"{name:<{name_w}}{s.seconds:>10.4f}  "
                f"{100.0 * s.seconds / total:>6.1f}  {s.items:>9}  "
                f"{rate:>12}"
            )
        lines.append(f"{'total':<{name_w}}{self.total_seconds:>10.4f}  "
                     f"{100.0:>6.1f}")
        return "\n".join(lines)


@dataclass
class StageTimer:
    """Accumulates per-stage wall-clock time across batches.

    Use :meth:`stage` as a context manager around each stage of the
    batch path::

        timer = StageTimer()
        with timer.stage("vectorize", items=len(texts)):
            X = vec.transform(texts)
        print(timer.report().render())

    Timers are cheap enough to leave permanently attached (two
    ``perf_counter`` calls per stage per *batch*).

    Every recorded interval is also a ``repro_pipeline_stage_seconds``
    observation in the metrics registry (``registry``, or the process
    default when ``None``), and ``repro_pipeline_stage_items_total`` is
    a view of the stats' items, making this class the adapter between
    the historical report API and live exposition.
    """

    _stats: dict[str, StageStat] = field(default_factory=dict, repr=False)
    #: metrics registry to report into; ``None`` = process default
    registry: object = field(default=None, repr=False)
    #: stage name → (the families map it was resolved against, its
    #: seconds child)
    _bound: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: the items view, attached at the first items a registry sees
    _items: Views = field(default_factory=Views, init=False, repr=False, compare=False)

    def stage(self, name: str, items: int = 0) -> "_Stage":
        """Time one stage execution covering ``items`` messages (a
        context manager; the interval is recorded when the body raises
        too)."""
        return _Stage(self, name, items)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Record an externally-timed interval."""
        self._mirror(name, seconds, items)
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = StageStat()
        stat.seconds += seconds
        stat.calls += 1
        stat.items += items

    def _mirror(self, name: str, seconds: float, items: int) -> None:
        """Observe ``seconds``, before the interval is added to the stats:
        the first items a registry sees attach the items view there, and
        it counts from the items as they stand."""
        registry = self.registry if self.registry is not None else default_registry()
        families = registry._families
        bound = self._bound.get(name)
        if bound is None or bound[0] is not families:
            self._items.follow(registry)  # a stage's first interval there
            seconds_child = wellknown.stage_seconds(registry).labels(stage=name)
            bound = self._bound[name] = (families, seconds_child)
        bound[1].observe(seconds)
        if items and not self._items.views:
            stats = self._stats
            self._items.attach(
                wellknown.stage_items(registry), stats, _items_by_stage,
                base=_items_by_stage(stats),
            )

    def __getstate__(self) -> dict:
        # resolved children stay in the process that resolved them
        state = self.__dict__.copy()
        state["_bound"] = {}
        return state

    def reset(self) -> None:
        """Drop all accumulated stats (the registry keeps what it counted)."""
        self._items.clear()
        self._stats.clear()

    def report(self) -> StageReport:
        """Snapshot the accumulators into a :class:`StageReport`."""
        stages = {
            name: StageStat(s.seconds, s.calls, s.items)
            for name, s in self._stats.items()
        }
        return StageReport(
            stages=stages,
            total_seconds=sum(s.seconds for s in stages.values()),
        )


class _Stage:
    """The context manager :meth:`StageTimer.stage` hands out."""

    __slots__ = ("_timer", "_name", "_items", "_t0")

    def __init__(self, timer: StageTimer, name: str, items: int) -> None:
        self._timer = timer
        self._name = name
        self._items = items

    def __enter__(self) -> None:
        self._t0 = perf_counter()

    def __exit__(self, *exc) -> None:
        self._timer.add(self._name, perf_counter() - self._t0, self._items)
