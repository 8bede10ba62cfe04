"""The assembled Tivan cluster simulation.

Wires the §4.2 path — every node's trace lines → the primary syslog
relay → log broker → one Fluentd forwarder → the indexed store — and
optionally attaches a *classifier stage*: a single-server queue that
works through indexed documents at a given per-message service time
(measured from a real pipeline, or taken from the LLM cost model).  The
stage's backlog over time is the quantitative form of the paper's
feasibility argument: a classifier
whose service rate is below the arrival rate "will not be able to keep
up with the continuous flow of messages" (§6).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.core.taxonomy import Category
from repro.datagen.workload import StreamEvent
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder, settle
from repro.stream.opensearch import LogStore

__all__ = ["TivanCluster", "IngestReport", "ClassifierStage", "SETTLE_MARGIN_S"]

#: simulated seconds a run is given past its trace's end, for the last
#: flush ticks and the classifier stage: ``run(duration_s + SETTLE_MARGIN_S)``
SETTLE_MARGIN_S = 30.0


@dataclass
class ClassifierStage:
    """Single-server classification queue over indexed documents.

    Parameters
    ----------
    service_time_s:
        Simulated seconds to classify one message (e.g. Table 3's
        per-message LLM latency, or a measured pipeline mean).
    classify_batch:
        Maps a sequence of texts to a parallel sequence of
        :class:`Category`; this is how a
        :class:`~repro.core.pipeline.ClassificationPipeline` attaches.  ``None`` records progress without real predictions
        (pure queueing study).
    batch_size:
        Documents drained per simulated service tick.  The simulated
        cost of a tick is ``service_time_s × n_taken``, so batching
        changes scheduling granularity, not modelled throughput —
        but it collapses the *real* per-message Python overhead of the
        attached classifier by the batch factor.
    cheap_classify_batch:
        Optional cheap path for degraded mode — typically the
        blacklist/bucketing filter alone (§5.1), orders of magnitude
        cheaper than the model.  Used instead of
        ``classify_batch`` while the cluster is shedding
        load; documents it labels count into :attr:`n_degraded`.
    degraded_service_time_s:
        Simulated per-message seconds on the cheap path; defaults to
        ``service_time_s / 10``.
    n_workers:
        Parallel servers the stage models: a tick's simulated cost is
        ``service_time_s × n_taken / n_workers``.  This is the control
        plane's costed autoscaling lever — worker-seconds are billed per
        worker regardless of utilisation.
    """

    service_time_s: float
    classify_batch: Callable[[Sequence[str]], Sequence[Category]] | None = None
    batch_size: int = 1
    cheap_classify_batch: Callable[[Sequence[str]], Sequence[Category]] | None = None
    degraded_service_time_s: float | None = None
    n_workers: int = 1

    n_done: int = field(default=0, init=False)
    #: documents labelled by the cheap path while degraded
    n_degraded: int = field(default=0, init=False)
    _busy: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.service_time_s <= 0:
            raise ValueError(
                f"service_time_s must be positive, got {self.service_time_s}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.degraded_service_time_s is None:
            self.degraded_service_time_s = self.service_time_s / 10.0
        elif self.degraded_service_time_s <= 0:
            raise ValueError(
                f"degraded_service_time_s must be positive, got "
                f"{self.degraded_service_time_s}"
            )


@dataclass
class RelayStats:
    """The primary syslog relay's counts: lines it took, and lines it
    dropped (a brownout shed or a publish a stalled partition refused).

    ``repro_stream_relay_received_total`` and ``_dropped_total`` are
    views of it, so a resumed run's families read what
    :func:`~repro.durability.resume_simulation` seeds from the journal.
    """

    received: int = 0
    dropped: int = 0


@dataclass
class IngestReport:
    """Outcome of one simulated run.

    ``indexed``/``final_backlog`` are snapshotted at the simulation
    horizon, *before* the settle drain — documents drained afterwards
    arrived too late to be classified inside the run and are reported
    separately as ``drained`` (counting them into the backlog would
    penalize the classifier for work it was never offered).
    """

    duration_s: float
    produced: int
    relay_received: int
    relay_dropped: int
    indexed: int
    classified: int
    final_backlog: int
    #: (sim time, classifier backlog) samples
    backlog_timeline: list[tuple[float, int]]
    #: messages flushed to the store by the post-horizon settle drain
    drained: int = 0
    #: documents labelled by the cheap path while degraded
    classified_degraded: int = 0
    #: degraded-mode enter+exit transitions during the run
    degrade_transitions: int = 0
    #: broker counters
    broker_published: int = 0
    broker_publish_refused: int = 0
    broker_polled: int = 0
    broker_lag: int = 0
    broker_commits_lost: int = 0
    broker_partition_stalls: int = 0
    #: control-plane counters (zero when no controller is attached)
    control_ticks: int = 0
    control_actuations: int = 0
    control_flips: int = 0
    control_worker_seconds: float = 0.0
    brownout_level: int = 0
    brownout_changes: int = 0
    shed_messages: int = 0

    @property
    def keeping_up(self) -> bool:
        """True when the classifier's backlog stayed bounded (ends with
        less than one service-burst of work outstanding)."""
        if not self.backlog_timeline:
            return True
        peak = max(b for _t, b in self.backlog_timeline)
        return self.final_backlog <= max(10, peak * 0.1)

    def headline(self) -> str:
        """The one-line outcome ``simulate`` and ``recover`` print."""
        return (
            f"produced={self.produced} indexed={self.indexed} "
            f"classified={self.classified} backlog={self.final_backlog} "
            f"keeping_up={self.keeping_up}"
        )


class TivanCluster:
    """The end-to-end collection pipeline.

    Parameters
    ----------
    n_shards:
        Store shards (paper: 6 OpenSearch data nodes).
    flush_interval_s, batch_size, buffer_limit:
        Fluentd forwarder tuning.
    flush_retry_limit:
        Forwarder retry budget (see :class:`FluentdForwarder`).
    degrade_backlog:
        Classifier backlog at which the cluster sheds load: the stage
        switches to its ``cheap_classify_batch`` path until the backlog
        falls back to ``degrade_backlog // 2`` (hysteresis, so the mode
        cannot flap on every tick).  ``None`` (default) disables
        degraded mode.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`, armed on the
        forwarder's ``fluentd.flush`` site.
    journal:
        Optional :class:`repro.durability.StreamJournal` making the run
        durable: every forwarder transition is WAL-logged with the
        message's trace position as identity, and :meth:`run` writes
        periodic checkpoints.  Durable clusters are normally built via
        :func:`repro.durability.resume_simulation`, not directly.
    checkpoint_every_s:
        Simulated seconds between checkpoints (requires ``journal``);
        ``None`` disables periodic checkpoints.
    store_nodes:
        When set, the cluster indexes through a
        :class:`~repro.replication.ReplicatedLogStore` over this many
        nodes instead of a single in-process :class:`LogStore`.  The
        fault injector's ``store.*`` sites then act on the replicated
        store, and quorum-unavailable flushes fail into the forwarder's
        retry/DLQ machinery like any other failed flush.
    store_replicas:
        Copies per shard beyond the primary (replicated store only).
    write_quorum, read_quorum:
        W and R for the replicated store; default to majority.
    trace_sample:
        Fraction of messages head-sampled into a cross-hop trace
        (relay → broker → consumer → store → WAL).  Sampling is keyed
        by the message's trace position under ``trace_seed``, so a
        resumed run re-traces exactly the same messages and their
        trace IDs match across the crash.
    trace_seed:
        Seed for the deterministic sampling/ID derivation.
    """

    def __init__(
        self,
        *,
        n_shards: int = 6,
        flush_interval_s: float = 1.0,
        batch_size: int = 1000,
        buffer_limit: int = 100_000,
        flush_retry_limit: int | None = None,
        degrade_backlog: int | None = None,
        fault_injector=None,
        journal=None,
        checkpoint_every_s: float | None = None,
        store_nodes: int | None = None,
        store_replicas: int = 1,
        write_quorum: int | None = None,
        read_quorum: int | None = None,
        trace_sample: float = 0.0,
        trace_seed: int = 0,
    ) -> None:
        if degrade_backlog is not None and degrade_backlog < 1:
            raise ValueError(
                f"degrade_backlog must be >= 1, got {degrade_backlog}"
            )
        if checkpoint_every_s is not None and checkpoint_every_s <= 0:
            raise ValueError(
                f"checkpoint_every_s must be positive, got {checkpoint_every_s}"
            )
        self.engine = EventEngine()
        if store_nodes is not None:
            from repro.replication import ReplicatedLogStore

            self.store = ReplicatedLogStore(
                n_nodes=store_nodes,
                n_shards=n_shards,
                n_replicas=store_replicas,
                write_quorum=write_quorum,
                read_quorum=read_quorum,
                fault_injector=fault_injector,
                clock=lambda: self.engine.now,
            )
        else:
            self.store = LogStore(n_shards=n_shards)
        self.journal = journal
        self.checkpoint_every_s = checkpoint_every_s
        self.sampler = None
        if trace_sample > 0.0:
            from repro.obs.propagation import TraceSampler

            self.sampler = TraceSampler(
                trace_sample, seed=trace_seed, clock=lambda: self.engine.now
            )
        from repro.ingest.broker import LogBroker

        self.broker = LogBroker(
            fault_injector=fault_injector,
            clock=lambda: self.engine.now,
        )
        #: the broker's one consumer; its stats and dead letters are what
        #: the checkpoint and the CLI report
        self.forwarder = FluentdForwarder(
            engine=self.engine,
            sink=self.store.bulk_index,
            broker=self.broker,
            flush_interval_s=flush_interval_s,
            batch_size=batch_size,
            buffer_limit=buffer_limit,
            flush_retry_limit=flush_retry_limit,
            fault_injector=fault_injector,
            journal=journal,
        )
        from repro.obs import wellknown

        self.relay = RelayStats()
        wellknown.relay_received().view(self.relay, "received")
        wellknown.relay_dropped().view(self.relay, "dropped")
        self._n_produced = 0
        #: durable runs: trace position → stable per-host offset, computed
        #: over the *full* trace in load_events
        self._event_offset: dict[int, int] = {}
        self.degrade_backlog = degrade_backlog
        self.degraded = False
        self.n_degrade_transitions = 0
        self._stage: ClassifierStage | None = None
        self._backlog_samples: list[tuple[float, int]] = []
        #: optional closed-loop controller (see :meth:`attach_controller`)
        self.controller = None
        self._degraded_override = False
        self._shed_fraction = 0.0
        self._shed_acc = 0.0
        self.n_shed = 0
        self._stage_batch_baseline: int | None = None

    def attach_classifier(self, stage: ClassifierStage) -> None:
        """Attach the classification stage before :meth:`run`."""
        self._stage = stage

    def attach_controller(self, policy=None, *, registry=None):
        """Attach the closed-loop overload controller before :meth:`run`.

        Binds the policy's levers (default:
        :func:`repro.control.default_policy`) onto this cluster's live
        objects and wires the brownout ladder into
        :meth:`apply_brownout`.  Call after :meth:`attach_classifier`
        when the policy drives stage levers.  Returns the controller.
        """
        from repro.control import controller_for_cluster, default_policy

        if policy is None:
            policy = default_policy()
        self.controller = controller_for_cluster(
            self, policy, registry=registry
        )
        return self.controller

    # -- brownout ladder actions ---------------------------------------

    def set_degrade_backlog(self, value: float) -> None:
        """Retune the degrade threshold (control lever); the recover
        threshold follows at half to preserve the hysteresis gap."""
        self.degrade_backlog = max(1, int(round(value)))

    def apply_brownout(self, old_level: int, new_level: int) -> None:
        """Apply one brownout ladder transition (rungs are absolute).

        L1 shrinks the stage drain batch to a quarter of its baseline
        (restored on full recovery), L2 forces the cheap-classify path
        regardless of the backlog hysteresis, L3 sheds a deterministic
        fraction of arrivals at accept.  Each rung includes the ones
        below it, and climbing back releases mitigations in reverse
        order.
        """
        stage = self._stage
        if stage is not None:
            if new_level >= 1:
                if self._stage_batch_baseline is None:
                    self._stage_batch_baseline = stage.batch_size
                stage.batch_size = max(1, self._stage_batch_baseline // 4)
            elif self._stage_batch_baseline is not None:
                stage.batch_size = self._stage_batch_baseline
                self._stage_batch_baseline = None
        self._degraded_override = new_level >= 2
        if new_level >= 3:
            fraction = 0.5
            if (
                self.controller is not None
                and self.controller.policy.brownout is not None
            ):
                fraction = self.controller.policy.brownout.shed_fraction
            self._shed_fraction = fraction
        else:
            self._shed_fraction = 0.0
            self._shed_acc = 0.0

    def load_events(self, events: Sequence[StreamEvent], *, skip=()) -> None:
        """Schedule every trace line for the relay to accept.

        Hosts go in sorted order and each host's lines in trace order, so
        every event keeps its ``(time, sequence number)``.  A timestamp
        already in the past (a resumed run whose clock moved on while
        the line was never offered) is clamped to *now* — delivered late
        rather than dropped or time-travelled.  ``skip`` holds trace
        positions to leave unscheduled — on a durable resume these are
        the identities the journal already saw, so a message is never
        offered twice across restarts.  ``produced`` still counts the
        full trace (conservation is stated over every generated message).
        """
        skip = set(skip)
        ordinals: dict[str, int] = {}
        by_host: dict[str, list[int]] = {}
        for i, e in enumerate(events):
            host = e.message.hostname
            if self.journal is not None:
                # stable offsets: event i's offset is its per-host ordinal
                # over the FULL trace (skipped events included), so a
                # sparse resume republishes every event at the offset it
                # had in its first life and committed offsets stay valid
                self._event_offset[i] = ordinals.get(host, 0)
                ordinals[host] = self._event_offset[i] + 1
            if i not in skip:
                by_host.setdefault(host, []).append(i)
        now = self.engine.now
        for host in sorted(by_host):
            for i in by_host[host]:
                message = events[i].message
                self.engine.schedule_at(
                    max(message.timestamp, now), partial(self._accept, i, message)
                )
        self._n_produced = len(events)

    def run(self, duration_s: float, *, sample_every_s: float = 5.0) -> IngestReport:
        """Run the simulation and return the report.

        On a resumed durable run the restored clock may already be past
        ``duration_s``; the horizon is clamped forward so the clock
        never moves backwards.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        horizon = max(duration_s, self.engine.now)
        self.forwarder.start()
        if self._stage is not None:
            self.engine.schedule(0.0, self._classifier_tick)
        self._schedule_sampler(sample_every_s, horizon)
        if self.controller is not None:
            self._schedule_controller(horizon)
        if self.journal is not None and self.checkpoint_every_s is not None:
            self.engine.every(
                self.checkpoint_every_s, self.write_checkpoint, until=horizon
            )
        self.engine.run(until=horizon)
        # snapshot at the horizon first: the settle drain below indexes
        # messages the classifier was never offered during the run, and
        # counting them into final_backlog would flip keeping_up
        indexed_at_horizon = len(self.store)
        classified = self._stage.n_done if self._stage else 0
        # settle: drain what is still buffered or still in the broker
        # (lag) into the index; a stalled partition keeps its lag and
        # the report carries it as ``broker_lag``
        drained = settle([self.forwarder])
        if self.journal is not None:
            self.write_checkpoint()
        bs = self.broker.stats
        report = IngestReport(
            duration_s=duration_s,
            produced=self._n_produced,
            relay_received=self.relay.received,
            relay_dropped=self.relay.dropped,
            indexed=indexed_at_horizon,
            classified=classified,
            final_backlog=indexed_at_horizon - classified,
            backlog_timeline=list(self._backlog_samples),
            drained=drained,
            classified_degraded=self._stage.n_degraded if self._stage else 0,
            degrade_transitions=self.n_degrade_transitions,
            broker_published=bs.published,
            broker_publish_refused=bs.publish_refused,
            broker_polled=bs.polled,
            broker_lag=self.broker.lag(self.forwarder.consumer_group),
            broker_commits_lost=bs.commits_lost,
            broker_partition_stalls=bs.stall_events,
        )
        if self.controller is not None:
            report.control_ticks = self.controller.n_ticks
            report.control_actuations = self.controller.total_actuations
            report.control_flips = self.controller.total_flips
            report.control_worker_seconds = self.controller.worker_seconds
            if self.controller.brownout is not None:
                report.brownout_level = self.controller.brownout.level
                report.brownout_changes = self.controller.brownout.n_changes
            report.shed_messages = self.n_shed
        return report

    def write_checkpoint(self):
        """Write one atomic checkpoint of this durable run's state."""
        from repro.durability.recovery import checkpoint_cluster

        return checkpoint_cluster(self)

    # -- internals ---------------------------------------------------------

    def _accept(self, idx: int, message) -> None:
        """The primary syslog relay takes trace line ``idx``.

        Brownout L3 sheds first: an accumulator spreads ``shed_fraction``
        evenly over arrivals (no RNG — replayable), counting each drop
        into ``repro_control_shed_total{reason="brownout"}``.  A kept
        line is head-sampled by its trace position — a resumed process
        (same seed) re-derives the same decisions and trace IDs, so a
        trace continues across SIGKILL — and published; a durable run
        publishes at the line's stable per-host offset.  A shed or a
        publish a stalled partition refuses is a drop, journaled as a
        ``reject`` — a recorded disposition, never republished on resume.
        """
        relay = self.relay
        relay.received += 1
        offset = None
        self._shed_acc += self._shed_fraction
        if self._shed_acc >= 1.0:
            self._shed_acc -= 1.0
            self.n_shed += 1
            from repro.obs import wellknown

            wellknown.control_shed().inc(reason="brownout")
        else:
            ctx = None
            if self.sampler is not None and self.sampler.sample_ordinal(idx):
                ctx = self.sampler.begin(idx, host=message.hostname)
            if self.journal is None:
                offset = self.broker.publish(message, ctx=ctx)
            else:
                offset = self.broker.publish(
                    message, key=message.hostname, ident=idx,
                    offset=self._event_offset[idx], ctx=ctx,
                )
        if offset is None:
            relay.dropped += 1
            if self.journal is not None:
                self.journal.reject(idx)

    def _schedule_controller(self, horizon: float) -> None:
        """Drive the controller on the simulation clock.

        The classifier-backlog gauge is refreshed immediately before
        each controller tick so the control decision never acts on a
        sampler-stale reading.  On durable runs every tick's complete
        decision state is journaled as a ``control`` WAL record right
        after it is taken — a SIGKILL between ticks resumes with the
        setpoints, ladder rung, and hysteresis the dead process held.
        """
        from repro.obs import wellknown

        controller = self.controller
        backlog_gauge = wellknown.classifier_backlog(controller.reader.registry)

        def tick() -> None:
            done = self._stage.n_done if self._stage else 0
            backlog_gauge.set(len(self.store) - done)
            controller.tick(self.engine.now)
            if self.journal is not None:
                self.journal.control_state(controller.export_state())

        self.engine.every(controller.policy.tick_every_s, tick, until=horizon)

    def _schedule_sampler(self, every: float, horizon: float) -> None:
        from repro.obs import wellknown

        backlog_gauge = wellknown.classifier_backlog()

        def sample() -> None:
            done = self._stage.n_done if self._stage else 0
            backlog = len(self.store) - done
            self._backlog_samples.append((self.engine.now, backlog))
            backlog_gauge.set(backlog)

        self.engine.every(every, sample, until=horizon)

    def _update_degraded(self, backlog: int) -> None:
        """Hysteresis between the full and cheap classification paths.

        Enter degraded mode when the backlog crosses
        ``degrade_backlog``; leave only once it has fallen back to half
        of it, so the mode cannot flap on every tick.
        Transitions are counted here and mirrored into the
        ``repro_stream_degraded_*`` families.
        """
        if self.degrade_backlog is None:
            return
        from repro.obs import wellknown

        if not self.degraded and backlog >= self.degrade_backlog:
            self.degraded = True
            self.n_degrade_transitions += 1
            wellknown.degraded_mode().set(1)
            wellknown.degraded_transitions().inc(direction="enter")
        elif self.degraded and backlog <= self.degrade_backlog // 2:
            self.degraded = False
            self.n_degrade_transitions += 1
            wellknown.degraded_mode().set(0)
            wellknown.degraded_transitions().inc(direction="exit")

    def _classifier_tick(self) -> None:
        # imported here: repro.replication imports repro.stream.opensearch,
        # whose package imports this module
        from repro.replication.store import QuorumError

        stage = self._stage
        assert stage is not None
        pending = len(self.store) - stage.n_done
        self._update_degraded(pending)
        if pending > 0:
            take = min(pending, stage.batch_size)
            try:
                docs = [self.store.get(stage.n_done + i) for i in range(take)]
            except QuorumError:
                # replicated store below read quorum: stall the stage
                # and retry once the fault window may have passed
                self.engine.schedule(
                    max(stage.service_time_s, 0.05), self._classifier_tick
                )
                return
            shed = (
                (self.degraded or self._degraded_override)
                and stage.cheap_classify_batch is not None
            )
            classify = stage.cheap_classify_batch if shed else stage.classify_batch
            if classify is not None:
                categories = classify([d.message.text for d in docs])
                for doc, cat in zip(docs, categories):
                    self.store.set_category(doc.doc_id, cat)
            if shed:
                stage.n_degraded += take
                from repro.obs import wellknown

                wellknown.degraded_messages().inc(take)
            stage.n_done += take
            service = (
                stage.degraded_service_time_s if shed else stage.service_time_s
            )
            self.engine.schedule(
                service * take / max(1, stage.n_workers),
                self._classifier_tick,
            )
        else:
            # idle poll: wake up when new documents may have arrived
            self.engine.schedule(
                max(stage.service_time_s, 0.05), self._classifier_tick
            )
