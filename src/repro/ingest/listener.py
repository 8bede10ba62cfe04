"""Asyncio syslog listener: UDP datagrams and newline-framed TCP.

The real Tivan front door (§4.2) is a syslog relay accepting RFC 3164
and RFC 5424 wire lines from every node on the cluster.  This listener
is that front door: an :mod:`asyncio` UDP endpoint plus a TCP server,
parsing each line through :func:`repro.stream.rfc.safe_parse_line`
(total — hostile input is quarantined, never raised) and publishing
accepted messages into a :class:`~repro.ingest.broker.LogBroker`.

The accept path, in order, is:

1. ``ingest.accept_drop`` fault site — a simulated NIC-queue drop,
   counted into ``accept_dropped``;
2. **size cap** — oversize lines are quarantined to the DLQ;
3. **parse** — unparseable lines are quarantined to the DLQ with the
   parser's reason string;
4. **admission** — when a :class:`~repro.ingest.quota.DeficitRoundRobin`
   is attached (the door's one admission valve), the parsed message's
   host/app key draws from its tenant's fair share; over it the line
   is shed (``shed``, reason ``fair_share`` per tenant) without
   starving compliant tenants, and the sender is never blocked
   (syslog's fire-and-forget contract).  The key needs a parsed
   message, which is why this gate sits after parse;
5. **publish** — per chunk, not per line: the lines of one TCP
   ``data_received`` chunk that passed steps 1–4 go to
   :meth:`~repro.ingest.broker.LogBroker.publish_many` in one call (a
   UDP datagram is a chunk of one).  A line the broker refuses (a
   stalled partition) is quarantined; only a published line counts as
   ``accepted``.

No branch is silent: every received line ends in exactly one of
``accepted``, ``shed``, ``accept_dropped``, ``oversize``,
``parse_errors`` or ``publish_refused`` (see
:meth:`ListenerStats.accounted`).  Trace sampling is keyed by the
ordinal of lines past step 4, which equals ``accepted`` on a run with
no refusals.

Metrics are synchronised to the registry in batches (every
``_SYNC_EVERY`` lines and on ``stop``): at the ≥50k msgs/s rates the
benchmark holds this path to, per-line registry increments would be
the bottleneck.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

from repro.faults.dlq import DeadLetterQueue
from repro.faults.plan import SITE_ACCEPT_DROP, FaultInjector
from repro.ingest.broker import LogBroker
from repro.ingest.quota import DeficitRoundRobin
from repro.obs import wellknown
from repro.stream.rfc import MAX_LINE_BYTES, safe_parse_line

__all__ = ["ListenerStats", "SyslogListener"]

#: where parse/oversize/publish quarantines land in the DLQ
SITE_INGEST_PARSE = "ingest.parse"
SITE_INGEST_PUBLISH = "ingest.publish"

_SYNC_EVERY = 1024


@dataclass
class ListenerStats:
    """Per-listener counts; every received line lands in exactly one bin."""

    received_udp: int = 0
    received_tcp: int = 0
    accepted: int = 0
    shed: int = 0
    #: always 0 — a quota shed counts into ``shed``; kept only because
    #: the spine benchmark adds it to ``shed``
    tenant_shed: int = 0
    accept_dropped: int = 0
    oversize: int = 0
    parse_errors: int = 0
    publish_refused: int = 0

    @property
    def received(self) -> int:
        return self.received_udp + self.received_tcp

    def accounted(self) -> bool:
        """The no-silent-loss check: bins sum back to received."""
        return self.received == (
            self.accepted + self.shed + self.accept_dropped + self.oversize
            + self.parse_errors + self.publish_refused
        )


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, listener: "SyslogListener") -> None:
        self._listener = listener

    def datagram_received(self, data: bytes, addr) -> None:
        self._listener._handle_line(data, udp=True)


class SyslogListener:
    """UDP + TCP syslog intake feeding a partitioned log broker.

    Parameters
    ----------
    broker:
        Accepted messages are published here.  ``None`` is allowed for
        parse-only use (the benchmark's listener-alone lane).
    udp_port, tcp_port:
        Port to bind (0 = ephemeral, ``None`` = transport disabled).
    tenant_quota:
        Optional :class:`~repro.ingest.quota.DeficitRoundRobin`, the
        door's admission valve: parsed messages draw admission from
        their tenant's (host/app) fair share of its rate; over-quota
        lines land in ``shed``, broken down per tenant in
        reason-labelled counters.  ``None`` admits every parsed line.
    max_line_bytes:
        Size cap; longer input is quarantined, not truncated.
    on_message:
        Optional tap called with each accepted :class:`SyslogMessage`.
    trace_sampler:
        Optional :class:`~repro.obs.propagation.TraceSampler`; sampled
        admits start a cross-hop trace (keyed by the admit ordinal)
        whose context rides the broker record downstream.
    """

    def __init__(
        self,
        broker: LogBroker | None = None,
        *,
        host: str = "127.0.0.1",
        udp_port: int | None = 0,
        tcp_port: int | None = 0,
        tenant_quota: DeficitRoundRobin | None = None,
        max_line_bytes: int = MAX_LINE_BYTES,
        fault_injector: FaultInjector | None = None,
        dead_letters: DeadLetterQueue | None = None,
        on_message=None,
        registry=None,
        trace_sampler=None,
    ) -> None:
        self.broker = broker
        self.host = host
        self.udp_port = udp_port
        self.tcp_port = tcp_port
        self.max_line_bytes = max_line_bytes
        self.injector = fault_injector
        self.dead_letters = dead_letters if dead_letters is not None else DeadLetterQueue()
        self.on_message = on_message
        self.trace_sampler = trace_sampler
        #: lines past the quota so far — the sampler's ordinal; equal to
        #: ``stats.accepted`` until the broker refuses a publish
        self._admitted = 0
        # the next admit ordinal the sampler will trace (inf: never):
        # the untraced majority costs one int comparison on admit
        self._next_traced = (
            trace_sampler.next_sampled_after(0)
            if trace_sampler is not None else float("inf")
        )
        self.quota = tenant_quota
        self.stats = ListenerStats()
        self.udp_address: tuple[str, int] | None = None
        self.tcp_address: tuple[str, int] | None = None
        self._udp_transport = None
        self._tcp_server: asyncio.Server | None = None
        self._tcp_tasks: set[asyncio.Task] = set()
        self._since_sync = 0
        self._synced = ListenerStats()
        self._m_received = wellknown.ingest_received(registry)
        self._m_accepted = wellknown.ingest_accepted(registry)
        self._m_shed = wellknown.ingest_shed(registry)
        self._m_accept_dropped = wellknown.ingest_accept_dropped(registry)
        self._m_parse_errors = wellknown.ingest_parse_errors(registry)
        self._m_oversize = wellknown.ingest_oversize(registry)
        self._m_publish_refused = wellknown.ingest_publish_refused(registry)
        self._m_tenant_received = wellknown.ingest_tenant_received(registry)
        self._m_tenant_accepted = wellknown.ingest_tenant_accepted(registry)
        self._m_tenant_shed = wellknown.ingest_tenant_shed(registry)
        self._m_tenants_active = wellknown.ingest_tenants_active(registry)
        # per-tenant [received, accepted, shed] deltas, flushed with the
        # batched sync — per-line labelled increments would be the
        # hot-path bottleneck the batching exists to avoid
        self._tenant_pending: dict[str, list[int]] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the enabled transports; addresses land in
        :attr:`udp_address` / :attr:`tcp_address`."""
        loop = asyncio.get_running_loop()
        if self.udp_port is not None:
            self._udp_transport, _ = await loop.create_datagram_endpoint(
                lambda: _UdpProtocol(self), local_addr=(self.host, self.udp_port)
            )
            sock = self._udp_transport.get_extra_info("sockname")
            self.udp_address = (sock[0], sock[1])
        if self.tcp_port is not None:
            self._tcp_server = await asyncio.start_server(
                self._serve_tcp, self.host, self.tcp_port
            )
            sock = self._tcp_server.sockets[0].getsockname()
            self.tcp_address = (sock[0], sock[1])

    async def stop(self) -> None:
        """Close transports, drain TCP connections, flush metrics."""
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in list(self._tcp_tasks):
            task.cancel()
        if self._tcp_tasks:
            await asyncio.gather(*self._tcp_tasks, return_exceptions=True)
        self._sync_metrics()

    # -- transports ----------------------------------------------------

    async def _serve_tcp(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        if task is not None:
            self._tcp_tasks.add(task)
            task.add_done_callback(self._tcp_tasks.discard)
        buf = b""
        # a line that outgrows the cap is quarantined once, then bytes
        # are discarded until its newline finally arrives
        skipping = False
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                # one split per chunk: slicing the buffer once per line
                # would copy its remainder once per line
                lines = chunk.split(b"\n")
                lines[0] = buf + lines[0]
                buf = lines.pop()  # unterminated tail, b"" after a newline
                # the chunk's admitted lines go to the broker in one call
                messages: list = []
                ctxs: list = []
                for line in lines:
                    if skipping:
                        skipping = False  # the oversize line's newline
                    elif line:
                        self._admit(line, "tcp", messages, ctxs)
                if messages:
                    self._publish(messages, ctxs, "tcp")
                if skipping:
                    buf = b""
                elif len(buf) > self.max_line_bytes:
                    self._handle_line(buf, udp=False)  # counted oversize
                    buf = b""
                    skipping = True
            if buf and not skipping:
                self._handle_line(buf, udp=False)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()

    # -- the accept path -----------------------------------------------

    def _handle_line(self, raw: bytes, *, udp: bool) -> None:
        """The whole accept path for one line: a batch of one."""
        transport = "udp" if udp else "tcp"
        messages: list = []
        ctxs: list = []
        self._admit(raw, transport, messages, ctxs)
        if messages:
            self._publish(messages, ctxs, transport)

    def _admit(self, raw: bytes, transport: str, messages: list, ctxs: list) -> None:
        """Steps 1–4 for one line; an admitted line joins ``messages``,
        its trace context (or ``None``) ``ctxs``."""
        stats = self.stats
        if transport == "udp":
            stats.received_udp += 1
        else:
            stats.received_tcp += 1
        self._since_sync += 1
        if self._since_sync >= _SYNC_EVERY:
            self._sync_metrics()
        if self.injector is not None and self.injector.should_fire(SITE_ACCEPT_DROP):
            stats.accept_dropped += 1
            return
        if len(raw) > self.max_line_bytes:
            stats.oversize += 1
            self.dead_letters.push(
                SITE_INGEST_PARSE,
                raw[:256].decode("utf-8", errors="replace"),
                f"oversize: {len(raw)} bytes > {self.max_line_bytes}",
                transport=transport,
            )
            return
        # the size cap was checked just above, on these very bytes
        message, error = safe_parse_line(raw, max_bytes=None)
        if message is None:
            stats.parse_errors += 1
            self.dead_letters.push(
                SITE_INGEST_PARSE,
                raw[:256].decode("utf-8", errors="replace"),
                error or "unparseable",
                transport=transport,
            )
            return
        if self.quota is not None:
            tenant = f"{message.hostname}/{message.app}"
            pending = self._tenant_pending.get(tenant)
            if pending is None:
                pending = self._tenant_pending[tenant] = [0, 0, 0]
            pending[0] += 1
            if not self.quota.allow(tenant):
                stats.shed += 1
                pending[2] += 1
                return
            pending[1] += 1
        self._admitted += 1
        ctx = None
        # keyed by the admit ordinal: deterministic under a fixed
        # seed, so replays re-trace the same messages
        if self._admitted >= self._next_traced:
            sampler = self.trace_sampler
            ctx = sampler.begin(
                self._admitted,
                proto=transport,
                host=message.hostname,
            )
            self._next_traced = sampler.next_sampled_after(self._admitted)
        messages.append(message)
        ctxs.append(ctx)

    def _publish(self, messages: list, ctxs: list, transport: str) -> None:
        """Step 5 for a batch of admitted lines: one broker call.  A
        line the broker refuses is quarantined; the rest are accepted."""
        accepted = messages
        if self.broker is not None:
            records = self.broker.publish_many(messages, ctxs=ctxs)
            refused = [m for m, r in zip(messages, records) if r is None]
            if refused:
                self.stats.publish_refused += len(refused)
                for message in refused:
                    self.dead_letters.push(
                        SITE_INGEST_PUBLISH, message, "broker partition stalled",
                        transport=transport,
                    )
                accepted = [m for m, r in zip(messages, records) if r is not None]
        self.stats.accepted += len(accepted)
        if self.on_message is not None:
            for message in accepted:
                self.on_message(message)

    # -- metrics -------------------------------------------------------

    def sync_metrics(self) -> None:
        """Flush pending stat deltas to the registry now.

        The accept path batches registry writes every ``_SYNC_EVERY``
        lines; a serving loop with a live ``/metrics`` endpoint calls
        this periodically so scrapes see trickle traffic too.
        """
        self._sync_metrics()

    def _sync_metrics(self) -> None:
        """Publish the delta since the last sync into the registry."""
        s, prev = self.stats, self._synced
        if s.received_udp > prev.received_udp:
            self._m_received.inc(s.received_udp - prev.received_udp, proto="udp")
        if s.received_tcp > prev.received_tcp:
            self._m_received.inc(s.received_tcp - prev.received_tcp, proto="tcp")
        for attr, metric in (
            ("accepted", self._m_accepted),
            ("shed", self._m_shed),
            ("accept_dropped", self._m_accept_dropped),
            ("oversize", self._m_oversize),
            ("parse_errors", self._m_parse_errors),
            ("publish_refused", self._m_publish_refused),
        ):
            delta = getattr(s, attr) - getattr(prev, attr)
            if delta:
                metric.inc(delta)
        if self._tenant_pending:
            for tenant, (received, accepted, shed) in self._tenant_pending.items():
                if received:
                    self._m_tenant_received.inc(received, tenant=tenant)
                if accepted:
                    self._m_tenant_accepted.inc(accepted, tenant=tenant)
                if shed:
                    self._m_tenant_shed.inc(
                        shed, tenant=tenant, reason="fair_share"
                    )
            self._tenant_pending.clear()
        if self.quota is not None:
            self._m_tenants_active.set(len(self.quota))
        self._synced = replace(s)
        self._since_sync = 0
