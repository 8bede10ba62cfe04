"""Asyncio syslog listener: UDP datagrams and newline-framed TCP.

The real Tivan front door (§4.2) is a syslog relay accepting RFC 3164
and RFC 5424 wire lines from every node on the cluster.  This listener
is that front door: an :mod:`asyncio` UDP endpoint plus a TCP server
whose per-connection protocol handles each chunk in the callback that
delivers it, parsing each line through :func:`repro.stream.rfc.safe_parse_line`
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
   chunk that passed steps 1–4 go to
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

The ``repro_ingest_*`` counters are views of :class:`ListenerStats`
and of the per-tenant counts: a scrape reads them as they stand, and
the accept path writes no metric.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

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


def _by_proto(stats: ListenerStats) -> dict:
    return {"udp": stats.received_udp, "tcp": stats.received_tcp}


def _per_tenant(column: int, *labels: str):
    """A reader of one column of :attr:`SyslogListener.tenants`."""
    return lambda tenants: {(t, *labels): n[column] for t, n in list(tenants.items())}


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, listener: "SyslogListener") -> None:
        self._listener = listener

    def datagram_received(self, data: bytes, addr) -> None:
        self._listener._handle_line(data, udp=True)


class _TcpProtocol(asyncio.Protocol):
    """One TCP peer: each chunk is framed, admitted and published in the
    callback that delivers it — no reader, no task, no wake-up per chunk.

    ``buf`` is the peer's unterminated tail; ``skipping`` is set while
    the bytes of a line that outgrew the cap (quarantined once) are
    dropped until its newline.  A peer that ends its stream (EOF) has
    its tail taken as a last line; a connection lost without EOF (a
    reset, the listener stopping) drops it.
    """

    def __init__(self, listener: "SyslogListener") -> None:
        self._listener = listener
        self.transport = None
        self.buf = b""
        self.skipping = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._listener._tcp_peers.add(self)

    def data_received(self, data: bytes) -> None:
        self._listener._receive_tcp(self, data)

    def eof_received(self) -> None:
        if self.buf and not self.skipping:
            self._listener._handle_line(self.buf, udp=False)
        self.buf = b""
        # returning None closes the transport

    def connection_lost(self, exc) -> None:
        self._listener._tcp_peers.discard(self)


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
        self._tcp_peers: set[_TcpProtocol] = set()
        #: per tenant (host/app) behind the quota: [received, accepted, shed]
        self.tenants: dict[str, list[int]] = {}
        stats, tenants = self.stats, self.tenants
        wellknown.ingest_received(registry).view(stats, _by_proto)
        for family, field in (
            (wellknown.ingest_accepted, "accepted"), (wellknown.ingest_shed, "shed"),
            (wellknown.ingest_accept_dropped, "accept_dropped"),
            (wellknown.ingest_parse_errors, "parse_errors"),
            (wellknown.ingest_oversize, "oversize"),
            (wellknown.ingest_publish_refused, "publish_refused"),
        ):
            family(registry).view(stats, field)
        wellknown.ingest_tenant_received(registry).view(tenants, _per_tenant(0))
        wellknown.ingest_tenant_accepted(registry).view(tenants, _per_tenant(1))
        wellknown.ingest_tenant_shed(registry).view(tenants, _per_tenant(2, "fair_share"))
        active = wellknown.ingest_tenants_active(registry)
        if tenant_quota is not None:
            active.view(tenant_quota, len)

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
            self._tcp_server = await loop.create_server(
                lambda: _TcpProtocol(self), self.host, self.tcp_port
            )
            sock = self._tcp_server.sockets[0].getsockname()
            self.tcp_address = (sock[0], sock[1])

    async def stop(self) -> None:
        """Close transports and drain TCP connections."""
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            for peer in list(self._tcp_peers):
                peer.transport.close()  # an open peer's tail is dropped
            await self._tcp_server.wait_closed()
            self._tcp_server = None

    # -- transports ----------------------------------------------------

    def _receive_tcp(self, peer: _TcpProtocol, chunk: bytes) -> None:
        """Steps 1–5 for one chunk of a peer's stream."""
        # one split per chunk: slicing the buffer once per line would
        # copy its remainder once per line
        lines = chunk.split(b"\n")
        lines[0] = peer.buf + lines[0]
        buf = lines.pop()  # unterminated tail, b"" after a newline
        skipping = peer.skipping
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
            # a line that outgrows the cap is quarantined once, then its
            # bytes are dropped until its newline finally arrives
            self._handle_line(buf, udp=False)  # counted oversize
            buf = b""
            skipping = True
        peer.buf, peer.skipping = buf, skipping

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
            counts = self.tenants.get(tenant)
            if counts is None:
                counts = self.tenants[tenant] = [0, 0, 0]
            counts[0] += 1
            if not self.quota.allow(tenant):
                stats.shed += 1
                counts[2] += 1
                return
            counts[1] += 1
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
            offsets = self.broker.publish_many(messages, ctxs=ctxs)
            if None in offsets:
                refused = [m for m, o in zip(messages, offsets) if o is None]
                self.stats.publish_refused += len(refused)
                for message in refused:
                    self.dead_letters.push(
                        SITE_INGEST_PUBLISH, message, "broker partition stalled",
                        transport=transport,
                    )
                accepted = [m for m, o in zip(messages, offsets) if o is not None]
        self.stats.accepted += len(accepted)
        if self.on_message is not None:
            for message in accepted:
                self.on_message(message)
