"""Feeding a forwarder in a test: publish to its broker, then poll.

A :class:`~repro.ingest.broker.LogBroker` is the forwarder's only
intake, so the forwarder unit tests build theirs through
:func:`fed_forwarder`.  The broker has one partition, so the buffer
holds the messages in the order they were published.
"""

from repro.ingest.broker import LogBroker
from repro.stream.events import EventEngine
from repro.stream.fluentd import FluentdForwarder


def fed_forwarder(messages=(), **kw) -> FluentdForwarder:
    """A forwarder on a one-partition broker of its own, with ``messages``
    published and polled into its buffer (at most its free room)."""
    kw.setdefault("engine", EventEngine())
    fwd = FluentdForwarder(broker=LogBroker(), **kw)
    feed(fwd, messages)
    return fwd


def feed(fwd: FluentdForwarder, messages) -> int:
    """Publish ``messages`` to ``fwd``'s broker, then poll once; returns
    the records taken (a full buffer leaves the rest as broker lag)."""
    for m in messages:
        fwd.broker.publish(m, key="p000")
    return fwd.poll_broker()
