"""Network ingest: syslog listener + partitioned log broker.

The spine between noisy senders and the consumers that drain them:

- :mod:`repro.ingest.listener` — :class:`SyslogListener`, an asyncio
  UDP/TCP front door parsing RFC 3164/5424 wire lines, with DLQ
  quarantine for hostile input and per-tenant fair-share admission
  (:mod:`repro.ingest.quota`) as its one load-shedding valve;
- :mod:`repro.ingest.broker` — :class:`LogBroker`, per-host
  partitions of append-only segments with one-consumer groups
  and committed offsets.  Offsets ride the :mod:`repro.durability`
  journal, so a crashed consumer resumes with zero acked-message loss.

Fault sites ``ingest.accept_drop``, ``broker.partition_stall`` and
``broker.commit_lost`` (see :mod:`repro.faults`) exercise the layer's
failure modes; everything is counted through ``repro_ingest_*`` /
``repro_broker_*`` metric families.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "broker": (
        "BrokerRecord", "BrokerStats", "ConsumerGroup", "LogBroker", "Partition", "RecordBatch",
    ),
    "listener": ("ListenerStats", "SyslogListener"),
    "quota": ("DeficitRoundRobin",),
})
