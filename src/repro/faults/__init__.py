"""Fault injection and resilience machinery.

The paper pitches Tivan as always-on cluster monitoring; an always-on
pipeline must survive faults, not just benchmarks.  This package is
the reproduction's failure-as-common-case layer:

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultInjector`,
  deterministic seedable fault injection at named sites (flush
  failure, poison message, process crash, store and broker faults),
- :mod:`repro.faults.dlq` — :class:`DeadLetterQueue`, the no-silent-loss
  backstop: condemned messages are parked with their exception context
  instead of vanishing.

The resilience these exercise lives in the layers themselves: the
Fluentd forwarder retries
flushes under a bounded budget and dead-letters a batch that exhausts
it (a slow consumer is broker lag, not an overflow), the
classification pipeline quarantines poison messages per-message, and
the Tivan cluster sheds load to the cheap blacklist path when the
classifier backlog crosses a threshold.  Everything is counted through
:mod:`repro.obs` (``repro_faults_*`` families).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "dlq": ("DeadLetter", "DeadLetterQueue"),
    "plan": (
        "KNOWN_SITES", "SITE_ACCEPT_DROP", "SITE_COMMIT_LOST", "SITE_CRASH",
        "SITE_FLUSH_FAIL", "SITE_NODE_DOWN", "SITE_NODE_SLOW", "SITE_PARTITION",
        "SITE_PARTITION_STALL", "SITE_POISON", "FaultInjector", "FaultPlan",
        "FaultSpec", "FireRecord", "InjectedFault",
    ),
})
