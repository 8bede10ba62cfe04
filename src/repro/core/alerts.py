"""Per-category alert routing.

§3: "The issue categories could be set to trigger a notification email
when a new message within that category has been identified."  The
router fires a rule's sink when a classified message lands in its
category, with per-rule rate limiting (a thermal runaway produces
thousands of messages — the admin needs one email, not thousands) and
severity gating.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.message import Severity
from repro.core.taxonomy import TAXONOMY, Category

__all__ = ["Alert", "AlertRule", "AlertRouter", "EmailSink"]


@dataclass(frozen=True)
class Alert:
    """One raised notification."""

    timestamp: float
    category: Category
    hostname: str
    text: str
    action_hint: str


class EmailSink:
    """Simulated notification-email sink.

    Renders each alert as an RFC-822-ish text blob appended to an
    outbox list — the shape the production system hands to sendmail.
    """

    def __init__(self, to_addr: str = "hpc-admins@example.gov") -> None:
        self.to_addr = to_addr
        self.outbox: list[str] = []

    def __call__(self, alert: Alert) -> None:
        self.outbox.append(
            f"To: {self.to_addr}\n"
            f"Subject: [{alert.category.value}] on {alert.hostname}\n\n"
            f"At t={alert.timestamp:.1f}s node {alert.hostname} reported:\n"
            f"    {alert.text}\n\n"
            f"Suggested action: {alert.action_hint}\n"
        )


@dataclass
class AlertRule:
    """Routing rule for one category.

    Parameters
    ----------
    category:
        The category this rule watches.
    sink:
        Callable receiving :class:`Alert` objects.
    min_severity:
        Only messages at this severity or more urgent fire (note
        syslog severities are *lower* numbers for *more* urgent).
    cooldown_s:
        Minimum simulated-time gap between alerts per hostname.
    """

    category: Category
    sink: Callable[[Alert], None]
    min_severity: Severity = Severity.DEBUG
    cooldown_s: float = 300.0

    _last_fired: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    n_fired: int = field(default=0, init=False)
    n_suppressed: int = field(default=0, init=False)

    def consider(
        self, *, timestamp: float, hostname: str, text: str, severity: Severity
    ) -> bool:
        """Fire the sink if severity and cooldown allow; returns fired?"""
        if severity > self.min_severity:
            return False
        last = self._last_fired.get(hostname)
        if last is not None and timestamp - last < self.cooldown_s:
            self.n_suppressed += 1
            return False
        self._last_fired[hostname] = timestamp
        self.n_fired += 1
        self.sink(
            Alert(
                timestamp=timestamp,
                category=self.category,
                hostname=hostname,
                text=text,
                action_hint=TAXONOMY[self.category].action,
            )
        )
        return True


class AlertRouter:
    """Dispatches classified messages to category rules."""

    def __init__(self) -> None:
        self._rules: dict[Category, list[AlertRule]] = {}

    def add_rule(self, rule: AlertRule) -> None:
        """Register a rule for its category."""
        self._rules.setdefault(rule.category, []).append(rule)

    @classmethod
    def with_defaults(cls, sink: Callable[[Alert], None]) -> "AlertRouter":
        """Router alerting on every actionable category (not Unimportant)."""
        router = cls()
        for cat, spec in TAXONOMY.items():
            if spec.alert_default:
                router.add_rule(AlertRule(category=cat, sink=sink))
        return router

    def route(
        self,
        category: Category,
        *,
        timestamp: float,
        hostname: str,
        text: str,
        severity: Severity = Severity.INFO,
    ) -> int:
        """Offer one classified message; returns number of rules fired."""
        fired = 0
        for rule in self._rules.get(category, ()):
            if rule.consider(
                timestamp=timestamp, hostname=hostname, text=text, severity=severity
            ):
                fired += 1
        return fired
