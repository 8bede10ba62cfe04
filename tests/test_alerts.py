"""Unit tests for alert routing."""

from repro.core.alerts import AlertRouter, AlertRule, EmailSink
from repro.core.message import Severity
from repro.core.taxonomy import TAXONOMY, Category


def route_args(t=0.0, host="cn001", text="CPU throttled", sev=Severity.WARNING):
    return dict(timestamp=t, hostname=host, text=text, severity=sev)


class TestAlertRule:
    def test_fires_and_delivers(self):
        alerts = []
        rule = AlertRule(category=Category.THERMAL, sink=alerts.append)
        assert rule.consider(**route_args())
        assert len(alerts) == 1
        assert alerts[0].category is Category.THERMAL
        assert alerts[0].action_hint == TAXONOMY[Category.THERMAL].action

    def test_cooldown_suppresses_repeats(self):
        alerts = []
        rule = AlertRule(category=Category.THERMAL, sink=alerts.append, cooldown_s=300)
        rule.consider(**route_args(t=0.0))
        assert not rule.consider(**route_args(t=10.0))
        assert rule.n_suppressed == 1
        assert len(alerts) == 1

    def test_cooldown_is_per_host(self):
        alerts = []
        rule = AlertRule(category=Category.THERMAL, sink=alerts.append, cooldown_s=300)
        rule.consider(**route_args(t=0.0, host="a"))
        assert rule.consider(**route_args(t=1.0, host="b"))

    def test_cooldown_expires(self):
        alerts = []
        rule = AlertRule(category=Category.THERMAL, sink=alerts.append, cooldown_s=60)
        rule.consider(**route_args(t=0.0))
        assert rule.consider(**route_args(t=61.0))

    def test_severity_gate(self):
        alerts = []
        rule = AlertRule(
            category=Category.THERMAL, sink=alerts.append, min_severity=Severity.ERROR
        )
        # WARNING (4) is less urgent than ERROR (3): no alert
        assert not rule.consider(**route_args(sev=Severity.WARNING))
        assert rule.consider(**route_args(sev=Severity.CRITICAL))


class TestAlertRouter:
    def test_with_defaults_excludes_unimportant(self):
        alerts = []
        router = AlertRouter.with_defaults(alerts.append)
        fired = router.route(Category.UNIMPORTANT, **route_args())
        assert fired == 0
        fired = router.route(Category.MEMORY, **route_args(text="OOM"))
        assert fired == 1

    def test_multiple_rules_per_category(self):
        a, b = [], []
        router = AlertRouter()
        router.add_rule(AlertRule(category=Category.USB, sink=a.append))
        router.add_rule(AlertRule(category=Category.USB, sink=b.append))
        fired = router.route(Category.USB, **route_args(text="usb attach"))
        assert fired == 2 and a and b

    def test_unrouted_category_is_noop(self):
        router = AlertRouter()
        assert router.route(Category.SLURM, **route_args()) == 0


class TestEmailSink:
    def test_renders_rfc822ish(self):
        sink = EmailSink(to_addr="ops@example.gov")
        rule = AlertRule(category=Category.THERMAL, sink=sink)
        rule.consider(**route_args(host="gp003", text="GPU overheating"))
        mail = sink.outbox[0]
        assert "To: ops@example.gov" in mail
        assert "[Thermal Issue] on gp003" in mail
        assert "GPU overheating" in mail
        assert "Suggested action:" in mail
