"""Unit + property tests for the syslog message model and parsers."""

import pytest
from hypothesis import given, strategies as st

from repro.core.message import Facility, Severity, SyslogMessage
from repro.stream.rfc import parse_line


def make(
    ts=3600.0,
    host="cn001",
    app="kernel",
    text="CPU0 throttled",
    sev=Severity.WARNING,
    fac=Facility.KERN,
    pid=1234,
):
    return SyslogMessage(
        timestamp=ts, hostname=host, app=app, text=text,
        severity=sev, facility=fac, pid=pid,
    )


class TestModel:
    def test_pri_encoding(self):
        m = make(sev=Severity.WARNING, fac=Facility.KERN)
        assert m.pri == 0 * 8 + 4

    def test_pri_authpriv_info(self):
        m = make(sev=Severity.INFO, fac=Facility.AUTHPRIV)
        assert m.pri == 10 * 8 + 6

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make().timestamp = 0.0


class TestRendering:
    def test_rfc3164_shape(self):
        line = make().to_rfc3164()
        assert line.startswith("<4>")
        assert "cn001 kernel[1234]: CPU0 throttled" in line

    def test_rfc3164_no_pid(self):
        m = make(pid=None)
        assert "kernel:" in m.to_rfc3164()

    def test_rfc5424_shape(self):
        line = make().to_rfc5424()
        assert line.startswith("<4>1 ")
        assert " cn001 kernel 1234 - - CPU0 throttled" in line


class TestParsing:
    def test_parse_rfc3164(self):
        m = parse_line("<4>Oct 12 23:34:04 sk036 kernel[159]: CPU throttled")
        assert m.hostname == "sk036"
        assert m.app == "kernel"
        assert m.pid == 159
        assert m.severity is Severity.WARNING
        assert m.text == "CPU throttled"

    def test_parse_rfc3164_no_pri(self):
        m = parse_line("Jan  1 00:00:01 cn001 sshd: Connection closed")
        assert m.severity is Severity.INFO
        assert m.app == "sshd"

    def test_parse_rfc5424(self):
        m = parse_line(
            "<86>1 2023-02-03T10:20:30Z ep004 sshd 991 - - Accepted publickey"
        )
        assert m.hostname == "ep004"
        assert m.app == "sshd"
        assert m.pid == 991
        assert m.facility is Facility.AUTHPRIV
        assert m.text == "Accepted publickey"

    def test_parse_rfc5424_nil_pid(self):
        m = parse_line("<14>1 2023-01-01T00:00:00Z h a - - - body text")
        assert m.pid is None

    def test_invalid_pri_raises(self):
        with pytest.raises(ValueError, match="PRI"):
            parse_line("<999>Oct 12 00:00:00 h app: text")

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_line("not a syslog line at all")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            parse_line("")


class TestRoundTrip:
    @given(
        ts=st.floats(min_value=0, max_value=300 * 86400 - 1),
        sev=st.sampled_from(list(Severity)),
        fac=st.sampled_from(list(Facility)),
        pid=st.one_of(st.none(), st.integers(min_value=1, max_value=99999)),
        text=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
            min_size=1, max_size=60,
        ),
    )
    def test_rfc3164_roundtrip(self, ts, sev, fac, pid, text):
        m = SyslogMessage(
            timestamp=ts, hostname="cn007", app="testapp", text=text,
            severity=sev, facility=fac, pid=pid,
        )
        back = parse_line(m.to_rfc3164())
        assert back.hostname == m.hostname
        assert back.app == m.app
        assert back.text == m.text
        assert back.severity == m.severity
        assert back.pid == m.pid
        # BSD timestamps have 1-second resolution
        assert abs(back.timestamp - int(m.timestamp)) < 1.0

    @given(
        ts=st.floats(min_value=0, max_value=300 * 86400 - 1),
        sev=st.sampled_from(list(Severity)),
        pid=st.one_of(st.none(), st.integers(min_value=1, max_value=99999)),
        text=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
            min_size=1, max_size=60,
        ),
    )
    def test_rfc5424_roundtrip(self, ts, sev, pid, text):
        m = SyslogMessage(
            timestamp=ts, hostname="ep001", app="slurmd", text=text,
            severity=sev, facility=Facility.DAEMON, pid=pid,
        )
        back = parse_line(m.to_rfc5424())
        assert back.hostname == m.hostname
        assert back.text == m.text
        assert back.pid == m.pid
        assert abs(back.timestamp - int(m.timestamp)) < 1.0
