"""Syslog message model and wire-format parsing.

The Darwin test-bed forwards its nodes' syslog streams (RFC 3164 "BSD
syslog" and RFC 5424 formats, depending on vendor and firmware age) to
a central relay (§4.2).  This module models a parsed message and parses
both wire formats, because the heterogeneity of framing is itself part
of what makes the corpus heterogeneous.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Severity", "Facility", "SyslogMessage"]


class Severity(enum.IntEnum):
    """RFC 5424 severity levels."""

    EMERGENCY = 0
    ALERT = 1
    CRITICAL = 2
    ERROR = 3
    WARNING = 4
    NOTICE = 5
    INFO = 6
    DEBUG = 7


class Facility(enum.IntEnum):
    """RFC 5424 facility codes (the subset seen on compute nodes)."""

    KERN = 0
    USER = 1
    DAEMON = 3
    AUTH = 4
    SYSLOG = 5
    CRON = 9
    AUTHPRIV = 10
    LOCAL0 = 16
    LOCAL1 = 17
    LOCAL2 = 18
    LOCAL3 = 19
    LOCAL4 = 20
    LOCAL5 = 21
    LOCAL6 = 22
    LOCAL7 = 23


@dataclass(frozen=True, slots=True)
class SyslogMessage:
    """A parsed syslog record.

    Attributes
    ----------
    timestamp:
        Seconds since epoch (simulation time in the event-driven
        substrate; real time when parsing live logs).
    hostname:
        Originating node name (e.g. ``cn042``).
    app:
        Application / tag (``kernel``, ``sshd``, ``slurmd`` ...).
    text:
        The free-form message body — the classification input.
    severity, facility:
        Decoded from the PRI field when present.
    pid:
        Process id from the tag, if present.
    """

    timestamp: float
    hostname: str
    app: str
    text: str
    severity: Severity = Severity.INFO
    facility: Facility = Facility.USER
    pid: int | None = None

    @property
    def pri(self) -> int:
        """RFC 5424 PRI value (facility*8 + severity)."""
        return int(self.facility) * 8 + int(self.severity)

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`.

        The durability layer (WAL records, checkpoints, dead-letter
        files) persists messages in this shape.
        """
        return {
            "ts": self.timestamp,
            "host": self.hostname,
            "app": self.app,
            "text": self.text,
            "sev": int(self.severity),
            "fac": int(self.facility),
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SyslogMessage":
        """Rebuild a message from :meth:`to_dict` output.

        Raises
        ------
        KeyError
            A required field is missing.
        ValueError
            A severity/facility code is out of range.
        """
        return cls(
            timestamp=float(data["ts"]),
            hostname=str(data["host"]),
            app=str(data["app"]),
            text=str(data["text"]),
            severity=Severity(int(data.get("sev", Severity.INFO))),
            facility=Facility(int(data.get("fac", Facility.USER))),
            pid=data.get("pid"),
        )

    def to_rfc3164(self) -> str:
        """Render in BSD-syslog framing (no year, local timestamp)."""
        from repro.stream.rfc import format_rfc3164

        return format_rfc3164(self)

    def to_rfc5424(self) -> str:
        """Render in RFC 5424 framing."""
        from repro.stream.rfc import format_rfc5424

        return format_rfc5424(self)
