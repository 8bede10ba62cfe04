"""Vendor / architecture profiles for the heterogeneous test-bed.

Darwin (§1, [9]) mixes hardware generations and vendors; each reports
the *same* class of issue with different syntax.  A profile controls
the surface form of messages a node emits: framing, tag style, node
naming, and casing quirks.  The drift experiments additionally mutate
template text per firmware generation (see
:mod:`repro.datagen.firmware`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VendorProfile", "VENDORS"]


@dataclass(frozen=True)
class VendorProfile:
    """Surface-form conventions of one vendor/architecture family.

    Attributes
    ----------
    name:
        Short vendor key used by templates (``dell``, ``hpe``...).
    arch:
        CPU architecture of the family's nodes (feeds the
        per-architecture monitoring analysis, §4.5.3).
    node_prefix:
        Hostname prefix; nodes are ``{prefix}{index:03d}``.
    rfc5424:
        Emit RFC 5424 framing (newer firmware) instead of BSD syslog.
    uppercase_severity:
        Spell severity words in caps ("WARNING:" vs "warning:").
    kv_style:
        Report readings as ``key=value`` rather than prose.
    firmware_generation:
        Initial firmware generation (bumped by drift experiments).
    """

    name: str
    arch: str
    node_prefix: str
    rfc5424: bool = False
    uppercase_severity: bool = False
    kv_style: bool = False
    firmware_generation: int = 0

    def node_name(self, index: int) -> str:
        """Hostname of this family's ``index``-th node."""
        return f"{self.node_prefix}{index:03d}"


#: The test-bed's vendor families.  Counts and names are synthetic but
#: the *shape* (several x86 generations, POWER, ARM, GPU nodes) mirrors
#: the published Darwin configuration.
VENDORS: tuple[VendorProfile, ...] = (
    VendorProfile("dell", "x86_64-broadwell", "cn", uppercase_severity=True),
    VendorProfile("hpe", "x86_64-epyc", "ep", rfc5424=True, kv_style=True),
    VendorProfile("ibm", "ppc64le-power9", "pw", uppercase_severity=False),
    VendorProfile("arm", "aarch64-tx2", "tx", kv_style=True),
    VendorProfile("nvidia", "x86_64-a100", "gp", rfc5424=True),
    VendorProfile("supermicro", "x86_64-skylake", "sk"),
)
