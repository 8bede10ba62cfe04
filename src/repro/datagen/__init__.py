"""Synthetic heterogeneous test-bed syslog corpus.

The paper's dataset is ~196k unique messages from LANL's Darwin
test-bed, labelled via a year of Levenshtein bucketing (§4.4) — data we
cannot ship.  This package generates a behaviourally equivalent corpus:

- per-**vendor** message templates (``repro.datagen.templates``) so the
  same issue is phrased differently across the test-bed's architectures
  — the heterogeneity that motivates the paper,
- parameter slots (node ids, temperatures, ports, hex ids...) giving
  the uniqueness and volume of real logs,
- class imbalance matching Table 2 (``repro.datagen.generator``),
- **firmware drift** mutations (``repro.datagen.firmware``) reproducing
  the §3 failure mode where message syntax shifts over time, and
- arrival processes (``repro.datagen.workload``) with incident bursts
  for the streaming / monitoring experiments.
"""

from repro.datagen.vendors import VendorProfile, VENDORS
from repro.datagen.templates import MessageTemplate, TEMPLATES, templates_for
from repro.datagen.generator import CorpusGenerator, LabeledCorpus, TABLE2_COUNTS
from repro.datagen.firmware import FirmwareDrift, DriftedTemplateSet
from repro.datagen.sessions import SessionGenerator, LabeledSession, SessionKind
from repro.datagen.newcomer import NEWCOMER_VENDOR, NEWCOMER_TEMPLATES, generate_newcomer_messages
from repro.datagen.telemetry import (
    TelemetrySample,
    TelemetryGenerator,
    FaultySensor,
    RackHeat,
    FamilyQuirk,
)
from repro.datagen.workload import (
    ArrivalProcess,
    PoissonArrivals,
    BurstArrivals,
    Incident,
    StreamEvent,
    generate_stream,
)
from repro.datagen.sender import render_event, wire_lines, send_udp, send_tcp

__all__ = [
    "VendorProfile",
    "VENDORS",
    "MessageTemplate",
    "TEMPLATES",
    "templates_for",
    "CorpusGenerator",
    "LabeledCorpus",
    "TABLE2_COUNTS",
    "FirmwareDrift",
    "DriftedTemplateSet",
    "SessionGenerator",
    "LabeledSession",
    "SessionKind",
    "NEWCOMER_VENDOR",
    "NEWCOMER_TEMPLATES",
    "generate_newcomer_messages",
    "TelemetrySample",
    "TelemetryGenerator",
    "FaultySensor",
    "RackHeat",
    "FamilyQuirk",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstArrivals",
    "Incident",
    "StreamEvent",
    "generate_stream",
    "render_event",
    "wire_lines",
    "send_udp",
    "send_tcp",
]
