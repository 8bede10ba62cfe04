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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "vendors": ("VendorProfile", "VENDORS"),
    "templates": ("MessageTemplate", "TEMPLATES", "templates_for"),
    "generator": ("CorpusGenerator", "LabeledCorpus", "TABLE2_COUNTS"),
    "firmware": ("FirmwareDrift", "DriftedTemplateSet"),
    "sessions": ("SessionGenerator", "LabeledSession", "SessionKind"),
    "newcomer": ("NEWCOMER_VENDOR", "NEWCOMER_TEMPLATES", "generate_newcomer_messages"),
    "telemetry": (
        "TelemetrySample", "TelemetryGenerator", "FaultySensor", "RackHeat", "FamilyQuirk",
    ),
    "workload": (
        "ArrivalProcess", "PoissonArrivals", "BurstArrivals", "Incident", "StreamEvent",
        "generate_stream",
    ),
    "sender": ("render_event", "wire_lines", "send_udp", "send_tcp"),
})
