"""The four spine workloads: wire lines, sizes and the counts the oracle expects.

A workload is a pure function of ``(seed, scale)``: the seed changes every
generated line, never how many lines there are nor how they must be disposed.
Each line carries its ordinal in the PID/PROCID field, which both RFC grammars
round-trip and which never reaches the classified text.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.message import Facility, Severity, SyslogMessage
from repro.datagen.firmware import FirmwareDrift
from repro.datagen.sender import render_event
from repro.datagen.templates import TEMPLATES, fill_slots
from repro.datagen.vendors import VENDORS
from repro.datagen.workload import standard_simulation_events
from repro.textproc.normalize import MaskingNormalizer

#: ``--seconds`` value the reference sizes below are stated for
REFERENCE_SECONDS = 16
#: share of ``--seconds`` given to the paced phase; the bursts take the rest
PACED_SHARE = 0.625
#: the burst phase is this many equal bursts, each drained before the next
BURSTS = 3
#: simulated seconds of log time one run spans (sets the dashboard bucket count)
SIM_SPAN_S = 7200.0
SIM_T0 = 86400.0 * 40
#: dashboard queries per second issued beside the paced writes of ``fleet_dash``
FLEET_QUERY_RATE = 4.0
#: closed-loop repetitions of the five-query rotation run at quiescence
QUIESCENT_ROTATIONS = 4
FLOOD_MAX_LINE_BYTES = 2048
FLOOD_DLQ_ENTRIES = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    paced_rate: float  # lines/s offered in the paced phase
    burst_lines: int  # over all bursts, at REFERENCE_SECONDS
    preload_docs: int = 0
    paced_queries: bool = False
    quota: bool = False
    max_line_bytes: int | None = None
    dlq_entries: int | None = None
    #: the template cache may miss at most this often (hot: once per masked form)
    max_cache_misses: int | None = None
    #: ... or hit at most this share of lookups (cold: never, but for collisions)
    max_hit_ratio: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot_templates",
            "Zipf over 64 templates: the model stage idles, so listener, broker, "
            "forwarder, quorum write and WAL do the work; a classifier change must not move it",
            paced_rate=1200.0, burst_lines=34_000, max_cache_misses=512,
        ),
        Workload(
            "cold_templates",
            "every line a never-seen template: vectorize+predict and text analysis dominate "
            "and the template cache is pure overhead; the counterpart of hot_templates",
            paced_rate=500.0, burst_lines=25_000, max_hit_ratio=0.02,
        ),
        Workload(
            "flood_reject",
            "60% malformed or oversize lines refused at the door, DRR quota and bounded DLQ "
            "attached: the only workload where listener, parser and dead-lettering dominate",
            paced_rate=2500.0, burst_lines=58_000, quota=True,
            max_line_bytes=FLOOD_MAX_LINE_BYTES, dlq_entries=FLOOD_DLQ_ENTRIES,
        ),
        Workload(
            "fleet_dash",
            "the paper's fleet traffic onto a preloaded store with dashboard queries beside "
            "the writes: reads and writes share one store and one loop",
            paced_rate=500.0, burst_lines=45_000, preload_docs=12_000, paced_queries=True,
        ),
    )
}


@dataclass
class Expected:
    """Exact dispositions the oracle demands, whatever the seed."""

    sent: int = 0
    accepted: int = 0
    parse_rejected: int = 0
    oversize: int = 0
    shed: int = 0

    def add(self, other: "Expected") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Phase:
    lines: list[bytes]
    #: ordinals of the lines that must be accepted, ascending
    accepted_ordinals: np.ndarray
    expected: Expected = field(default_factory=Expected)


@dataclass
class Inputs:
    paced_s: float
    paced: Phase
    bursts: list[Phase]


def sizes(workload: Workload, seconds: float) -> tuple[float, int, int]:
    """(paced seconds, paced lines, lines per burst) for a ``--seconds`` budget."""
    paced_s = seconds * PACED_SHARE
    paced_lines = int(workload.paced_rate * paced_s)
    burst_lines = int(workload.burst_lines * seconds / REFERENCE_SECONDS / BURSTS)
    # flood_reject is built from 20-line blocks of fixed composition
    return paced_s, paced_lines - paced_lines % 20, burst_lines - burst_lines % 20


def build(name: str, seed: int, seconds: float) -> Inputs:
    workload = WORKLOADS[name]
    paced_s, n_paced, n_burst = sizes(workload, seconds)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    make = _GENERATORS[name]
    edges = [0] + [n_paced + k * n_burst for k in range(BURSTS + 1)]
    total = edges[-1]
    lines, accepted, rejected, oversize = make(rng, seed, total)
    phases = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ords = accepted[(accepted >= lo) & (accepted < hi)]
        phases.append(Phase(
            lines=lines[lo:hi],
            accepted_ordinals=ords,
            expected=Expected(
                sent=hi - lo, accepted=len(ords),
                parse_rejected=int(((rejected >= lo) & (rejected < hi)).sum()),
                oversize=int(((oversize >= lo) & (oversize < hi)).sum()),
            ),
        ))
    return Inputs(paced_s, phases[0], phases[1:])


def paced_query_count(workload: Workload, paced_s: float) -> int:
    return int(FLEET_QUERY_RATE * paced_s) if workload.paced_queries else 0


# -- line generators --------------------------------------------------------
# each returns (lines, accepted ordinals, parse-rejected ordinals, oversize ordinals)

_NONE = np.empty(0, dtype=np.int64)


def _hosts(n: int) -> list[str]:
    per = -(-n // len(VENDORS))
    return [v.node_name(i) for i in range(per) for v in VENDORS][:n]


def _sim_time(ordinal: int, total: int) -> float:
    return SIM_T0 + float(int(ordinal * SIM_SPAN_S / total))


def stable_templates(n: int = 64):
    """The ``n`` templates whose slot values the masking normalizer erases best.

    A template with a free-text slot masks to a new cache key on every line;
    those are what ``hot_templates`` must leave out.
    """
    norm = MaskingNormalizer()
    rng = np.random.default_rng(12345)
    forms = [
        len({norm.normalize(fill_slots(t, rng)) for _ in range(48)}) for t in TEMPLATES
    ]
    order = sorted(range(len(TEMPLATES)), key=lambda i: (forms[i], i))
    return [TEMPLATES[i] for i in sorted(order[:n])]


def _facility(app: str) -> Facility:
    return Facility.KERN if app == "kernel" else Facility.DAEMON


def _hot_lines(rng, total: int, hosts) -> list[bytes]:
    templates = stable_templates()
    weights = 1.0 / np.arange(1, len(templates) + 1) ** 1.2
    picks = rng.choice(len(templates), size=total, p=weights / weights.sum())
    host_ix = rng.integers(0, len(hosts), size=total)
    out = []
    for i in range(total):
        tpl = templates[picks[i]]
        msg = SyslogMessage(
            timestamp=_sim_time(i, total), hostname=hosts[host_ix[i]],
            app=tpl.app, text=fill_slots(tpl, rng), severity=tpl.severity,
            facility=_facility(tpl.app), pid=i,
        )
        out.append(render_event(msg, i).encode())
    return out


def _hot(rng, seed, total):
    lines = _hot_lines(rng, total, _hosts(200))
    return lines, np.arange(total), _NONE, _NONE


def _cold(rng, seed, total):
    drifted = FirmwareDrift(seed=seed).drift(generations=2).templates
    vocab = sorted({
        w for t in TEMPLATES + drifted for w in t.text.replace("{", " ").replace("}", " ").split()
        if w.isalpha() and len(w) > 2
    })
    apps = sorted({t.app for t in TEMPLATES})
    hosts = _hosts(200)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    n_words = rng.integers(6, 15, size=total)
    word_ix = rng.integers(0, len(vocab), size=(total, 14))
    fresh = rng.integers(0, 26, size=(total, 9))
    fresh_len = rng.integers(6, 10, size=total)
    fresh_pos = rng.integers(0, 6, size=total)
    host_ix = rng.integers(0, len(hosts), size=total)
    app_ix = rng.integers(0, len(apps), size=total)
    sev = rng.integers(2, 7, size=total)
    out = []
    for i in range(total):
        words = [vocab[j] for j in word_ix[i, : n_words[i]]]
        # a word no earlier line had: the postings dictionary grows per document
        words.insert(fresh_pos[i], "".join(letters[fresh[i, : fresh_len[i]]]))
        msg = SyslogMessage(
            timestamp=_sim_time(i, total), hostname=hosts[host_ix[i]], app=apps[app_ix[i]],
            text=" ".join(words), severity=Severity(int(sev[i])),
            facility=_facility(apps[app_ix[i]]), pid=i,
        )
        out.append(render_event(msg, i).encode())
    return out, np.arange(total), _NONE, _NONE


#: composition of every 20-line block of flood_reject
_FLOOD_BLOCK = ["bad"] * 9 + ["big"] * 3 + ["hot"] * 6 + ["hog"] * 2
HOG_HOST, HOG_APP = "hog001", "floodd"


def _malformed(kind: int, rng, valid: bytes) -> bytes:
    if kind == 0:  # PRI beyond 191
        return b"<%d>" % rng.integers(192, 1000) + valid[valid.index(b">") + 1:]
    if kind == 1:  # bytes that are no syslog line at all (no newline, never blank)
        return bytes(rng.integers(0x80, 0x100, size=int(rng.integers(24, 120)), dtype=np.uint8))
    if kind == 2:  # cut inside the header, ending on half a UTF-8 sequence
        return valid[: int(rng.integers(6, 14))] + b"\xe2\x82"
    # a clock no day has
    clock = b"%02d:%02d:%02d" % (rng.integers(24, 100), rng.integers(60, 100), rng.integers(60, 100))
    head, _, rest = valid.partition(b":")
    return head[:-2] + clock + rest[rest.index(b" "):]


def _flood(rng, seed, total):
    n_blocks = total // len(_FLOOD_BLOCK)
    kinds = np.array(_FLOOD_BLOCK * n_blocks)
    for b in range(n_blocks):
        rng.shuffle(kinds[b * 20:(b + 1) * 20])
    # every position needs a well-formed line: as itself, or as the raw
    # material a malformed or oversize line is cut from
    valid = _hot_lines(rng, total, _hosts(10))
    templates = stable_templates()
    lines, n_bad = [], 0
    for i, kind in enumerate(kinds):
        if kind == "hot":
            lines.append(valid[i])
        elif kind == "hog":
            tpl = templates[i % 4]
            msg = SyslogMessage(
                timestamp=_sim_time(i, total), hostname=HOG_HOST, app=HOG_APP,
                text=fill_slots(tpl, rng), severity=tpl.severity, pid=i,
            )
            lines.append(render_event(msg, i).encode())
        elif kind == "big":
            lines.append(valid[i] + b" pad" * 768)
        else:
            lines.append(_malformed(n_bad % 4, rng, valid[i]))
            n_bad += 1
    ords = np.arange(total)
    accepted = ords[(kinds == "hot") | (kinds == "hog")]
    return lines, accepted, ords[kinds == "bad"], ords[kinds == "big"]


def fleet_events(seed: int, count: int):
    """Exactly ``count`` events of the paper's standard trace (with incident)."""
    rate = 100.0
    events = []
    while len(events) < count:
        # the Poisson draw varies with the seed; overshoot and cut to size
        events = standard_simulation_events(
            duration_s=count * 1.1 / rate, background_rate=rate, seed=seed, incident=True,
        )
        rate *= 1.1
    return [e.message for e in events[:count]]


def fleet_preload(seed: int, count: int) -> list[SyslogMessage]:
    """The documents already in the store when ``fleet_dash`` starts sending."""
    # older than anything the run sends, over the same span of log time
    return [
        replace(m, timestamp=_sim_time(i, count) - SIM_SPAN_S)
        for i, m in enumerate(fleet_events(seed + 7919, count))
    ]


def _fleet(rng, seed, total):
    lines = [
        render_event(replace(m, timestamp=_sim_time(i, total), pid=i), i).encode()
        for i, m in enumerate(fleet_events(seed, total))
    ]
    return lines, np.arange(total), _NONE, _NONE


_GENERATORS = {
    "hot_templates": _hot,
    "cold_templates": _cold,
    "flood_reject": _flood,
    "fleet_dash": _fleet,
}
