"""Per-run correctness oracle: every line sent is accounted for, exactly once.

Runs inside the spine process at quiescence, against the program's own state
and the WAL it wrote.  A line refused at the door with a reason (malformed,
oversize) is accounted for; an accepted line that is missing from the store or
the journal, indexed twice, or left without a category is not.  The result
names each broken law and counts the lines behind it; ``failed`` feeds
``failed_share``.
"""

from __future__ import annotations

from collections import Counter

import dashboard
from repro.durability import replay_wal

#: one accepted line in this many is re-classified without the template cache
SAMPLE_EVERY = 16


def check(spine, expected: dict) -> dict:
    """Hold the quiescent spine against ``expected`` (the workload's exact counts, sent by ``run.run_once``)."""
    problems: list[str] = []
    failed = 0

    def law(ok: bool, message: str, lines: int = 1) -> None:
        nonlocal failed
        if not ok:
            problems.append(message)
            failed += max(1, lines)

    s = spine.listener.stats
    law(s.accounted(), "ListenerStats.accounted() is false")
    for name, got in (
        ("sent", s.received), ("accepted", s.accepted), ("parse_rejected", s.parse_errors),
        ("oversize", s.oversize), ("shed", s.shed + s.tenant_shed),
    ):
        law(got == expected[name], f"{name}: listener counted {got}, workload fixes {expected[name]}",
            abs(got - expected[name]))
    law(s.accept_dropped == 0 and s.publish_refused == 0, "lines dropped or refused with no fault armed")
    dlq = spine.listener.dead_letters
    refused = expected["parse_rejected"] + expected["oversize"]
    law(len(dlq) + dlq.n_evicted == refused,
        f"dead letters {len(dlq) + dlq.n_evicted} != lines refused {refused}")

    store, broker, fwd = spine.store, spine.broker, spine.forwarder
    indexed = len(store) - spine.preloaded
    for name, got in (
        ("store documents", indexed), ("broker published", broker.stats.published),
        ("forwarder flushed", fwd.stats.flushed_messages),
    ):
        law(got == expected["accepted"], f"{name} {got} != accepted {expected['accepted']}",
            abs(got - expected["accepted"]))
    law(broker.lag("fluentd") == 0 and fwd.buffered == 0, "broker lag or forwarder buffer not drained")
    law(fwd.stats.failed_flushes == 0, f"{fwd.stats.failed_flushes} failed flushes")

    # one pass over the documents: categories, and the ordinal each one carries
    docs = list(store.iter_documents())
    law(len(docs) == len(store), "iter_documents() misses documents")
    uncategorised = sum(1 for d in docs if d.category is None)
    law(uncategorised == 0, f"{uncategorised} documents without a category", uncategorised)
    want = Counter(int(o) for o in expected["accepted_ordinals"])
    stored = Counter(d.message.pid for d in docs[spine.preloaded:])
    law(stored == want, "stored ordinals differ from the accepted lines",
        sum(((stored - want) + (want - stored)).values()))

    # the journal: every accepted ordinal in exactly one flush record
    records, info = replay_wal(spine.wal_dir)
    law(info.truncated_bytes == 0 and info.dropped_segments == 0, "WAL has a torn tail")
    ordinal_of: dict[int, int] = {}
    journaled: Counter = Counter()
    for record in records:
        if record.kind == "accept":
            for event, msg in (record.data.get("msgs") or {}).items():
                ordinal_of[int(event)] = msg["pid"]
        elif record.kind == "flush":
            journaled.update(ordinal_of.get(e) for e in record.data["events"])
    law(journaled == want, "WAL flush records do not cover each accepted ordinal exactly once",
        sum(((journaled - want) + (want - journaled)).values()))

    digests = store.seq_digests()
    for shard in range(store.n_shards):
        owners = {digests[o][shard] for o in store.placement.owners(shard)}
        law(len(owners) == 1, f"replicas of shard {shard} disagree: {sorted(owners)}")

    # cached verdicts against the model itself
    sample = docs[spine.preloaded::SAMPLE_EVERY]
    cache, spine.pipe.template_cache = spine.pipe.template_cache, None
    try:
        reference = spine.pipe.classify_batch([d.message.text for d in sample])
    finally:
        spine.pipe.template_cache = cache
    wrong = sum(1 for d, r in zip(sample, reference) if d.category is not r.category)
    law(wrong == 0, f"{wrong} of {len(sample)} sampled categories differ from an uncached classify_batch", wrong)
    if expected["max_cache_misses"] is not None:
        law(cache.misses <= expected["max_cache_misses"],
            f"template cache missed {cache.misses} times, workload allows {expected['max_cache_misses']}")
    if expected["max_hit_ratio"] is not None:
        law(cache.hit_rate <= expected["max_hit_ratio"],
            f"template-cache hit ratio {cache.hit_rate:.4f} above {expected['max_hit_ratio']}")

    for problem in dashboard.mismatches(store, docs, spine.oldest_ts, spine.newest_ts):
        law(False, problem)
    return {"ok": not problems, "failed": failed, "problems": problems,
            "sampled": len(sample), "wal_records": len(records)}
