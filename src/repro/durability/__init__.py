"""Durable ingest: WAL, checkpoint/restore, and crash recovery.

The stream layer's resilience (retries, broker offsets, dead
letters) lives in memory and dies with the process.  This package
makes the Tivan simulation survive process death with an
effectively-exactly-once guarantee:

- :mod:`repro.durability.wal` — segmented append-only write-ahead log
  (JSONL + CRC32 + monotonic sequence numbers, torn-tail-truncating
  recovery, ``always|batch|off`` fsync policies; reads stream a record
  at a time through a :class:`WalRecords` view),
- :mod:`repro.durability.checkpoint` — atomic temp-then-rename
  snapshots of state that bound WAL replay, and the ``telemetry.json``
  written beside them,
- :mod:`repro.durability.recovery` — the :class:`StreamJournal` that
  logs every message transition write-ahead, checkpoint
  payloads, :class:`SimConfig` → :func:`build_cluster` (the one cluster
  assembly), :func:`resume_simulation`, and the :func:`reconcile`
  conservation check,
- :mod:`repro.durability.harness` — subprocess SIGKILL scenarios
  proving no message is ever lost or duplicated across crashes.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "checkpoint": (
        "checkpoint_paths", "load_checkpoint", "load_latest_checkpoint", "load_telemetry",
        "write_checkpoint", "write_telemetry",
    ),
    "harness": ("child_main", "crash_recovery_scenario", "run_child"),
    "recovery": (
        "ConservationReport", "JournalState", "SimConfig", "StreamJournal",
        "build_checkpoint_payload", "build_cluster", "checkpoint_cluster", "reconcile",
        "recover_state", "resume_simulation", "run_to_completion",
    ),
    "wal": (
        "FSYNC_POLICIES", "WalRecord", "WalRecords", "WalScanInfo", "WriteAheadLog", "iter_wal",
        "replay_wal",
    ),
})
