"""Atomic checkpoint snapshots beside the WAL.

A checkpoint bounds replay: recovery loads the newest valid snapshot
and only replays WAL records past its ``last_wal_seq``.  Durability is
the WAL's job; the checkpoint is an optimisation that must never make
things worse, so writes are atomic (write temp, fsync, rename — a
crash mid-checkpoint leaves the previous one untouched) and loads are
defensive (corrupt or torn snapshots are skipped, falling back to the
next-newest, then to pure WAL replay).

A checkpoint holds state only, so one run's checkpoints are the same
bytes every time it is run.  The process's telemetry — the metrics
registry and the finished trace spans — goes to one sibling file,
``telemetry.json``, rewritten after each checkpoint for
``repro-syslog metrics``/``trace`` and for the trace hops a resumed
process adopts.  Recovery never reads it: a lost or torn one costs
trace hops only, so it is neither fsynced nor checksummed.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "checkpoint_paths",
    "load_checkpoint",
    "load_latest_checkpoint",
    "load_telemetry",
    "write_checkpoint",
    "write_telemetry",
]

CHECKPOINT_FORMAT_VERSION = 1

_CHECKPOINT_GLOB = "checkpoint-*.json"

TELEMETRY_FILENAME = "telemetry.json"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checkpoint_paths(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, oldest first."""
    return sorted(Path(directory).glob(_CHECKPOINT_GLOB))


def write_checkpoint(
    directory: str | Path,
    payload: dict,
    *,
    seq: int,
    keep: int = 3,
    registry=None,
    crash_hook=None,
) -> Path:
    """Atomically persist ``payload`` as ``checkpoint-{seq}.json``.

    ``seq`` is the WAL sequence the snapshot is consistent with
    (replay resumes after it).  The temp file is fsynced before the
    rename so the named checkpoint is never torn; ``crash_hook`` (test
    seam) runs between the two, the window where a crash must leave the
    previous checkpoint authoritative.  Older checkpoints beyond
    ``keep`` are pruned.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # one json.dumps covers both the CRC input and the emitted document
    # (the payload can be large; double-encoding it is measurable)
    canon = _canonical(payload)
    encoded = (
        '{"format_version":%d,"crc":%d,"payload":%s}\n'
        % (CHECKPOINT_FORMAT_VERSION, zlib.crc32(canon.encode("utf-8")), canon)
    ).encode("utf-8")
    final = directory / f"checkpoint-{seq:010d}.json"
    tmp = directory / f".checkpoint-{seq:010d}.tmp"
    with tmp.open("wb") as fh:
        fh.write(encoded)
        fh.flush()
        os.fsync(fh.fileno())
    if crash_hook is not None:
        crash_hook()
    os.replace(tmp, final)

    from repro.obs import wellknown

    wellknown.checkpoint_writes(registry).inc()
    wellknown.checkpoint_last_bytes(registry).set(len(encoded))
    wellknown.checkpoint_last_wal_seq(registry).set(seq)

    if keep >= 1:
        for stale in checkpoint_paths(directory)[:-keep]:
            stale.unlink()
    return final


def load_checkpoint(path: str | Path) -> dict | None:
    """Payload of one checkpoint file, or None if torn/corrupt."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(doc, dict):
        return None
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        return None
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        return None
    if doc.get("crc") != zlib.crc32(_canonical(payload).encode("utf-8")):
        return None
    return payload


def load_latest_checkpoint(
    directory: str | Path,
) -> tuple[dict | None, Path | None]:
    """Newest valid checkpoint in ``directory``: ``(payload, path)``.

    Corrupt snapshots are skipped (newest-valid-wins); ``(None, None)``
    means recovery must replay the WAL from the beginning.
    """
    for path in reversed(checkpoint_paths(directory)):
        payload = load_checkpoint(path)
        if payload is not None:
            return payload, path
    return None, None


def write_telemetry(directory: str | Path) -> None:
    """Replace ``directory``'s ``telemetry.json`` with the process's
    registry (every declared family) and finished spans."""
    from repro.obs import default_tracer
    from repro.obs.wellknown import declare_all

    directory = Path(directory)
    tmp = directory / f".{TELEMETRY_FILENAME}.tmp"
    tmp.write_text(json.dumps({
        "metrics": declare_all().snapshot(),
        "spans": default_tracer().export(clear=False),
    }))
    os.replace(tmp, directory / TELEMETRY_FILENAME)


def load_telemetry(directory: str | Path) -> dict | None:
    """``directory``'s ``telemetry.json`` (``metrics``, ``spans``), or
    None if it is missing or unparsable."""
    try:
        doc = json.loads((Path(directory) / TELEMETRY_FILENAME).read_text())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None
