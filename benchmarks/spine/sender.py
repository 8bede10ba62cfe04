"""The load generator: one process, one TCP connection, garbage collector off.

Two phases, two kinds of loop.  The paced phase is open: lines leave on a fixed
schedule of 2 ms ticks whether or not the spine keeps up, each line is timed
from the tick it was due on, and how late the generator itself ran is reported
(p99 per 2 s window, median window) so a slow generator cannot pass for a slow
spine.  The burst phase is closed:
one blocking write of every line, admitted as fast as TCP flow control allows.
"""

from __future__ import annotations

import gc
import select
import socket
import time

import numpy as np

TICK_NS = 2_000_000
LATE_WINDOW_S = 2.0


def frame(lines: list[bytes]) -> bytes:
    return b"\n".join(lines) + b"\n" if lines else b""


def paced(sock: socket.socket, lines: list[bytes], seconds: float) -> dict:
    """Send ``lines`` evenly over ``seconds``; returns the schedule and how it was kept."""
    n_ticks = max(1, round(seconds * 1e9 / TICK_NS))
    bounds = (np.arange(n_ticks + 1) * len(lines)) // n_ticks
    chunks = [frame(lines[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    tick_of_line = np.repeat(np.arange(n_ticks), np.diff(bounds))
    late_ns: list[int] = []
    blocked = False
    sock.setblocking(False)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.monotonic_ns() + 5 * TICK_NS
        for k, chunk in enumerate(chunks):
            if not chunk:
                continue
            due = t0 + k * TICK_NS
            while (wait := due - time.monotonic_ns()) > 0:
                time.sleep(wait / 1e9)
            late_ns.append(time.monotonic_ns() - due)
            view = memoryview(chunk)
            while view:
                try:
                    view = view[sock.send(view):]
                except BlockingIOError:
                    # the schedule slipped because the spine stopped reading
                    blocked = True
                    select.select([], [sock], [])
    finally:
        sock.setblocking(True)
        if gc_was_on:
            gc.enable()
    # like every percentile of the paced phase: per window, median window, so
    # that one freeze of the sandbox does not condemn the run
    windows = np.array_split(np.asarray(late_ns), max(1, round(seconds / LATE_WINDOW_S)))
    return {
        "due_ns": t0 + tick_of_line * TICK_NS,
        "late_p99_ms": float(np.median([np.percentile(w, 99) for w in windows])) / 1e6,
        "blocked": blocked,
    }


def burst(sock: socket.socket, lines: list[bytes]) -> int:
    """Write every line at once; returns when the first byte left (monotonic ns)."""
    blob = frame(lines)
    first_byte = time.monotonic_ns()
    sock.sendall(blob)
    return first_byte
