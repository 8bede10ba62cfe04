"""Minimal discrete-event engine.

A binary-heap scheduler over ``(time, seq, callback)`` entries.  The
sequence number breaks time ties FIFO, keeping runs deterministic —
essential because every experiment asserts on simulated outcomes.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["Event", "EventEngine"]


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled callback (ordered by time, then insertion)."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventEngine:
    """Heap-based event loop with simulated time."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from the current sim time.

        Raises
        ------
        ValueError
            For negative delays (time travel).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute sim time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        heapq.heappush(self._heap, Event(time, self._seq, action))
        self._seq += 1

    def every(self, interval: float, action: Callable[[], None], *, until: float) -> None:
        """Run ``action`` every ``interval`` seconds up to ``until``.

        First one interval from now, then again while the next firing
        still lands at or before ``until``.

        Raises
        ------
        ValueError
            For a non-positive interval (time would not advance).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")

        def fire() -> None:
            action()
            if self.now + interval <= until:
                self.schedule(interval, fire)

        self.schedule(interval, fire)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the horizon/queue end; returns final time.

        Parameters
        ----------
        until:
            Stop once the next event is past this sim time (the clock
            is advanced to ``until``).
        max_events:
            Safety cap on processed events.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and self._heap[0].time > until:
                self.now = until
                break
            ev = heapq.heappop(self._heap)
            self.now = ev.time
            ev.action()
            processed += 1
            self.events_processed += 1
        else:
            if until is not None:
                self.now = max(self.now, until)
        return self.now

    def pending(self) -> int:
        """Events still queued."""
        return len(self._heap)
