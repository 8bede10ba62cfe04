"""Per-node health tracking: a deterministic circuit breaker.

The coordinator must not pay a timeout on every write to a node that
has been dead for minutes — after a few consecutive failures it should
*stop trying* and route around, then probe occasionally so a recovered
node rejoins without an operator.  That is the classic circuit breaker:

- **closed** — requests flow; consecutive failures are counted,
- **open** — requests are refused on the spot (fail-fast) until
  ``reset_timeout`` has elapsed on the breaker's clock,
- **half-open** — one probe is allowed through; success closes the
  circuit, failure re-opens it and restarts the timeout.

The clock is injected (any ``() -> float`` callable) so simulations
drive breakers off the deterministic event-engine clock and unit tests
off a hand-cranked counter — state transitions are then a pure function
of the recorded successes/failures and clock readings, never of
wall-clock scheduling.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["CircuitBreaker", "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Fail-fast gate over one unreliable dependency.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the circuit open.
    reset_timeout:
        Clock units the circuit stays open before allowing a probe.
    clock:
        Monotonic time source; defaults to an internal counter that
        advances by one on every :meth:`allow` call, so a breaker with
        no external clock still re-probes after ``reset_timeout``
        refused requests.
    on_transition:
        Optional ``(old_state, new_state) -> None`` hook (the
        coordinator mirrors transitions into metrics).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] | None = None,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._ticks = 0  # internal clock when none injected
        self.on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return float(self._ticks)

    def _move(self, state: str) -> None:
        if state != self.state:
            old, self.state = self.state, state
            if self.on_transition is not None:
                self.on_transition(old, state)

    def allow(self) -> bool:
        """May a request be attempted right now?

        Open circuits refuse until ``reset_timeout`` elapses, then
        transition to half-open and admit exactly one probe (further
        calls refuse until that probe's outcome is recorded).
        """
        if self._clock is None:
            self._ticks += 1
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self._now() - self._opened_at >= self.reset_timeout:
                self._move(BREAKER_HALF_OPEN)
                return True
            return False
        return False  # half-open: probe already in flight

    def record_success(self) -> None:
        """A request succeeded: close the circuit, reset the count."""
        self.consecutive_failures = 0
        if self.state != BREAKER_CLOSED:
            self._move(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """A request failed (or timed out): count it, maybe trip open."""
        self.consecutive_failures += 1
        if (
            self.state == BREAKER_HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self._now()
            self._move(BREAKER_OPEN)

    def reset(self) -> None:
        """Force-close (an operator explicitly restarted the node)."""
        self.consecutive_failures = 0
        self._move(BREAKER_CLOSED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures})"
        )
