"""Per-tenant fair-share admission: a deficit-round-robin quota.

A single global token bucket is one valve for everyone: one abusive
sender draining it starves every compliant tenant behind the same
socket.  :class:`DeficitRoundRobin`, the listener's admission valve,
deals max-min fairness over tenants (the host/app key of each parsed
message) instead:

- tokens accrue into one global pool at ``rate`` per second (capped at
  ``burst``), exactly like a token bucket — the *aggregate* admit rate
  is ``rate``;
- the pool is dealt to tenants round-robin, one ``quantum`` per visit,
  so every active tenant draws an equal share of the refill;
- each tenant spends its own deficit to admit lines, and a tenant's
  deficit is capped at its fair share of the burst — an idle tenant
  cannot hoard, and whatever it declines flows to the others
  (work-conserving: a lone tenant still gets the full rate).

A tenant sending under its fair share therefore keeps a positive
deficit and admits everything; a saturating tenant exhausts its own
deficit and is shed without touching anyone else's.  The structure is
the classic DRR scheduler (Shreedhar & Varghese) applied to admission
instead of dequeueing.

What it costs: an ``allow`` that finds its tenant in credit is a few
dict operations.  One that finds it drained deals first, and a deal
costs at most one pass of the ring (granting, and noting the tenants
still under the cap) plus one step per further quantum granted —
tenants + grants, not rounds × tenants: topping one drained tenant up by
nine tokens does not walk everyone else nine times.  The pass ends
where the pool runs dry, so a scarce deal (a throttled door hands out
one quantum at a time) walks no further than the tenant it grants.
Admitting a tenant beyond ``max_tenants`` reads the least recently seen
one off the head of ``_last_seen``, which is kept in recency order, so
a sender that spoofs a hostname per line cannot make every line a scan
of every tenant (removing the victim from the ring is still one C-level
``deque.remove``).  Decisions, deficits, pool and ring order are those
of the loop that walked the whole ring per quantum
(``tests/reference_door.py``), bit for bit: every addition is made in
the same order, because ``burst / n`` is fractional and
``x + 1.0 + 1.0`` is not ``x + 2.0`` in the last place.

The clock is injected and all state transitions happen under one lock,
so tests drive it deterministically and the listener's event loop and
the controller's ``set_rate`` actuations can race safely.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["DeficitRoundRobin"]


class DeficitRoundRobin:
    """Fair-share admission quota over dynamically discovered tenants.

    Parameters
    ----------
    rate:
        Aggregate admit rate across all tenants, tokens (lines) per
        second.
    burst:
        Token capacity of the global pool (default: ``rate``); also
        sets the per-tenant deficit cap at ``burst / n_tenants``
        (never below ``quantum``).
    quantum:
        Tokens dealt per tenant per round-robin visit.  One line costs
        one token, so the default of 1.0 keeps the deal granular.
    max_tenants:
        Tracked-tenant bound; admitting a new tenant beyond it evicts
        the least-recently-seen one (its unspent deficit returns to
        the pool).
    clock:
        Monotonic time source (injected in tests and simulations).

    Notes
    -----
    The burst bound: over any window of ``dt`` seconds the quota admits
    at most::

        rate * dt + burst + sum(max(quantum, burst / j) for j in 1..n)

    lines, ``n`` being the tenants tracked when the window opens (at
    most ``max_tenants``).  The pool holds at most ``burst`` and refills
    at ``rate``; on top of it every tracked tenant may hold unspent
    deficit, capped at ``max(quantum, burst / size)`` for the ring size
    when it was last granted, and the j-th tenant by last grant was
    granted in a ring of at least j.  A pool refill does not claw those
    deficits back, so the door is looser than a token bucket of the same
    ``burst``: ``DeficitRoundRobin(10, 10)`` admits 19 at one instant
    after one admit and a second idle (a bucket: 10), and 123 once 100
    tenants joined one per second fire together.
    """

    __slots__ = (
        "rate",
        "burst",
        "quantum",
        "max_tenants",
        "_pool",
        "_last",
        "_clock",
        "_lock",
        "_deficits",
        "_ring",
        "_last_seen",
    )

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        *,
        quantum: float = 1.0,
        max_tenants: int = 1024,
        clock=time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else rate)
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        self.quantum = float(quantum)
        self.max_tenants = int(max_tenants)
        self._pool = self.burst
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()
        self._deficits: dict[str, float] = {}
        self._ring: deque[str] = deque()
        self._last_seen: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._deficits)

    def allow(self, tenant: str) -> bool:
        """True to admit one line for ``tenant``, False to shed it."""
        with self._lock:
            now = self._clock()
            self._settle(now)
            # re-inserted, not overwritten: the dict stays in recency order
            self._last_seen.pop(tenant, None)
            self._last_seen[tenant] = now
            if tenant not in self._deficits:
                self._admit_tenant(tenant)
            if self._deficits[tenant] < 1.0 and self._pool >= self.quantum:
                self._distribute()
            if self._deficits[tenant] >= 1.0:
                self._deficits[tenant] -= 1.0
                return True
            return False

    def set_rate(self, rate: float, burst: float | None = None) -> None:
        """Retarget the aggregate rate; unspent tokens are preserved.

        The controller's ``listener_rate`` lever drives this: the pool
        settles at the old rate up to now, then refills at the new one
        (clamped into the possibly-changed burst).
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        with self._lock:
            self._settle(self._clock())
            self.rate = float(rate)
            if burst is not None:
                if burst <= 0:
                    raise ValueError(f"burst must be positive, got {burst}")
                self.burst = float(burst)
            self._pool = min(self._pool, self.burst)

    def snapshot(self) -> dict[str, float]:
        """Current per-tenant deficits (for the ops surface)."""
        with self._lock:
            return dict(self._deficits)

    # -- internals (call with the lock held) ----------------------------

    def _settle(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._pool = min(self.burst, self._pool + elapsed * self.rate)
        self._last = now

    def _admit_tenant(self, tenant: str) -> None:
        if len(self._deficits) >= self.max_tenants:
            # ``_last_seen`` is in recency order, so the least recently
            # seen tenant is read off its head; only tenants stamped with
            # the very same reading are compared, and among those the
            # one earliest in the ring goes (the newcomer, stamped but
            # not yet in the ring, never does).  Recency order is stamp
            # order because the clock is monotonic; were it to step
            # back, the tenant touched longest ago goes, whatever its
            # stamp says
            seen = iter(self._last_seen.items())
            stale, oldest = next(seen)
            tied = {stale}
            for other, at in seen:
                if at != oldest:
                    break
                tied.add(other)
            if len(tied) > 1:
                stale = next(t for t in self._ring if t in tied)
            self._pool = min(
                self.burst, self._pool + self._deficits.pop(stale)
            )
            self._ring.remove(stale)
            del self._last_seen[stale]
        self._deficits[tenant] = 0.0
        self._ring.append(tenant)

    def _distribute(self) -> None:
        """Deal the pool round-robin, one quantum per tenant per visit.

        Stops when the pool cannot fund another quantum or every tenant
        is at its fair-share cap.  The first round walks the ring,
        granting as it goes and noting who still has room; deficits only
        grow during a deal, so a tenant at the cap stays there and the
        later rounds run over the noted tenants alone, in ring order.
        Each grant is the same additions in the same order a walk of the
        whole ring per round would make, a pool that runs dry ends the
        walk where it stands, and the ring is left where that walk would
        leave it: just past the last tenant granted.
        """
        ring = self._ring
        n = len(ring)
        quantum = self.quantum
        pool = self._pool
        if n == 0 or pool < quantum:
            return
        cap = max(quantum, self.burst / n)
        deficits = self._deficits
        last = -1
        visit = enumerate(ring)
        while visit:
            again = []  # (ring position, tenant) still under the cap
            for position, tenant in visit:
                deficit = deficits[tenant]
                room = cap - deficit
                if room <= 0:
                    continue
                take = min(quantum, room, pool)
                deficits[tenant] = deficit = deficit + take
                pool -= take
                last = position
                if pool < quantum:
                    again = ()
                    break
                if deficit < cap:
                    again.append((position, tenant))
            visit = again
        self._pool = pool
        ring.rotate(-(last + 1))
