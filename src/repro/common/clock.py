"""Deterministic simulation clock.

Every time-dependent component in the reproduction (PON transmission,
certificate validity, CVE feed publication, runtime monitoring) reads time
from a :class:`SimClock` instead of the wall clock, which keeps every
experiment reproducible and lets benchmarks fast-forward through days of
simulated operation in milliseconds.

The clock is the *time authority* only: it holds ``now`` and a timer
wheel. Deciding when to move time forward belongs to the discrete-event
engine in :mod:`repro.common.sim` — no subsystem may call
:meth:`SimClock.advance` directly (a unit test enforces this for
everything outside ``repro.common.sim``/``repro.common.clock``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

# Heap entries: (when, tie, seq, callback). ``tie`` orders same-instant
# timers (the sim scheduler hands out seeded tie tokens); ``seq`` keeps
# the ordering total so callbacks are never compared.
_Timer = Tuple[float, float, int, Callable[[], None]]


class SimClock:
    """A manually-advanced clock with an optional timer wheel.

    Time is a float number of simulated seconds since the simulation epoch.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before the epoch")
        self._now = float(start)
        self._timers: List[_Timer] = []
        self._timer_seq = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward, firing any timers that come due, in order.

        The drain is re-entrancy-safe: a callback that schedules further
        timers (``call_later`` from inside a firing timer) gets them fired
        *within the same advance* whenever they land at or before the
        original deadline, at their correct simulated time; timers landing
        beyond the deadline stay pending. A callback that itself advances
        the clock can move ``now`` past the deadline — the final
        assignment never rewinds time.
        """
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        deadline = self._now + seconds
        while self._timers and self._timers[0][0] <= deadline:
            due, _tie, _seq, callback = heapq.heappop(self._timers)
            if due > self._now:
                self._now = due
            callback()
        if deadline > self._now:
            self._now = deadline

    def advance_to(self, when: float) -> None:
        """Advance the clock to an absolute simulated time."""
        if when < self._now:
            raise ValueError("cannot advance the clock backwards")
        self.advance(when - self._now)

    def call_at(self, when: float, callback: Callable[[], None],
                tie: float = 0.0) -> None:
        """Schedule ``callback`` to fire when the clock reaches ``when``.

        ``tie`` breaks ordering between timers due at the same instant
        (lower fires first); the default of 0.0 keeps direct registrations
        ahead of scheduler-managed tasks, which carry seeded tokens.
        """
        if when < self._now:
            raise ValueError("cannot schedule a timer in the past")
        self._timer_seq += 1
        heapq.heappush(self._timers, (when, tie, self._timer_seq, callback))

    def call_later(self, delay: float, callback: Callable[[], None],
                   tie: float = 0.0) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        self.call_at(self._now + delay, callback, tie=tie)

    def pending_timers(self) -> int:
        """Number of timers not yet fired."""
        return len(self._timers)


_default_clock: Optional[SimClock] = None


def default_clock() -> SimClock:
    """Process-wide clock for components that are not given one explicitly."""
    global _default_clock
    if _default_clock is None:
        _default_clock = SimClock()
    return _default_clock
