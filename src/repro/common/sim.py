"""Discrete-event simulation engine.

The :class:`Scheduler` is the single place that moves simulated time
forward. Subsystems that used to own their cadence loops (the DBA grant
cycle, QoS policing, CVE-feed publication, key rotation, monitor
sampling) instead *register tasks* — periodic via :meth:`Scheduler.every`
or one-shot via :meth:`Scheduler.call_at` / :meth:`Scheduler.call_later`
— and the experiment driver batch-steps the world with
:meth:`Scheduler.run_until` / :meth:`Scheduler.run_for`.

Ordering is fully deterministic: timers due at the same instant are
broken first by a seeded tie token drawn from the scheduler's own RNG at
registration time, then by registration order. Two runs with the same
seed and the same registration sequence therefore fire events in a
byte-identical order.

The scheduler layers on the :class:`~repro.common.clock.SimClock` timer
wheel rather than replacing it, so legacy code that advances a clock
directly (tests, notebooks) still fires scheduler tasks on the way.

The timer heap holds each event's or task's bound ``_trigger`` method,
never a closure, so a warm scheduler is plain data: it pickles mid-run
(with callbacks that pickle too) and the copy resumes byte-identically,
tie tokens included, since the RNG state travels with it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .checks import require_positive
from .clock import SimClock


class ScheduledEvent:
    """Handle for a one-shot event; supports cancellation before firing."""

    __slots__ = ("when", "name", "_fn", "_scheduler", "_fired", "_cancelled")

    def __init__(self, scheduler: "Scheduler", when: float,
                 fn: Callable[[], None], name: str) -> None:
        self.when = when
        self.name = name
        self._fn = fn
        self._scheduler = scheduler
        self._fired = False
        self._cancelled = False

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True

    def _trigger(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._scheduler._record(self.name)
        self._fn()


class PeriodicTask:
    """A recurring task registered via :meth:`Scheduler.every`.

    Fires every ``interval`` seconds starting at ``first_at`` until
    cancelled, until the optional ``until`` horizon would be passed, or
    until ``max_fires`` firings have happened.
    """

    __slots__ = ("name", "interval", "until", "max_fires", "fires",
                 "next_at", "_fn", "_scheduler", "_cancelled")

    def __init__(self, scheduler: "Scheduler", name: str, interval: float,
                 fn: Callable[[], None], first_at: float,
                 until: Optional[float], max_fires: Optional[int]) -> None:
        self.name = name
        self.interval = interval
        self.until = until
        self.max_fires = max_fires
        self.fires = 0
        self.next_at = first_at
        self._fn = fn
        self._scheduler = scheduler
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def done(self) -> bool:
        """True when the task will never fire again."""
        if self._cancelled:
            return True
        if self.max_fires is not None and self.fires >= self.max_fires:
            return True
        if self.until is not None and self.next_at > self.until:
            return True
        return False

    def cancel(self) -> None:
        self._cancelled = True

    def _trigger(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        scheduler = self._scheduler
        scheduler._record(self.name)
        self._fn()
        self.next_at += self.interval
        scheduler._arm(self)


class Scheduler:
    """Deterministic discrete-event scheduler over a :class:`SimClock`.

    One scheduler owns time advancement for everything attached to its
    clock. ``seed`` controls tie-breaking between events due at the same
    instant; with the same seed and registration order, event ordering is
    reproducible bit-for-bit.
    """

    def __init__(self, clock: SimClock, seed: int = 0) -> None:
        self.clock = clock
        self.seed = seed
        self._rng = random.Random(seed)
        self.events_fired = 0
        self.tasks: List[PeriodicTask] = []
        self._trace: Optional[List[Tuple[float, str]]] = None
        self._anon_seq = 0

    # ------------------------------------------------------------------
    # introspection

    @property
    def now(self) -> float:
        return self.clock.now

    def enable_trace(self) -> List[Tuple[float, str]]:
        """Record every firing as ``(time, name)``; returns the live list."""
        if self._trace is None:
            self._trace = []
        return self._trace

    def active_tasks(self) -> List[PeriodicTask]:
        return [t for t in self.tasks if not t.done]

    def stats(self) -> Dict[str, float]:
        """Snapshot of scheduler load, suitable for monitor sampling."""
        return {
            "now": self.clock.now,
            "events_fired": float(self.events_fired),
            "tasks_registered": float(len(self.tasks)),
            "tasks_active": float(len(self.active_tasks())),
            "timers_pending": float(self.clock.pending_timers()),
        }

    # ------------------------------------------------------------------
    # registration

    def _name_for(self, fn: Callable[[], None], name: Optional[str]) -> str:
        if name is not None:
            return name
        self._anon_seq += 1
        base = getattr(fn, "__name__", "task")
        return "%s-%d" % (base, self._anon_seq)

    def _record(self, name: str) -> None:
        self.events_fired += 1
        if self._trace is not None:
            self._trace.append((self.clock.now, name))

    def call_at(self, when: float, fn: Callable[[], None],
                name: Optional[str] = None) -> ScheduledEvent:
        """Schedule a one-shot event at absolute time ``when``.

        A refused ``when`` names, draws and keeps nothing.
        """
        self.clock.check_timer(when)
        event = ScheduledEvent(self, when, fn, self._name_for(fn, name))
        self.clock.call_at(when, event._trigger, tie=self._rng.random())
        return event

    def call_later(self, delay: float, fn: Callable[[], None],
                   name: Optional[str] = None) -> ScheduledEvent:
        """Schedule a one-shot event ``delay`` seconds from now."""
        return self.call_at(self.clock.now + delay, fn, name=name)

    def every(self, interval: float, fn: Callable[[], None],
              name: Optional[str] = None, first_at: Optional[float] = None,
              until: Optional[float] = None,
              max_fires: Optional[int] = None) -> PeriodicTask:
        """Register a periodic task.

        ``first_at`` defaults to ``now + interval`` (a cadence, not an
        immediate firing). ``until`` is an inclusive horizon: the task
        fires at every multiple that lands at or before it. ``max_fires``
        caps total firings. Each (re-)arming draws a fresh seeded tie
        token, so interleaving between same-instant tasks stays
        deterministic but not registration-order-biased. A refused
        registration names, draws and keeps nothing.
        """
        require_positive("interval", interval)
        start = first_at if first_at is not None else self.clock.now + interval
        task = PeriodicTask(self, "", interval, fn, start, until, max_fires)
        if not task.done:
            self.clock.check_timer(start)
        task.name = self._name_for(fn, name)
        self.tasks.append(task)
        self._arm(task)
        return task

    def _arm(self, task: PeriodicTask) -> None:
        if not task.done:
            self.clock.call_at(task.next_at, task._trigger,
                               tie=self._rng.random())

    # ------------------------------------------------------------------
    # time advancement — the only clock.advance call sites in the tree

    def run_until(self, when: float) -> None:
        """Advance simulated time to the absolute instant ``when``."""
        self.clock.advance_to(when)

    def run_for(self, dt: float) -> None:
        """Advance simulated time by ``dt`` seconds."""
        self.clock.advance(dt)
