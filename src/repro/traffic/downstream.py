"""Per-ONU downstream scheduling at the OLT (the broadcast direction).

GPON downstream is a broadcast TDM stream: every GEM frame physically
reaches every ONU on the splitter, and the OLT alone decides whose
traffic occupies the frame slots. The paper's resource-abuse story
(T8, M17/M18) is bidirectional — a flooded tenant's *responses* contend
for the shared downstream just as its uploads contend for DBA grants —
so this module gives the OLT the same scheduling discipline in the
downstream direction:

* :class:`DownstreamQueue` — a bounded per-(tenant, priority) FIFO at
  the OLT. Unlike upstream T-CONTs (whose backlog lives at the ONU and
  is policed by grants), downstream backlog occupies OLT buffer memory,
  so it is a T-CONT whose :class:`~repro.traffic.profiles.RunQueue` is
  limited to :data:`QUEUE_LIMIT_BYTES`: the queue tail-drops with
  accounting.
* :class:`DownstreamScheduler` — strict priority across classes plus
  weighted-fair filling within a class, computed by the *same*
  :class:`~repro.traffic.dba.DbaScheduler` allocator the upstream path
  uses — including its registration-time cached flat weight/priority
  arrays, so the per-cycle allocation that feeds the drain loop is
  array-driven. ``tests/oracles.py`` keeps the per-queue reference cycle
  that :mod:`tests.test_downstream` checks it against and the E21
  benchmark times it against.

The scheduler is clock-agnostic: :meth:`DownstreamScheduler.run_cycle`
takes ``now`` and the cycle's byte budget from its caller (the load
generator's cycle task on the :mod:`repro.common.sim` Scheduler, which
sizes the budget from the OLT's downstream line rate), so it never
advances time itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.common.events import EventBus
from repro.traffic.dba import Completions, DbaScheduler, TCont
from repro.traffic.profiles import Request, RunQueue, as_batch

__all__ = ["DownstreamQueue", "DownstreamScheduler", "DrainResult"]

# sent bytes + the requests completed by them, for one queue, one cycle.
DrainResult = Tuple[int, Completions]

# OLT buffer per downstream queue: 1 MiB.
QUEUE_LIMIT_BYTES = 1 << 20


class DownstreamQueue(TCont):
    """A bounded downstream FIFO: a T-CONT that lives in OLT buffer RAM.

    Shares the priority/weight/fragmentation machinery of
    :class:`~repro.traffic.dba.TCont` (so the DBA allocator can schedule
    it unchanged), but its queue holds at most :data:`QUEUE_LIMIT_BYTES`
    and tail-drops with accounting: upstream backlog is the ONU's
    problem, downstream backlog is finite OLT memory.
    """

    def __init__(self, alloc_id: int, serial: str, tenant: str,
                 priority: int = 2, weight: float = 1.0) -> None:
        super().__init__(alloc_id, serial, tenant,
                         priority=priority, weight=weight)
        self.queue = RunQueue(QUEUE_LIMIT_BYTES)

    @property
    def dropped_requests(self) -> int:
        return self.queue.dropped_requests

    @property
    def dropped_bytes(self) -> int:
        return self.queue.dropped_bytes


class DownstreamScheduler:
    """The OLT-side downstream frame scheduler across per-ONU queues.

    Wraps a ``fair``-policy :class:`~repro.traffic.dba.DbaScheduler` as
    the allocation engine: one :meth:`run_cycle` computes the cycle's
    per-queue byte allocation (an equal part of
    :data:`~repro.traffic.dba.GUARANTEED_SHARE` for every backlogged
    queue against starvation, then strict priority across classes with
    weighted-fair filling within one) on the allocator's cached flat
    arrays, and drains each granted queue onto the wire budget. Emits
    one ``pon.downstream.grant`` bus event per cycle, mirroring
    ``pon.dba.grant``.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 name: str = "downstream") -> None:
        self.name = name
        self._bus = bus
        # The allocator publishes no events of its own — this scheduler
        # owns the downstream-flavoured grant event.
        self._allocator = DbaScheduler(policy="fair", bus=None,
                                       name=f"{name}/alloc")
        self._queues: Dict[str, DownstreamQueue] = {}
        self.cycles_run = 0

    # -- registration -----------------------------------------------------------

    def register_queue(self, serial: str, tenant: str, priority: int = 2,
                       weight: float = 1.0) -> DownstreamQueue:
        """Create one tenant's bounded downstream queue; returns it."""
        if tenant in self._queues:
            raise ValueError(f"tenant {tenant} already has a downstream queue")
        queue = self._allocator.register_tcont(
            serial, tenant, priority=priority, weight=weight,
            factory=DownstreamQueue)
        self._queues[tenant] = queue
        return queue

    def queue(self, tenant: str) -> DownstreamQueue:
        queue = self._queues.get(tenant)
        if queue is None:
            raise KeyError(f"tenant {tenant} has no downstream queue")
        return queue

    def queues(self) -> List[DownstreamQueue]:
        """Every queue, in alloc-id (registration) order."""
        return self._allocator.tconts()

    def total_backlog(self) -> int:
        return self._allocator.total_backlog()

    # -- the cycle --------------------------------------------------------------

    def enqueue(self, requests: Union[Request, Iterable[Request]]) -> int:
        """Buffer one response or a batch; returns how many were queued
        (the rest were tail-dropped)."""
        return sum(self.queue(tenant).queue.push(issued_at, sizes)
                   for tenant, issued_at, sizes in as_batch(requests).runs)

    def run_cycle(self, capacity_bytes: int,
                  now: float = 0.0) -> Dict[str, DrainResult]:
        """Allocate and drain one downstream frame cycle.

        Returns ``tenant -> (sent_bytes, completions)`` for every queue
        that transmitted, completions run-length as ``(issued_at,
        count)`` pairs. Allocation runs on the DBA allocator's cached
        flat arrays; the drain walks queues in alloc-id order, so the
        result — like the upstream grant map — is a pure function of
        registration order, backlog and capacity.
        """
        grants = self._allocator.grant(capacity_bytes, now=now)
        self.cycles_run += 1
        results: Dict[str, DrainResult] = {}
        sent_total = 0
        for queue in self._allocator.tconts():
            granted = grants.get(queue.alloc_id, 0)
            if granted <= 0:
                continue
            sent, completed = queue.drain(granted, now)
            sent_total += sent
            results[queue.tenant] = (sent, completed)
        if self._bus is not None:
            # The grant map holds backlogged queues in alloc-id order.
            self._bus.emit(
                "pon.downstream.grant", self.name, now,
                cycle=self.cycles_run, capacity_bytes=capacity_bytes,
                granted_bytes=sent_total,
                backlog_bytes=self.total_backlog(),
                queues={alloc_id: granted
                        for alloc_id, granted in grants.items()
                        if granted > 0})
        return results
