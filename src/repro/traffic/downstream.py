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
* :class:`DownstreamScheduler` — a ``fair``-policy
  :class:`~repro.traffic.dba.DbaScheduler` holding these queues, plus
  the downstream grant event. Registration, lookup, enqueue and the
  grant-and-drain cycle are the allocator's own
  (:meth:`~repro.traffic.dba.DbaScheduler.run_cycle`, the cycle the
  upstream plane runs too); ``tests/oracles.py`` keeps the reference
  drain that :mod:`tests.test_downstream` checks both against and the
  E21 benchmark times.

The scheduler is clock-agnostic: :meth:`DownstreamScheduler.run_cycle`
takes ``now`` and the cycle's byte budget from its caller (the load
generator's cycle task on the :mod:`repro.common.sim` Scheduler, which
sizes the budget from the OLT's downstream line rate), so it never
advances time itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.common.events import EventBus
from repro.traffic.dba import DbaScheduler, DrainResult, TCont
from repro.traffic.profiles import Request, RunQueue

__all__ = ["DownstreamQueue", "DownstreamScheduler"]

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

    Wraps a ``fair``-policy :class:`~repro.traffic.dba.DbaScheduler`:
    every backlogged queue gets an equal part of
    :data:`~repro.traffic.dba.GUARANTEED_SHARE` against starvation, then
    strict priority across classes with weighted-fair filling within
    one. Each :meth:`run_cycle` is the allocator's grant-and-drain
    cycle plus one ``pon.downstream.grant`` bus event, mirroring
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
        self.cycles_run = 0

    # -- registration -----------------------------------------------------------

    def register_queue(self, serial: str, tenant: str, priority: int = 2,
                       weight: float = 1.0) -> DownstreamQueue:
        """Create one tenant's bounded downstream queue; returns it."""
        return self._allocator.register_tcont(
            serial, tenant, priority=priority, weight=weight,
            factory=DownstreamQueue)

    def queue(self, tenant: str) -> DownstreamQueue:
        return self._allocator.tcont(tenant)

    def queues(self) -> List[DownstreamQueue]:
        """Every queue, in alloc-id (registration) order."""
        return self._allocator.tconts()

    def total_backlog(self) -> int:
        return self._allocator.total_backlog()

    # -- the cycle --------------------------------------------------------------

    def enqueue(self, requests: Union[Request, Iterable[Request]]) -> int:
        """Buffer one response or a batch; returns how many were queued
        (the rest were tail-dropped)."""
        return self._allocator.enqueue(requests)

    def run_cycle(self, capacity_bytes: int,
                  now: float = 0.0) -> Dict[str, DrainResult]:
        """Allocate and drain one downstream frame cycle.

        Returns the allocator's
        :meth:`~repro.traffic.dba.DbaScheduler.run_cycle` result:
        ``tenant -> (sent_bytes, completions)`` for every queue that
        transmitted, in alloc-id order.
        """
        results = self._allocator.run_cycle(capacity_bytes, now)
        self.cycles_run += 1
        if self._bus is not None:
            # A grant never exceeds its queue's backlog, so every drain
            # sent its whole grant: the sent bytes are the grant map.
            queues = {queue.alloc_id: results[queue.tenant][0]
                      for queue in self._allocator.tconts()
                      if queue.tenant in results}
            self._bus.emit(
                "pon.downstream.grant", self.name, now,
                cycle=self.cycles_run, capacity_bytes=capacity_bytes,
                granted_bytes=sum(queues.values()),
                backlog_bytes=self.total_backlog(),
                queues=queues)
        return results
