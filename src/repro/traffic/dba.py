"""GPON-style dynamic bandwidth allocation (DBA) for the upstream PON.

Upstream GPON is time-division multiplexed: ONUs may only transmit in
slots the OLT grants, and the DBA algorithm decides each cycle how the
shared upstream capacity is split across T-CONTs (transmission
containers, ITU-T G.984.3 — one queue per ONU x traffic class). This
module models that grant loop in bytes-per-cycle terms:

* :class:`TCont` — one upstream queue with a priority (0 = fixed ... 3 =
  best-effort, mirroring T-CONT types 1-4), a weight for fair sharing
  within its priority tier, and FIFO request backlog;
* :class:`DbaScheduler` — the OLT-side allocator. The default ``fair``
  policy is strict priority across tiers with weighted progressive
  filling inside a tier, plus a small guaranteed quantum for every
  backlogged T-CONT so low-priority queues are never starved outright.
  The ``proportional`` policy models the *absence* of coordinated DBA:
  capacity splits in proportion to offered backlog, which is exactly how
  a flooding tenant monopolizes an unscheduled shared medium (T8).

Invariants (property-tested in ``tests/test_traffic.py``):

* granted bytes never exceed cycle capacity;
* the scheduler is work-conserving — it grants
  ``min(capacity, total_backlog)`` exactly;
* under ``fair``, every backlogged T-CONT receives a non-zero grant
  whenever capacity allows at least one byte each (starvation freedom).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.common.events import EventBus
from repro.traffic.profiles import Request

__all__ = ["TCont", "CompletedRequest", "DbaScheduler"]

POLICIES = ("fair", "proportional")


class CompletedRequest(NamedTuple):
    """One request fully carried upstream, with its queueing latency.

    Tuple-backed, like :class:`~repro.traffic.profiles.Request`: one is
    built per drained request on the hot path.
    """

    request: Request
    completed_at: float

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.request.issued_at


class TCont:
    """One upstream transmission container: a prioritised FIFO byte queue."""

    def __init__(self, alloc_id: int, serial: str, tenant: str,
                 priority: int = 2, weight: float = 1.0) -> None:
        if not 0 <= priority <= 3:
            raise ValueError("priority must be 0 (fixed) .. 3 (best effort)")
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.alloc_id = alloc_id
        self.serial = serial
        self.tenant = tenant
        self.priority = priority
        self.weight = float(weight)
        self.queue: Deque[Request] = deque()
        self.queued_bytes = 0
        self._head_sent = 0          # bytes of the head request already granted

    @property
    def tcont_type(self) -> int:
        """The G.984.3 T-CONT type this priority maps to (1..4)."""
        return self.priority + 1

    def offer(self, request: Request) -> None:
        """Enqueue one upstream request."""
        self.queue.append(request)
        self.queued_bytes += request.size_bytes

    def drain(self, granted: int, now: float) -> Tuple[int, List[CompletedRequest]]:
        """Transmit up to ``granted`` bytes; returns (sent, completions).

        Requests complete only when their last byte is carried; a grant
        that ends mid-request leaves the remainder at the head of the
        queue for the next cycle (as GEM fragmentation allows).
        """
        if granted < 0:
            raise ValueError("grant must be non-negative")
        sent = 0
        completed: List[CompletedRequest] = []
        while granted > 0 and self.queue:
            head = self.queue[0]
            pending = head.size_bytes - self._head_sent
            take = min(pending, granted)
            sent += take
            granted -= take
            self.queued_bytes -= take
            if take == pending:
                self.queue.popleft()
                self._head_sent = 0
                completed.append(CompletedRequest(head, now))
            else:
                self._head_sent += take
        return sent, completed


class DbaScheduler:
    """The OLT's upstream grant allocator across registered T-CONTs."""

    def __init__(self, policy: str = "fair", guaranteed_share: float = 0.1,
                 bus: Optional[EventBus] = None, name: str = "dba",
                 batched: bool = True) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not 0.0 <= guaranteed_share < 1.0:
            raise ValueError("guaranteed_share must be in [0, 1)")
        self.policy = policy
        self.guaranteed_share = guaranteed_share
        self.name = name
        self._bus = bus
        self._tconts: Dict[int, TCont] = {}
        self._next_alloc_id = 1
        self.cycles_run = 0
        # ``batched`` amortizes the per-cycle tier setup (priority sort,
        # alloc-id sort, weight lambdas) across cycles: the tier table is
        # rebuilt only when registrations change. Grants are byte-for-byte
        # identical to the reference path (property-tested); keep
        # ``batched=False`` for the E19 before/after microbenchmark.
        self.batched = batched
        # Static structures for the batched path, rebuilt lazily after a
        # registration: T-CONTs flattened in alloc-id order with parallel
        # weight arrays, and per-priority index lists (priorities
        # ascending). Registration-time weight/priority are cached — the
        # batched path assumes they are not mutated mid-flight.
        self._flat: Optional[List[TCont]] = None
        self._flat_weights: List[float] = []
        self._flat_alloc_ids: List[int] = []
        self._tier_indices: List[List[int]] = []

    # -- registration -----------------------------------------------------------

    def register_tcont(self, serial: str, tenant: str, priority: int = 2,
                       weight: float = 1.0,
                       factory: Callable[..., TCont] = TCont) -> TCont:
        """Create a T-CONT for one ONU/tenant flow; returns it.

        ``factory`` lets callers register :class:`TCont` subclasses (the
        downstream plane's bounded queues) into the same allocator — the
        cached flat weight/priority arrays are rebuilt either way.
        """
        tcont = factory(self._next_alloc_id, serial, tenant,
                        priority=priority, weight=weight)
        self._tconts[tcont.alloc_id] = tcont
        self._next_alloc_id += 1
        self._flat = None
        return tcont

    def tconts(self) -> List[TCont]:
        return list(self._tconts.values())

    def total_backlog(self) -> int:
        return sum(t.queued_bytes for t in self._tconts.values())

    # -- the grant loop ---------------------------------------------------------

    def grant(self, capacity_bytes: int, now: float = 0.0) -> Dict[int, int]:
        """Allocate one cycle's upstream capacity; returns alloc_id -> bytes.

        Grants are computed against current backlog and always sum to
        ``min(capacity_bytes, total_backlog)``.
        """
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if self.batched and self.policy == "fair":
            backlogged, grants, remaining = self._grant_fair_batched(
                capacity_bytes, want_backlogged=self._bus is not None)
        else:
            backlogged = [t for t in self._tconts.values()
                          if t.queued_bytes > 0]
            grants = {t.alloc_id: 0 for t in backlogged}
            remaining = capacity_bytes
            if backlogged and remaining > 0:
                if self.policy == "fair":
                    remaining = self._grant_guaranteed(
                        backlogged, grants, capacity_bytes, remaining)
                    remaining = self._grant_priority_tiers(
                        backlogged, grants, remaining)
                else:
                    remaining = self._fill(
                        backlogged, grants, remaining,
                        lambda t: float(
                            t.queued_bytes - grants[t.alloc_id]))
        self.cycles_run += 1
        if self._bus is not None:
            granted_total = capacity_bytes - remaining
            self._bus.emit(
                "pon.dba.grant", self.name, now,
                cycle=self.cycles_run, capacity_bytes=capacity_bytes,
                granted_bytes=granted_total,
                backlog_bytes=self.total_backlog() - granted_total,
                tconts={t.alloc_id: grants.get(t.alloc_id, 0)
                        for t in backlogged})
        return grants

    def _grant_guaranteed(self, backlogged: Sequence[TCont],
                          grants: Dict[int, int], capacity: int,
                          remaining: int) -> int:
        """The anti-starvation round: a small quantum for every queue."""
        if self.guaranteed_share <= 0:
            return remaining
        quantum = max(1, int(capacity * self.guaranteed_share) // len(backlogged))
        for tcont in backlogged:
            if remaining <= 0:
                break
            give = min(quantum, tcont.queued_bytes, remaining)
            grants[tcont.alloc_id] += give
            remaining -= give
        return remaining

    def _grant_priority_tiers(self, backlogged: Sequence[TCont],
                              grants: Dict[int, int], remaining: int) -> int:
        """Strict priority across tiers, weighted fair filling within one."""
        for priority in sorted({t.priority for t in backlogged}):
            if remaining <= 0:
                break
            tier = [t for t in backlogged if t.priority == priority]
            remaining = self._fill(tier, grants, remaining,
                                   lambda t: t.weight)
        return remaining

    def _grant_fair_batched(
            self, capacity: int, want_backlogged: bool = True
    ) -> Tuple[List[TCont], Dict[int, int], int]:
        """The batched fair-policy grant: one pass collects backlog into
        flat parallel arrays (pendings, weights, per-tier index lists),
        then the guaranteed round and the strict-priority tier walk run on
        local list indexing only — no per-T-CONT dict lookups, ``min``
        calls or weight lambdas in the progressive-fill inner loop.

        Iteration order (alloc ids ascending; priorities ascending within
        the tier walk) and quantum arithmetic — including float summation
        order for tier weights — match the reference
        ``_grant_guaranteed`` + ``_grant_priority_tiers``/``_fill`` pair
        exactly, so grants are byte-for-byte identical (property-tested).
        """
        flat = self._flat
        if flat is None:
            flat = self._flat = list(self._tconts.values())
            self._flat_weights = [t.weight for t in flat]
            self._flat_alloc_ids = [t.alloc_id for t in flat]
            by_priority: Dict[int, List[int]] = {}
            for index, tcont in enumerate(flat):
                by_priority.setdefault(tcont.priority, []).append(index)
            self._tier_indices = [by_priority[p]
                                  for p in sorted(by_priority)]
        weights = self._flat_weights
        # ``queued`` is this cycle's backlog snapshot (never mutated, so
        # membership stays queryable); ``gives`` accumulates grants.
        queued = [t.queued_bytes for t in flat]
        count = len(queued) - queued.count(0)
        gives = [0] * len(flat)
        remaining = capacity
        if count and remaining > 0:
            if self.guaranteed_share > 0:
                quantum = max(1, int(capacity * self.guaranteed_share)
                              // count)
                for i, pending in enumerate(queued):
                    if pending <= 0:
                        continue
                    if remaining <= 0:
                        break
                    give = quantum if quantum < pending else pending
                    if give > remaining:
                        give = remaining
                    gives[i] = give
                    remaining -= give
            for tier in self._tier_indices:
                if remaining <= 0:
                    break
                active = [i for i in tier if queued[i] - gives[i] > 0]
                while remaining > 0 and active:
                    total_weight = 0.0
                    for i in active:
                        total_weight += weights[i]
                    snapshot = remaining
                    for i in active:
                        quantum = int(snapshot * weights[i] / total_weight)
                        if quantum < 1:
                            quantum = 1
                        pending = queued[i] - gives[i]
                        give = quantum if quantum < pending else pending
                        if give > remaining:
                            give = remaining
                        gives[i] += give
                        remaining -= give
                        if remaining <= 0:
                            break
                    active = [i for i in active if queued[i] - gives[i] > 0]
        backlogged = [t for t, q in zip(flat, queued) if q > 0] \
            if want_backlogged else []
        grants = {alloc_id: give for alloc_id, give, q
                  in zip(self._flat_alloc_ids, gives, queued) if q > 0}
        return backlogged, grants, remaining

    @staticmethod
    def _fill(tconts: Sequence[TCont], grants: Dict[int, int],
              remaining: int, weight_of) -> int:
        """Progressive weighted filling until capacity or backlog runs out.

        Every pass hands each still-backlogged T-CONT a quantum
        proportional to its weight (at least one byte), capped at its
        remaining backlog — so the loop strictly progresses and stops
        exactly when capacity is spent or nothing is queued.
        """
        ordered = sorted(tconts, key=lambda t: t.alloc_id)
        while remaining > 0:
            active = [t for t in ordered
                      if t.queued_bytes - grants[t.alloc_id] > 0]
            if not active:
                break
            total_weight = sum(weight_of(t) for t in active)
            snapshot = remaining
            for tcont in active:
                if remaining <= 0:
                    break
                quantum = max(1, int(snapshot * weight_of(tcont) / total_weight))
                pending = tcont.queued_bytes - grants[tcont.alloc_id]
                give = min(quantum, pending, remaining)
                grants[tcont.alloc_id] += give
                remaining -= give
        return remaining
