"""GPON-style dynamic bandwidth allocation (DBA) for the upstream PON.

Upstream GPON is time-division multiplexed: ONUs may only transmit in
slots the OLT grants, and the DBA algorithm decides each cycle how the
shared upstream capacity is split across T-CONTs (transmission
containers, ITU-T G.984.3 — one queue per ONU x traffic class). This
module models that grant loop in bytes-per-cycle terms:

* :class:`TCont` — one upstream queue with a priority (0 = fixed ... 3 =
  best-effort, mirroring T-CONT types 1-4), a weight for fair sharing
  within its priority tier, and a FIFO request backlog: the shared
  :class:`~repro.traffic.profiles.RunQueue` plus a partially sent head;
* :class:`DbaScheduler` — the OLT-side allocator, one T-CONT per
  tenant; its :meth:`~DbaScheduler.run_cycle` grants a cycle and drains
  the granted T-CONTs, for the downstream plane's bounded queues too.
  The default ``fair`` policy is strict priority across tiers with
  weighted progressive filling inside a tier, plus a small guaranteed
  quantum for every backlogged T-CONT so low-priority queues are never
  starved outright.
  The ``proportional`` policy models the *absence* of coordinated DBA:
  capacity splits in proportion to offered backlog, which is exactly how
  a flooding tenant monopolizes an unscheduled shared medium (T8).

Both policies run the same progressive-fill loop over flat arrays cached
at registration; they differ only in its tiers, weights and guaranteed
round. ``tests/oracles.py`` keeps the per-policy reference allocator and
the reference drain they are differentially tested against.

Invariants (property-tested in ``tests/test_traffic.py``):

* granted bytes never exceed cycle capacity;
* the scheduler is work-conserving — it grants
  ``min(capacity, total_backlog)`` exactly;
* under ``fair``, every backlogged T-CONT receives a non-zero grant
  whenever capacity allows at least one byte each (starvation freedom);
* a grant never exceeds its T-CONT's backlog, so a drain sends it whole.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, Optional, Tuple, Union,
)

from repro.common.checks import require_positive
from repro.common.events import EventBus
from repro.traffic.profiles import Request, RunQueue, as_batch

__all__ = ["TCont", "Completions", "DrainResult", "DbaScheduler"]

POLICIES = ("fair", "proportional")

# Under ``fair``, the share of each cycle's capacity split evenly across
# the backlogged T-CONTs before the priority tiers are filled.
GUARANTEED_SHARE = 0.1

# Requests fully carried by one drain, run-length: (issued_at, count)
# pairs in completion order. Each one's latency is the drain's ``now``
# minus its ``issued_at``.
Completions = List[Tuple[float, int]]

# One drain's sent bytes and the requests they completed.
DrainResult = Tuple[int, Completions]


class TCont:
    """One upstream transmission container: a prioritised FIFO byte queue.

    The backlog is a :class:`~repro.traffic.profiles.RunQueue`, here
    unbounded. The T-CONT adds the partial head: ``_head_sent`` bytes of
    the queue's head request are already carried, as GEM fragmentation
    allows.
    """

    def __init__(self, alloc_id: int, serial: str, tenant: str,
                 priority: int = 2, weight: float = 1.0) -> None:
        if not 0 <= priority <= 3:
            raise ValueError("priority must be 0 (fixed) .. 3 (best effort)")
        require_positive("weight", weight)
        self.alloc_id = alloc_id
        self.serial = serial
        self.tenant = tenant
        self.priority = priority
        self.weight = float(weight)
        self.queue = RunQueue()
        self._head_sent = 0

    @property
    def queued_bytes(self) -> int:
        """Bytes still to carry (the partial head's sent bytes excluded)."""
        return self.queue.nbytes

    def drain(self, granted: int, now: float) -> DrainResult:
        """Transmit up to ``granted`` bytes; returns (sent, completions).

        Requests complete only when their last byte is carried; a grant
        that ends mid-request leaves the remainder at the head of the
        queue for the next cycle. Each popped run's completions are
        counted, not built.
        """
        if granted < 0:
            raise ValueError("grant must be non-negative")
        queue = self.queue
        # The budget counts the head request's already-sent bytes too,
        # so a request completes when its whole size fits the budget.
        budget = granted + self._head_sent
        runs, popped = queue.pop(budget)
        left = budget - popped
        # Whatever is left is sent of the (new) head request, if any;
        # the queue's byte total counts only what is still to carry.
        head_sent = left if queue.runs else 0
        queue.nbytes += self._head_sent - head_sent
        self._head_sent = head_sent
        completed: Completions = []
        for issued_at, sizes in runs:
            completed.append((issued_at, len(sizes)))
        return granted - (left - head_sent), completed


class DbaScheduler:
    """The OLT's grant allocator across registered T-CONTs, one per
    tenant."""

    def __init__(self, policy: str = "fair", bus: Optional[EventBus] = None,
                 name: str = "dba") -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.policy = policy
        self.name = name
        self._bus = bus
        # Tenant -> T-CONT, in alloc-id (registration) order.
        self._tconts: Dict[str, TCont] = {}
        self._next_alloc_id = 1
        self.cycles_run = 0
        # The grant loop's static structures, rebuilt lazily after a
        # registration: T-CONTs flattened in alloc-id order with parallel
        # weight arrays, and per-tier index lists (priorities ascending
        # under ``fair``, one tier of every T-CONT under
        # ``proportional``). Registration-time weight/priority are cached
        # — the loop assumes they are not mutated mid-flight.
        self._flat: Optional[List[TCont]] = None
        self._flat_weights: List[float] = []
        self._flat_alloc_ids: List[int] = []
        self._tier_indices: List[List[int]] = []

    # -- registration -----------------------------------------------------------

    def register_tcont(self, serial: str, tenant: str, priority: int = 2,
                       weight: float = 1.0,
                       factory: Callable[..., TCont] = TCont) -> TCont:
        """Create a tenant's one T-CONT; returns it.

        ``factory`` lets callers register :class:`TCont` subclasses (the
        downstream plane's bounded queues) into the same allocator — the
        cached flat weight/priority arrays are rebuilt either way.
        """
        if tenant in self._tconts:
            raise ValueError(f"tenant {tenant} already has a T-CONT")
        tcont = factory(self._next_alloc_id, serial, tenant,
                        priority=priority, weight=weight)
        self._tconts[tenant] = tcont
        self._next_alloc_id += 1
        self._flat = None
        return tcont

    def tcont(self, tenant: str) -> TCont:
        try:
            return self._tconts[tenant]
        except KeyError:
            raise KeyError(f"tenant {tenant} has no T-CONT") from None

    def tconts(self) -> List[TCont]:
        """Every T-CONT, in alloc-id (registration) order."""
        return list(self._tconts.values())

    def total_backlog(self) -> int:
        return sum(t.queued_bytes for t in self._tconts.values())

    # -- the cycle --------------------------------------------------------------

    def enqueue(self, requests: Union[Request, Iterable[Request]]) -> int:
        """Queue one request or a batch on its tenants' T-CONTs; returns
        how many were queued (a bounded queue tail-drops the rest)."""
        tconts = self._tconts
        queued = 0
        for tenant, issued_at, sizes in as_batch(requests).runs:
            try:
                tcont = tconts[tenant]
            except KeyError:
                raise KeyError(f"tenant {tenant} has no T-CONT") from None
            queued += tcont.queue.push(issued_at, sizes)
        return queued

    def run_cycle(self, capacity_bytes: int,
                  now: float = 0.0) -> Dict[str, DrainResult]:
        """Grant one cycle's capacity and drain every granted T-CONT;
        returns ``tenant -> (sent_bytes, completions)`` for each, in
        alloc-id order."""
        grants = self.grant(capacity_bytes, now)
        results: Dict[str, DrainResult] = {}
        for tcont, alloc_id in zip(self._flat, self._flat_alloc_ids):
            granted = grants.get(alloc_id, 0)
            if granted > 0:
                results[tcont.tenant] = tcont.drain(granted, now)
        return results

    # -- the grant loop ---------------------------------------------------------

    def grant(self, capacity_bytes: int, now: float = 0.0) -> Dict[int, int]:
        """Allocate one cycle's upstream capacity; returns alloc_id -> bytes.

        Grants are computed against current backlog and always sum to
        ``min(capacity_bytes, total_backlog)``. The map holds every
        backlogged T-CONT in alloc-id order.

        Both policies run one progressive-fill loop over flat arrays
        cached at registration. ``fair`` first hands every backlogged
        T-CONT an equal part of :data:`GUARANTEED_SHARE` of the capacity,
        then walks its priority tiers in ascending order, filling each by
        registration weight.
        ``proportional`` fills one tier of all T-CONTs, weighted by each
        one's pending bytes at the start of every pass. Every pass gives
        each still-backlogged T-CONT a quantum proportional to its
        weight (at least one byte), capped at its pending bytes, so the
        loop stops exactly when capacity or backlog runs out.
        """
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        flat = self._flat
        if flat is None:
            flat = self._flat = list(self._tconts.values())
            self._flat_weights = [t.weight for t in flat]
            self._flat_alloc_ids = [t.alloc_id for t in flat]
            if self.policy == "fair":
                by_priority: Dict[int, List[int]] = {}
                for index, tcont in enumerate(flat):
                    by_priority.setdefault(tcont.priority, []).append(index)
                self._tier_indices = [by_priority[p]
                                      for p in sorted(by_priority)]
            else:
                self._tier_indices = [list(range(len(flat)))]
        fair = self.policy == "fair"
        weights = self._flat_weights
        # ``queued`` is this cycle's backlog snapshot (never mutated, so
        # membership stays queryable); ``gives`` accumulates grants.
        queued = [t.queue.nbytes for t in flat]
        count = len(queued) - queued.count(0)
        gives = [0] * len(flat)
        remaining = capacity_bytes
        if count and remaining > 0:
            if fair:
                quantum = max(1, int(capacity_bytes * GUARANTEED_SHARE)
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
                    if not fair:
                        weights = [float(q - g)
                                   for q, g in zip(queued, gives)]
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
        grants = {alloc_id: give for alloc_id, give, q
                  in zip(self._flat_alloc_ids, gives, queued) if q > 0}
        self.cycles_run += 1
        if self._bus is not None:
            granted_total = capacity_bytes - remaining
            self._bus.emit(
                "pon.dba.grant", self.name, now,
                cycle=self.cycles_run, capacity_bytes=capacity_bytes,
                granted_bytes=granted_total,
                backlog_bytes=self.total_backlog() - granted_total,
                tconts=dict(grants))
        return grants
