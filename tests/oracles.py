"""Reference implementations the traffic plane's fast paths must match.

Each oracle is the straightforward computation a shipped fast path
replaced, kept here as an independent reference rather than inside the
package, where it could be selected as a production mode:

* :func:`reference_grants` / :func:`grant` — the per-policy DBA
  allocator: for ``fair`` a guaranteed round, then a progressive fill
  per priority tier by registration weight; for ``proportional`` one
  progressive fill weighted by pending bytes. The shipped
  ``DbaScheduler.grant`` runs both policies through one cached
  flat-array loop;
* :func:`run_cycle` — a downstream cycle whose allocation is
  :func:`grant`, against ``DownstreamScheduler.run_cycle``;
* :func:`admit` — per-request admission through
  ``QosEnforcer.submit``, against the run-based ``QosEnforcer.admit``.

:func:`assert_matches_oracle` is the differential harness: it drives two
identically built subjects, one through the shipped method and one
through the oracle, and asserts equal return values, equal state after
every call and equal bus histories. The E19, E20 and E21 benchmarks time
their "before" rows with these oracles.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.common.events import EventBus
from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import DownstreamScheduler, DrainResult
from repro.traffic.profiles import Request
from repro.traffic.qos import QosEnforcer

__all__ = [
    "admit", "assert_matches_oracle", "dba_state", "downstream_state",
    "grant", "qos_state", "reference_grants", "run_cycle",
]


# ---------------------------------------------------------------------------
# DBA: the per-policy reference allocator
# ---------------------------------------------------------------------------


def reference_grants(scheduler: DbaScheduler, capacity_bytes: int
                     ) -> Tuple[List[TCont], Dict[int, int], int]:
    """One cycle's allocation over ``scheduler``'s T-CONTs, side-effect free.

    Returns ``(backlogged, grants, remaining)``: the backlogged T-CONTs
    in alloc-id order, their grant map and the capacity left over.
    """
    backlogged = [t for t in scheduler.tconts() if t.queued_bytes > 0]
    grants = {t.alloc_id: 0 for t in backlogged}
    remaining = capacity_bytes
    if backlogged and remaining > 0:
        if scheduler.policy == "fair":
            remaining = _grant_guaranteed(
                scheduler.guaranteed_share, backlogged, grants,
                capacity_bytes, remaining)
            remaining = _grant_priority_tiers(backlogged, grants, remaining)
        else:
            remaining = _fill(
                backlogged, grants, remaining,
                lambda t: float(t.queued_bytes - grants[t.alloc_id]))
    return backlogged, grants, remaining


def grant(scheduler: DbaScheduler, capacity_bytes: int,
          now: float = 0.0) -> Dict[int, int]:
    """The reference ``DbaScheduler.grant``: allocate, count the cycle and
    publish its ``pon.dba.grant`` event."""
    if capacity_bytes < 0:
        raise ValueError("capacity must be non-negative")
    backlogged, grants, remaining = reference_grants(scheduler,
                                                     capacity_bytes)
    scheduler.cycles_run += 1
    if scheduler._bus is not None:
        granted_total = capacity_bytes - remaining
        scheduler._bus.emit(
            "pon.dba.grant", scheduler.name, now,
            cycle=scheduler.cycles_run, capacity_bytes=capacity_bytes,
            granted_bytes=granted_total,
            backlog_bytes=scheduler.total_backlog() - granted_total,
            tconts={t.alloc_id: grants.get(t.alloc_id, 0)
                    for t in backlogged})
    return grants


def _grant_guaranteed(guaranteed_share: float, backlogged: Sequence[TCont],
                      grants: Dict[int, int], capacity: int,
                      remaining: int) -> int:
    """The anti-starvation round: a small quantum for every queue."""
    if guaranteed_share <= 0:
        return remaining
    quantum = max(1, int(capacity * guaranteed_share) // len(backlogged))
    for tcont in backlogged:
        if remaining <= 0:
            break
        give = min(quantum, tcont.queued_bytes, remaining)
        grants[tcont.alloc_id] += give
        remaining -= give
    return remaining


def _grant_priority_tiers(backlogged: Sequence[TCont],
                          grants: Dict[int, int], remaining: int) -> int:
    """Strict priority across tiers, weighted fair filling within one."""
    for priority in sorted({t.priority for t in backlogged}):
        if remaining <= 0:
            break
        tier = [t for t in backlogged if t.priority == priority]
        remaining = _fill(tier, grants, remaining, lambda t: t.weight)
    return remaining


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


# ---------------------------------------------------------------------------
# Downstream: one cycle on the reference allocator
# ---------------------------------------------------------------------------


def run_cycle(scheduler: DownstreamScheduler, capacity_bytes: int,
              now: float = 0.0) -> Dict[str, DrainResult]:
    """The reference ``DownstreamScheduler.run_cycle``: allocate with
    :func:`grant`, then drain each granted queue in alloc-id order."""
    allocator = scheduler._allocator
    grants = grant(allocator, capacity_bytes, now=now)
    scheduler.cycles_run += 1
    results: Dict[str, DrainResult] = {}
    sent_total = 0
    for queue in allocator.tconts():
        granted = grants.get(queue.alloc_id, 0)
        if granted <= 0:
            continue
        sent, completed = queue.drain(granted, now)
        sent_total += sent
        results[queue.tenant] = (sent, completed)
    if scheduler._bus is not None:
        scheduler._bus.emit(
            "pon.downstream.grant", scheduler.name, now,
            cycle=scheduler.cycles_run, capacity_bytes=capacity_bytes,
            granted_bytes=sent_total,
            backlog_bytes=scheduler.total_backlog(),
            queues={alloc_id: granted
                    for alloc_id, granted in grants.items()
                    if granted > 0})
    return results


# ---------------------------------------------------------------------------
# QoS: per-request admission
# ---------------------------------------------------------------------------


def admit(enforcer: QosEnforcer, requests: Sequence[Request],
          now: float) -> List[Request]:
    """The per-request admission ``QosEnforcer.admit`` must match: the
    queued backlog's releases, then ``submit`` on each arrival in order,
    then the cycle's drop events."""
    admitted = list(enforcer._release(now))
    for request in requests:
        if enforcer.submit(request, now) == "admitted":
            admitted.append(request)
    enforcer.cycle_end(now)
    return admitted


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------


def _queue_state(tcont: TCont) -> Tuple[Any, ...]:
    queue = tcont.queue
    return (tcont.alloc_id, tcont.tenant, queue.nbytes, queue.head,
            [(issued_at, list(sizes)) for issued_at, sizes in queue.runs],
            tcont._head_sent, queue.dropped_requests, queue.dropped_bytes)


def dba_state(scheduler: DbaScheduler) -> Tuple[Any, ...]:
    """Cycle count plus every T-CONT's backlog, partial head and drops."""
    return (scheduler.cycles_run,
            [_queue_state(t) for t in scheduler.tconts()])


def downstream_state(scheduler: DownstreamScheduler) -> Tuple[Any, ...]:
    """Cycle counts plus every queue's backlog, partial head and drops."""
    return (scheduler.cycles_run, dba_state(scheduler._allocator))


def qos_state(enforcer: QosEnforcer) -> Tuple[Any, ...]:
    """Every tenant policy's queue, bucket and counters, plus the metrics
    registry's samples."""
    policies = []
    for tenant in sorted(enforcer._policies):
        policy = enforcer.policy(tenant)
        queue = policy.queue
        policies.append((
            tenant, policy.admitted_bytes, policy.backpressured,
            policy._cycle_drops, policy._cycle_drop_bytes,
            queue.nbytes, queue.head,
            [(issued_at, list(sizes)) for issued_at, sizes in queue.runs],
            queue.dropped_requests, queue.dropped_bytes,
            # Exact float equality: integer spends below 2**53 are exact.
            policy.bucket._tokens, policy.bucket._last_refill))
    metrics = enforcer._metrics
    return policies, metrics.snapshot() if metrics is not None else None


def _history(bus: Optional[EventBus]) -> List[Tuple[Any, ...]]:
    if bus is None:
        return []
    return [(e.topic, e.timestamp, e.source, e.payload)
            for e in bus.history()]


def assert_matches_oracle(
        build: Callable[[], Tuple[Any, Optional[EventBus]]],
        calls: Sequence[Tuple[Any, ...]],
        shipped: Callable[..., Any], oracle: Callable[..., Any],
        state: Callable[[Any], Any]) -> List[Any]:
    """Drive a shipped fast path and its oracle through the same calls.

    ``build()`` returns a fresh ``(subject, bus)`` and is called twice,
    so both subjects start identical. Each item of ``calls`` is one
    call's argument tuple: ``shipped(subject, *args)`` runs on one
    subject, ``oracle(subject, *args)`` on the other. After every call
    the return values and ``state(subject)`` must be equal; after the
    last, so must the bus histories (topic, timestamp, source and
    payload of every event, in order). Returns the shipped results.
    """
    fast, fast_bus = build()
    reference, reference_bus = build()
    results = []
    for index, args in enumerate(calls):
        result = shipped(fast, *args)
        expected = oracle(reference, *args)
        assert result == expected, f"call {index}: return values differ"
        assert state(fast) == state(reference), f"call {index}: state differs"
        results.append(result)
    assert _history(fast_bus) == _history(reference_bus), \
        "bus histories differ"
    return results
