"""Per-tenant QoS enforcement: token buckets, admission, backpressure.

Sits between workload generation and the DBA grant loop — the policing
point where M17/M18's "a tenant is entitled to what it leased, no more"
becomes mechanical. Each tenant gets a :class:`TokenBucket` sized from
its subscribed rate plus a bounded admission queue:

* requests within rate are **admitted** immediately;
* requests over rate are **queued** while the queue has room (and
  **released** in later cycles as tokens refill);
* once the queue is full, requests are **dropped**.

One enforcer polices one direction (``direction="upstream"`` by
default); a bidirectional plant runs two instances over the same
machinery, and every counter and bus event carries the direction label.

Crossing the queue's high watermark publishes a ``qos.backpressure``
event on the bus (cleared on falling below the low watermark), and each
cycle with drops publishes one aggregated ``qos.drop`` event per tenant —
the signals the monitoring stack correlates with abuse findings.

Telemetry invariant: ``traffic_requests_total`` counts *terminal*
outcomes only (``admitted``/``released``/``dropped``), so its sum over
outcomes equals the number of offered requests once queues drain —
entering the queue is transient and counted separately in
``traffic_queued_requests_total``. (The original scheme counted a
queued request again on release, over-crediting bursty tenants in any
share math built on the counters.)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.common import telemetry
from repro.common.events import EventBus
from repro.traffic.profiles import Request, RequestBatch, as_batch

__all__ = ["TokenBucket", "TenantPolicy", "QosEnforcer"]

# Token spends are exact below 2**53. There a float's ulp is at most 1,
# so for a float ``x < 2**53`` and an int ``0 <= n <= x`` the exact
# difference ``x - n`` is a multiple of that ulp no larger than ``x``,
# and the float subtraction returns it unrounded. Spending int sizes one
# by one from a token count in that range therefore equals spending
# their sum once, which lets admission charge a whole run prefix in one
# subtraction.
EXACT_TOKEN_LIMIT = 2 ** 53


class TokenBucket:
    """A classic token bucket: ``rate_bps`` sustained, ``burst_bytes`` deep.

    The bucket starts full. Over any interval it therefore admits at most
    ``burst_bytes + rate_bps/8 * elapsed`` bytes — the invariant the
    property tests pin down. ``burst_bytes`` stays below 2**53, the range
    in which integer token spends are exact (see ``EXACT_TOKEN_LIMIT``).
    """

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        if not (rate_bps > 0 and math.isfinite(rate_bps)):
            raise ValueError("rate_bps must be positive and finite")
        if burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")
        if burst_bytes >= EXACT_TOKEN_LIMIT:
            raise ValueError("burst_bytes must be below 2**53")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_refill = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self._tokens = min(
                float(self.burst_bytes),
                self._tokens + (now - self._last_refill) * self.rate_bps / 8.0)
            self._last_refill = now

    def allow(self, size_bytes: int, now: float) -> bool:
        """Spend ``size_bytes`` tokens if available; refills from ``now``."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        self._refill(now)
        if size_bytes <= self._tokens:
            self._tokens -= size_bytes
            return True
        return False


@dataclass
class TenantPolicy:
    """One tenant's enforcement state.

    ``queue`` holds the tenant's waiting requests as runs ``(issued_at,
    sizes)`` in FIFO order, consecutive runs with distinct issue times;
    the first ``queue_head`` requests of ``queue[0]`` are already
    released. ``dropped_bytes`` is the lifetime total; ``_cycle_drops``
    and ``_cycle_drop_bytes`` accumulate within one cycle and are reset
    by :meth:`QosEnforcer.cycle_end` after the aggregated ``qos.drop``
    event is flushed.
    """

    tenant: str
    bucket: TokenBucket
    queue_limit_bytes: int
    queue: Deque[Tuple[float, List[int]]]
    queue_head: int = 0
    queued_bytes: int = 0
    backpressured: bool = False
    admitted_bytes: int = 0
    dropped_bytes: int = 0
    dropped_requests: int = 0
    _cycle_drops: int = 0
    _cycle_drop_bytes: int = 0

    def _enqueue(self, issued_at: float, sizes: List[int]) -> None:
        # ``sizes`` is a list the caller built for the queue, so a run
        # with the tail's issue time can be merged into it in place.
        queue = self.queue
        if queue and queue[-1][0] == issued_at:
            queue[-1][1].extend(sizes)
        else:
            queue.append((issued_at, sizes))


class QosEnforcer:
    """Admission control for every tenant sharing one upstream plant."""

    HIGH_WATERMARK = 0.8
    LOW_WATERMARK = 0.5

    def __init__(self, bus: Optional[EventBus] = None, name: str = "qos",
                 registry: Optional[telemetry.MetricsRegistry] = None,
                 direction: str = "upstream") -> None:
        if direction not in ("upstream", "downstream"):
            raise ValueError("direction must be 'upstream' or 'downstream'")
        self.name = name
        self.direction = direction
        self._bus = bus
        self._policies: Dict[str, TenantPolicy] = {}
        metrics = registry if registry is not None else telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._requests_counter = metrics.counter(
                "traffic_requests_total",
                "Tenant requests, by direction and terminal admission "
                "outcome (admitted/released/dropped).",
                ("tenant", "direction", "outcome"))
            self._bytes_counter = metrics.counter(
                "traffic_bytes_total",
                "Tenant bytes, by direction and terminal admission outcome.",
                ("tenant", "direction", "outcome"))
            self._queued_counter = metrics.counter(
                "traffic_queued_requests_total",
                "Requests that entered the admission queue (transient; "
                "they terminate later as released or never, not both).",
                ("tenant", "direction"))
            self._queued_bytes_counter = metrics.counter(
                "traffic_queued_bytes_total",
                "Bytes that entered the admission queue (transient).",
                ("tenant", "direction"))

    def add_tenant(self, tenant: str, rate_bps: float,
                   burst_bytes: Optional[int] = None,
                   queue_limit_bytes: Optional[int] = None) -> TenantPolicy:
        """Register a tenant's subscribed rate; returns its policy."""
        if tenant in self._policies:
            raise ValueError(f"tenant {tenant} already registered")
        if not (rate_bps > 0 and math.isfinite(rate_bps)):
            raise ValueError("rate_bps must be positive and finite")
        burst = burst_bytes if burst_bytes is not None else max(
            1, int(rate_bps / 8 * 0.1))          # 100 ms of line rate
        queue_limit = queue_limit_bytes if queue_limit_bytes is not None \
            else burst * 4
        policy = TenantPolicy(tenant=tenant,
                              bucket=TokenBucket(rate_bps, burst),
                              queue_limit_bytes=queue_limit,
                              queue=deque())
        self._policies[tenant] = policy
        return policy

    def policy(self, tenant: str) -> TenantPolicy:
        policy = self._policies.get(tenant)
        if policy is None:
            raise KeyError(f"tenant {tenant} is not registered with QoS")
        return policy

    # -- admission --------------------------------------------------------------

    def submit(self, request: Request, now: float) -> str:
        """Police one request; returns 'admitted', 'queued' or 'dropped'."""
        policy = self.policy(request.tenant)
        if not policy.queue and policy.bucket.allow(request.size_bytes, now):
            self._account(policy, request, "admitted")
            return "admitted"
        if policy.queued_bytes + request.size_bytes <= policy.queue_limit_bytes:
            policy._enqueue(request.issued_at, [request.size_bytes])
            policy.queued_bytes += request.size_bytes
            self._account(policy, request, "queued")
            self._check_backpressure(policy, now)
            return "queued"
        policy.dropped_requests += 1
        policy.dropped_bytes += request.size_bytes
        policy._cycle_drops += 1
        policy._cycle_drop_bytes += request.size_bytes
        self._account(policy, request, "dropped")
        return "dropped"

    def admit(self, requests: Sequence[Request], now: float) -> RequestBatch:
        """Police a batch: drain queued backlog first, then new arrivals.

        Returns every request admitted this cycle: each tenant's
        releases (tenants in registration order), then each arrival
        run's admitted requests in input order — FIFO within a tenant.

        This is the run-based admission path. A :class:`RequestBatch`
        is policed run by run; any other sequence is first grouped into
        runs of consecutive requests sharing tenant and issue time.
        While a tenant's queue is empty, a run's admitted requests are
        the longest prefix whose running total fits the tokens, charged
        in one exact spend (see ``EXACT_TOKEN_LIMIT``); the queue-or-drop
        decisions after it stay per request, because a smaller later
        request can still fit after a larger one drops. Telemetry is one
        counter ``inc`` per ``(run, outcome)``. :meth:`admit_reference`
        is the per-request oracle a property test pins this path
        against.
        """
        admitted = RequestBatch()
        for policy in self._policies.values():
            if policy.queue:
                self._drain_queue(policy, now, admitted)
        for tenant, issued_at, sizes in as_batch(requests).runs:
            admitted.add_run(tenant, issued_at, self._admit_run(
                self.policy(tenant), issued_at, sizes, now))
        self.cycle_end(now)
        return admitted

    def admit_reference(self, requests: Sequence[Request],
                        now: float) -> List[Request]:
        """The per-request admission path :meth:`admit` must match.

        Kept as the oracle: property tests assert :meth:`admit` produces
        identical outcomes, policy state and bus events, and the E20
        benchmark measures the run-based path's speedup against it.
        """
        released = RequestBatch()
        for policy in self._policies.values():
            if policy.queue:
                self._drain_queue(policy, now, released)
        admitted = list(released)
        for request in requests:
            if self.submit(request, now) == "admitted":
                admitted.append(request)
        self.cycle_end(now)
        return admitted

    def _admit_run(self, policy: TenantPolicy, issued_at: float,
                   sizes: List[int], now: float) -> List[int]:
        """Decide one arrival run; returns the admitted sizes in order.

        One bucket refill up front, one token writeback at the end.
        Outcomes, including the per-request backpressure checks on the
        queued path, are those of :meth:`submit` applied in order.
        """
        bucket = policy.bucket
        bucket._refill(now)
        tokens = bucket._tokens
        if policy.queue:
            admitted: List[int] = []
            admitted_bytes = 0
        else:
            ends = list(accumulate(sizes))
            fits = bisect_right(ends, tokens)
            if fits == len(sizes):
                admitted = sizes
                admitted_bytes = ends[-1]
            else:
                admitted = sizes[:fits]
                admitted_bytes = ends[fits - 1] if fits else 0
            tokens -= admitted_bytes
        queued: List[int] = []
        queued_bytes = dropped_n = dropped_bytes = 0
        if len(admitted) < len(sizes):
            queue_limit = policy.queue_limit_bytes
            for size in islice(sizes, len(admitted), None):
                if not queued and not policy.queue and size <= tokens:
                    # Only reachable after a drop left the queue empty.
                    tokens -= size
                    admitted.append(size)
                    admitted_bytes += size
                elif policy.queued_bytes + size <= queue_limit:
                    queued.append(size)
                    queued_bytes += size
                    policy.queued_bytes += size
                    self._check_backpressure(policy, now)
                else:
                    dropped_n += 1
                    dropped_bytes += size
            if queued:
                policy._enqueue(issued_at, queued)
            if dropped_n:
                policy.dropped_requests += dropped_n
                policy.dropped_bytes += dropped_bytes
                policy._cycle_drops += dropped_n
                policy._cycle_drop_bytes += dropped_bytes
        bucket._tokens = tokens
        policy.admitted_bytes += admitted_bytes
        if self._metrics is not None:
            for outcome, count, nbytes in (
                    ("admitted", len(admitted), admitted_bytes),
                    ("dropped", dropped_n, dropped_bytes)):
                if count:
                    self._requests_counter.inc(
                        count, tenant=policy.tenant,
                        direction=self.direction, outcome=outcome)
                    self._bytes_counter.inc(
                        nbytes, tenant=policy.tenant,
                        direction=self.direction, outcome=outcome)
            if queued:
                self._queued_counter.inc(len(queued), tenant=policy.tenant,
                                         direction=self.direction)
                self._queued_bytes_counter.inc(
                    queued_bytes, tenant=policy.tenant,
                    direction=self.direction)
        return admitted

    def _drain_queue(self, policy: TenantPolicy, now: float,
                     released: RequestBatch) -> None:
        """Release the longest queue prefix the refilled tokens cover.

        Appends the released runs to ``released``; equal to spending
        :meth:`TokenBucket.allow` on each head request until one does
        not fit (see ``EXACT_TOKEN_LIMIT``).
        """
        bucket = policy.bucket
        bucket._refill(now)
        tokens = bucket._tokens
        queue = policy.queue
        released_n = released_bytes = 0
        while queue:
            issued_at, sizes = queue[0]
            head = policy.queue_head
            ends = list(accumulate(islice(sizes, head, None)))
            fits = bisect_right(ends, tokens)
            if not fits:
                break
            tokens -= ends[fits - 1]
            released_n += fits
            released_bytes += ends[fits - 1]
            if fits == len(ends):
                queue.popleft()
                policy.queue_head = 0
                released.add_run(policy.tenant, issued_at,
                                 sizes[head:] if head else sizes)
            else:
                policy.queue_head = head + fits
                released.add_run(policy.tenant, issued_at,
                                 sizes[head:head + fits])
                break
        bucket._tokens = tokens
        # The watermark can only have moved if something left the queue;
        # skip the no-op check (and its fill arithmetic) otherwise.
        # Releases are a distinct terminal outcome (the request was
        # already counted "queued" once) and their telemetry is batched:
        # one inc per tenant per drain, like _admit_run.
        if released_n:
            policy.queued_bytes -= released_bytes
            policy.admitted_bytes += released_bytes
            if self._metrics is not None:
                self._requests_counter.inc(
                    released_n, tenant=policy.tenant,
                    direction=self.direction, outcome="released")
                self._bytes_counter.inc(
                    released_bytes, tenant=policy.tenant,
                    direction=self.direction, outcome="released")
            self._check_backpressure(policy, now)

    def cycle_end(self, now: float) -> None:
        """Flush aggregated per-cycle drop events.

        Each tenant with drops this cycle gets one ``qos.drop`` event
        whose ``dropped``/``dropped_bytes`` are *this cycle's* counts
        (reset afterwards); the lifetime total rides along as
        ``dropped_bytes_total``.
        """
        if self._bus is None:
            for policy in self._policies.values():
                policy._cycle_drops = 0
                policy._cycle_drop_bytes = 0
            return
        for policy in self._policies.values():
            if policy._cycle_drops:
                self._bus.emit(
                    "qos.drop", self.name, now, tenant=policy.tenant,
                    direction=self.direction,
                    dropped=policy._cycle_drops,
                    dropped_bytes=policy._cycle_drop_bytes,
                    dropped_bytes_total=policy.dropped_bytes)
                policy._cycle_drops = 0
                policy._cycle_drop_bytes = 0

    # -- internals --------------------------------------------------------------

    def _account(self, policy: TenantPolicy, request: Request,
                 outcome: str) -> None:
        if outcome == "admitted":
            policy.admitted_bytes += request.size_bytes
        if self._metrics is None:
            return
        if outcome == "queued":
            # Transient, not terminal — a queued request terminates later
            # as released (or sits in the queue), so it must not land in
            # traffic_requests_total or the outcome sum would exceed the
            # offered count.
            self._queued_counter.inc(tenant=policy.tenant,
                                     direction=self.direction)
            self._queued_bytes_counter.inc(request.size_bytes,
                                           tenant=policy.tenant,
                                           direction=self.direction)
            return
        self._requests_counter.inc(tenant=policy.tenant,
                                   direction=self.direction, outcome=outcome)
        self._bytes_counter.inc(request.size_bytes, tenant=policy.tenant,
                                direction=self.direction, outcome=outcome)

    def _check_backpressure(self, policy: TenantPolicy, now: float) -> None:
        fill = (policy.queued_bytes / policy.queue_limit_bytes
                if policy.queue_limit_bytes else 0.0)
        if not policy.backpressured and fill >= self.HIGH_WATERMARK:
            policy.backpressured = True
            if self._bus is not None:
                self._bus.emit("qos.backpressure", self.name, now,
                               tenant=policy.tenant, state="asserted",
                               direction=self.direction,
                               queue_fill=round(fill, 3))
        elif policy.backpressured and fill <= self.LOW_WATERMARK:
            policy.backpressured = False
            if self._bus is not None:
                self._bus.emit("qos.backpressure", self.name, now,
                               tenant=policy.tenant, state="cleared",
                               direction=self.direction,
                               queue_fill=round(fill, 3))
