"""Per-tenant QoS enforcement: token buckets, admission, backpressure.

Sits between workload generation and the DBA grant loop — the policing
point where M17/M18's "a tenant is entitled to what it leased, no more"
becomes mechanical. Each tenant gets a :class:`TokenBucket` sized from
its subscribed rate plus a bounded admission queue:

* requests within rate are **admitted** immediately;
* requests over rate are **queued** while the queue has room (and
  **released** in later cycles as tokens refill);
* once the queue is full, requests are **dropped**.

A tenant's bucket holds :data:`BURST_S` (100 ms) of its rate, and its
queue :data:`QUEUE_BURSTS` (four) such bursts. The queue is the traffic
plane's shared :class:`~repro.traffic.profiles.RunQueue`: it keeps the
runs, the byte total and the tail drops, and a release is its
whole-request pop. QoS adds its own rules on top: the token spend,
admission of a later request that fits the tokens after a drop left the
queue empty, and the watermark events.

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

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from repro.common import telemetry
from repro.common.checks import require_positive
from repro.common.events import EventBus
from repro.traffic.profiles import Request, RequestBatch, RunQueue, as_batch

__all__ = ["TokenBucket", "TenantPolicy", "QosEnforcer"]

# Token spends are exact below 2**53. There a float's ulp is at most 1,
# so for a float ``x < 2**53`` and an int ``0 <= n <= x`` the exact
# difference ``x - n`` is a multiple of that ulp no larger than ``x``,
# and the float subtraction returns it unrounded. Spending int sizes one
# by one from a token count in that range therefore equals spending
# their sum once, which lets admission charge a whole run prefix in one
# subtraction.
EXACT_TOKEN_LIMIT = 2 ** 53

# A tenant's bucket depth in seconds of its rate, and its admission
# queue's limit in bucket depths.
BURST_S = 0.1
QUEUE_BURSTS = 4


class TokenBucket:
    """A classic token bucket: ``rate_bps`` sustained, ``burst_bytes`` deep.

    The bucket starts full. Over any interval it therefore admits at most
    ``burst_bytes + rate_bps/8 * elapsed`` bytes — the invariant the
    property tests pin down. ``burst_bytes`` stays below 2**53, the range
    in which integer token spends are exact (see ``EXACT_TOKEN_LIMIT``).
    """

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        require_positive("rate_bps", rate_bps)
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

    ``queue`` holds the tenant's waiting requests; its limit is
    :data:`QUEUE_BURSTS` bucket depths, and its tail drops are the
    tenant's drops (``dropped_requests``/``dropped_bytes``,
    lifetime totals). ``_cycle_drops`` and ``_cycle_drop_bytes``
    accumulate within one cycle and are reset by
    :meth:`QosEnforcer.cycle_end` after the aggregated ``qos.drop``
    event is flushed.
    """

    tenant: str
    bucket: TokenBucket
    queue: RunQueue
    backpressured: bool = False
    admitted_bytes: int = 0
    _cycle_drops: int = 0
    _cycle_drop_bytes: int = 0

    @property
    def queued_bytes(self) -> int:
        return self.queue.nbytes

    @property
    def dropped_requests(self) -> int:
        return self.queue.dropped_requests

    @property
    def dropped_bytes(self) -> int:
        return self.queue.dropped_bytes


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

    def add_tenant(self, tenant: str, rate_bps: float) -> TenantPolicy:
        """Register a tenant's subscribed rate; returns its policy.

        The bucket holds :data:`BURST_S` of ``rate_bps`` (at least one
        byte) and the queue :data:`QUEUE_BURSTS` bucket depths.
        """
        if tenant in self._policies:
            raise ValueError(f"tenant {tenant} already registered")
        require_positive("rate_bps", rate_bps)
        burst = max(1, int(rate_bps / 8 * BURST_S))
        policy = TenantPolicy(tenant=tenant,
                              bucket=TokenBucket(rate_bps, burst),
                              queue=RunQueue(burst * QUEUE_BURSTS))
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
        size = request.size_bytes
        if not policy.queue.runs and policy.bucket.allow(size, now):
            policy.admitted_bytes += size
            self._count(policy, "admitted", 1, size)
            return "admitted"
        if policy.queue.push(request.issued_at, (size,)):
            self._count(policy, "queued", 1, size)
            self._check_backpressure(policy, now)
            return "queued"
        policy._cycle_drops += 1
        policy._cycle_drop_bytes += size
        self._count(policy, "dropped", 1, size)
        return "dropped"

    def admit(self, requests: Sequence[Request], now: float) -> RequestBatch:
        """Police a batch: release queued backlog first, then new arrivals.

        Returns every request admitted this cycle: each tenant's
        releases (tenants in registration order), then each arrival
        run's admitted requests in input order — FIFO within a tenant.

        This is the run-based admission path. A :class:`RequestBatch`
        is policed run by run; any other sequence is first grouped into
        runs of consecutive requests sharing tenant and issue time.
        While a tenant's queue is empty, a run's admitted requests are
        the longest prefix whose running total fits the tokens, charged
        in one exact spend (see ``EXACT_TOKEN_LIMIT``); the rest of the
        run is pushed onto the queue, which keeps or tail-drops each
        request. Telemetry is one counter ``inc`` per ``(run,
        outcome)``. The outcomes, state and events are those of
        :meth:`submit` applied to each request in order; a property test
        pins this path against that per-request oracle (``tests/oracles.py``).
        """
        admitted = self._release(now)
        for tenant, issued_at, sizes in as_batch(requests).runs:
            admitted.add_run(tenant, issued_at, self._admit_run(
                self.policy(tenant), issued_at, sizes, now))
        self.cycle_end(now)
        return admitted

    def _admit_run(self, policy: TenantPolicy, issued_at: float,
                   sizes: List[int], now: float) -> List[int]:
        """Decide one arrival run; returns the admitted sizes in order.

        One bucket refill up front, one token writeback at the end.
        Outcomes and bus events are those of :meth:`submit` applied to
        each request in order.
        """
        bucket = policy.bucket
        bucket._refill(now)
        tokens = bucket._tokens
        queue = policy.queue
        admitted: List[int] = []
        admitted_bytes = 0
        if not queue.runs:
            ends = list(accumulate(sizes))
            fits = bisect_right(ends, tokens)
            if fits:
                admitted = sizes if fits == len(sizes) else sizes[:fits]
                admitted_bytes = ends[fits - 1]
                tokens -= admitted_bytes
        queued_n = queued_bytes = dropped_n = dropped_bytes = 0
        if len(admitted) < len(sizes):
            queued_before = queue.nbytes
            index = len(admitted)
            # While the queue is empty, a request the tokens do not cover
            # is pushed: queued, or dropped if it alone exceeds the
            # limit, after which a smaller one may still fit the tokens.
            while index < len(sizes) and not queue.runs:
                size = sizes[index]
                if size <= tokens:
                    tokens -= size
                    admitted.append(size)
                    admitted_bytes += size
                else:
                    queued_n += queue.push(issued_at, (size,))
                index += 1
            queued_n += queue.push(issued_at, sizes[index:])
            queued_bytes = queue.nbytes - queued_before
            dropped_n = len(sizes) - len(admitted) - queued_n
            dropped_bytes = sum(sizes) - admitted_bytes - queued_bytes
            policy._cycle_drops += dropped_n
            policy._cycle_drop_bytes += dropped_bytes
            limit = queue.limit_bytes
            if (queued_n and not policy.backpressured
                    and queue.nbytes / limit >= self.HIGH_WATERMARK):
                # Assert where a check after each queued request would:
                # at the first of them (the queue's tail) to reach it.
                queued = queued_before
                for size in queue.runs[-1][1][-queued_n:]:
                    queued += size
                    if queued / limit >= self.HIGH_WATERMARK:
                        break
                self._signal(policy, True, queued / limit, now)
        bucket._tokens = tokens
        policy.admitted_bytes += admitted_bytes
        self._count(policy, "admitted", len(admitted), admitted_bytes)
        self._count(policy, "dropped", dropped_n, dropped_bytes)
        self._count(policy, "queued", queued_n, queued_bytes)
        return admitted

    def _release(self, now: float) -> RequestBatch:
        """Pop, per tenant, the longest queue prefix its tokens cover.

        Tenants in registration order; equal to spending
        :meth:`TokenBucket.allow` on each head request until one does
        not fit (see ``EXACT_TOKEN_LIMIT``).
        """
        released = RequestBatch()
        for policy in self._policies.values():
            if not policy.queue.runs:
                continue
            bucket = policy.bucket
            bucket._refill(now)
            # Sizes are whole bytes, so the whole tokens pop the same
            # prefix as the fractional count would.
            runs, nbytes = policy.queue.pop(int(bucket._tokens))
            # The watermark can only have moved if something left the
            # queue; skip the no-op check (and its fill arithmetic)
            # otherwise.
            if not runs:
                continue
            bucket._tokens -= nbytes
            policy.admitted_bytes += nbytes
            for issued_at, sizes in runs:
                released.add_run(policy.tenant, issued_at, sizes)
            # Releases are a distinct terminal outcome: the request was
            # already counted "queued" once.
            self._count(policy, "released",
                        sum(len(sizes) for _, sizes in runs), nbytes)
            self._check_backpressure(policy, now)
        return released

    def cycle_end(self, now: float) -> None:
        """Flush aggregated per-cycle drop events.

        Each tenant with drops this cycle gets one ``qos.drop`` event
        whose ``dropped``/``dropped_bytes`` are *this cycle's* counts
        (reset afterwards); the lifetime total rides along as
        ``dropped_bytes_total``.
        """
        for policy in self._policies.values():
            if policy._cycle_drops and self._bus is not None:
                self._bus.emit(
                    "qos.drop", self.name, now, tenant=policy.tenant,
                    direction=self.direction,
                    dropped=policy._cycle_drops,
                    dropped_bytes=policy._cycle_drop_bytes,
                    dropped_bytes_total=policy.dropped_bytes)
            policy._cycle_drops = policy._cycle_drop_bytes = 0

    # -- internals --------------------------------------------------------------

    def _count(self, policy: TenantPolicy, outcome: str, count: int,
               nbytes: int) -> None:
        """One ``inc`` per non-zero outcome; ``queued`` is transient."""
        if self._metrics is None or not count:
            return
        if outcome == "queued":
            self._queued_counter.inc(count, tenant=policy.tenant,
                                     direction=self.direction)
            self._queued_bytes_counter.inc(nbytes, tenant=policy.tenant,
                                           direction=self.direction)
            return
        self._requests_counter.inc(count, tenant=policy.tenant,
                                   direction=self.direction, outcome=outcome)
        self._bytes_counter.inc(nbytes, tenant=policy.tenant,
                                direction=self.direction, outcome=outcome)

    def _check_backpressure(self, policy: TenantPolicy, now: float) -> None:
        fill = policy.queued_bytes / policy.queue.limit_bytes
        if not policy.backpressured and fill >= self.HIGH_WATERMARK:
            self._signal(policy, True, fill, now)
        elif policy.backpressured and fill <= self.LOW_WATERMARK:
            self._signal(policy, False, fill, now)

    def _signal(self, policy: TenantPolicy, asserted: bool, fill: float,
                now: float) -> None:
        policy.backpressured = asserted
        if self._bus is not None:
            self._bus.emit("qos.backpressure", self.name, now,
                           tenant=policy.tenant,
                           state="asserted" if asserted else "cleared",
                           direction=self.direction,
                           queue_fill=round(fill, 3))
