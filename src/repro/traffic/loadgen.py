"""The traffic driver: N tenants x M workloads over the PON.

Ties the subsystem together, one cycle at a time, with one routine per
*plane* (direction): upstream, plus downstream with ``downstream=True``.

1. every tenant's :mod:`profile <repro.traffic.profiles>` generates its
   batch of requests for the cycle;
2. the :mod:`QoS enforcer <repro.traffic.qos>` polices them against the
   tenant's subscribed rate (token bucket + bounded queue + drops);
3. admitted requests enter the tenant's queue, and the plane's
   scheduler (the :mod:`DBA grant loop <repro.traffic.dba>`, or the
   :mod:`downstream <repro.traffic.downstream>` one on the same
   allocator) grants one cycle of the line rate and drains the queues;
4. granted bytes travel as one aggregated frame per ONU (so the OLT's
   ``pon_*`` telemetry and the plant's stats see the load);
5. tenant-labelled shares land in the metrics registry for the
   metrics-driven abuse detector.

``dba_enabled=False`` swaps the DBA to the demand-proportional
policy (an unscheduled shared medium); ``qos_enabled=False`` removes
admission control. The E18 benchmark compares all four corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.checks import require_positive
from repro.common.sim import PeriodicTask, Scheduler
from repro.pon.network import PonNetwork
from repro.pon.olt import DOWNSTREAM_BPS, UPSTREAM_BPS
from repro.pon.onu import Onu
from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import DownstreamScheduler
from repro.traffic.profiles import (
    RequestBatch, Run, WorkloadProfile, make_profile,
)
from repro.traffic.qos import QosEnforcer
from repro.traffic.telemetry import TrafficTelemetry

__all__ = [
    "TenantSpec",
    "TenantReport",
    "TrafficReport",
    "LoadGenerator",
    "jain_index",
    "run_traffic_experiment",
    "run_genio_traffic",
]

# Well-behaved workload rotation for generated scenarios.
_BENIGN_PROFILES = ("steady", "bursty", "diurnal")

# QoS polices each tenant at this multiple of its subscribed rate.
QOS_HEADROOM = 1.5

# Access networks are asymmetric: each tenant's downstream responses are
# sized at this multiple of its subscribed upstream rate.
DOWNSTREAM_RATIO = 4.0

# What one cycle touches of one tenant in one direction, resolved at
# construction: (tenant, serial, profile, T-CONT or downstream queue).
_Slot = Tuple[str, str, WorkloadProfile, TCont]

# A tenant the cycle's grant skipped: nothing sent, nothing completed.
_IDLE = (0, ())


@dataclass(eq=False)
class _Plane:
    """One direction's traffic: what a cycle runs and what it accounts.

    ``record`` publishes a cycle's per-tenant offered and delivered
    bytes while telemetry is on. ``latencies`` is kept upstream only:
    per tenant, ``(latency_s, count)`` for each run of requests that
    completed together, one pair per drained run, not per request.
    """

    scheduler: Union[DbaScheduler, DownstreamScheduler]
    qos: Optional[QosEnforcer]
    capacity: int
    send: Callable[..., None]
    record: Callable[[Dict[str, int], Dict[str, int]], None]
    latencies: Optional[Dict[str, List[Tuple[float, int]]]] = None
    slots: List[_Slot] = field(default_factory=list)
    offered: Dict[str, int] = field(default_factory=dict)
    delivered: Dict[str, int] = field(default_factory=dict)

    def add_tenant(self, spec: TenantSpec, rate_bps: float,
                   seed: Union[int, str],
                   register: Callable[..., TCont]) -> None:
        """Wire one tenant's profile, queue and QoS policy."""
        self.slots.append((
            spec.tenant, spec.serial,
            make_profile(spec.profile, spec.tenant, rate_bps, seed=seed),
            register(spec.serial, spec.tenant,
                     priority=spec.priority, weight=spec.weight)))
        if self.qos is not None:
            self.qos.add_tenant(spec.tenant, rate_bps=rate_bps * QOS_HEADROOM)

    def totals(self) -> Dict[str, Tuple[int, int, int]]:
        """Per tenant: offered bytes, delivered bytes and requests
        dropped, at QoS admission or a bounded queue."""
        qos = self.qos
        return {tenant: (self.offered[tenant], self.delivered[tenant],
                         queue.queue.dropped_requests
                         + (qos.policy(tenant).dropped_requests
                            if qos is not None else 0))
                for tenant, _serial, _profile, queue in self.slots}


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one taker."""
    values = [v for v in values if v >= 0]
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


@dataclass
class TenantSpec:
    """One tenant's workload wiring: profile, rate, T-CONT class."""

    tenant: str
    serial: str
    profile: str = "steady"
    rate_bps: float = 100e6
    priority: int = 2            # T-CONT type 3 (non-assured) by default
    weight: float = 1.0


@dataclass
class TenantReport:
    """Per-tenant outcome of one load-generation run.

    ``admitted_bytes`` counts everything QoS let through — immediate
    admissions plus queued requests released in later cycles. The
    ``*_down`` fields are zero unless the run scheduled the downstream
    direction too.
    """

    tenant: str
    profile: str
    offered_bytes: int
    admitted_bytes: int
    delivered_bytes: int
    dropped_requests: int
    completed_requests: int
    mean_latency_s: float
    p95_latency_s: float
    throughput_bps: float
    bandwidth_share: float
    offered_down_bytes: int = 0
    delivered_down_bytes: int = 0
    dropped_down_requests: int = 0
    downstream_throughput_bps: float = 0.0


@dataclass
class TrafficReport:
    """The whole run: per-tenant rows plus fairness aggregates."""

    duration_s: float
    capacity_bps: float
    dba_enabled: bool
    qos_enabled: bool
    tenants: Dict[str, TenantReport] = field(default_factory=dict)
    downstream: bool = False
    downstream_capacity_bps: float = 0.0

    def jain(self, tenants: Optional[Sequence[str]] = None) -> float:
        """Jain's index over delivered throughput (optionally a subset)."""
        rows = ([self.tenants[t] for t in tenants] if tenants is not None
                else list(self.tenants.values()))
        return jain_index([row.throughput_bps for row in rows])

    def render(self) -> str:
        lines = [
            f"traffic run: {self.duration_s:g}s simulated, upstream "
            f"{self.capacity_bps / 1e6:.0f} Mbps, "
            f"DBA {'on' if self.dba_enabled else 'OFF'}, "
            f"QoS {'on' if self.qos_enabled else 'OFF'}",
            "",
            f"{'tenant':<16} {'profile':<9} {'offered':>10} {'delivered':>10} "
            f"{'drops':>7} {'Mbps':>8} {'share':>7} {'p95 ms':>8}",
        ]
        for tenant in sorted(self.tenants):
            row = self.tenants[tenant]
            lines.append(
                f"{row.tenant:<16} {row.profile:<9} "
                f"{_fmt_bytes(row.offered_bytes):>10} "
                f"{_fmt_bytes(row.delivered_bytes):>10} "
                f"{row.dropped_requests:>7} "
                f"{row.throughput_bps / 1e6:>8.1f} "
                f"{row.bandwidth_share:>7.1%} "
                f"{row.p95_latency_s * 1e3:>8.1f}")
        lines.append("")
        lines.append(f"Jain fairness index (all tenants): {self.jain():.3f}")
        if self.downstream:
            lines.append("")
            lines.append(
                f"downstream: broadcast "
                f"{self.downstream_capacity_bps / 1e6:.0f} Mbps")
            lines.append(
                f"{'tenant':<16} {'offered':>10} {'delivered':>10} "
                f"{'drops':>7} {'Mbps':>8}")
            for tenant in sorted(self.tenants):
                row = self.tenants[tenant]
                lines.append(
                    f"{row.tenant:<16} "
                    f"{_fmt_bytes(row.offered_down_bytes):>10} "
                    f"{_fmt_bytes(row.delivered_down_bytes):>10} "
                    f"{row.dropped_down_requests:>7} "
                    f"{row.downstream_throughput_bps / 1e6:>8.1f}")
            lines.append("")
            lines.append(
                "Jain fairness index (downstream): "
                f"{jain_index([row.downstream_throughput_bps for row in self.tenants.values()]):.3f}")
        return "\n".join(lines)


def _fmt_bytes(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes / (1 << 20):.1f}MB"
    if nbytes >= 1 << 10:
        return f"{nbytes / (1 << 10):.1f}KB"
    return f"{nbytes}B"


class LoadGenerator:
    """Runs tenant workloads through a PON plant under DBA + QoS."""

    def __init__(
        self,
        network: PonNetwork,
        specs: Sequence[TenantSpec],
        dba_enabled: bool = True,
        qos_enabled: bool = True,
        cycle_s: float = 0.02,
        seed: int = 0,
        downstream: bool = False,
    ) -> None:
        if not specs:
            raise ValueError("at least one tenant spec is required")
        require_positive("cycle", cycle_s)
        if len({spec.tenant for spec in specs}) != len(specs):
            raise ValueError("tenant names must be unique")
        # Refuse a plant the specs overfill before attaching any ONU, so a
        # refusal leaves the caller's network (and its OLT's provisioned
        # serials) as it found them.
        network.olt.check_splitter(0, (spec.serial for spec in specs
                                       if spec.serial not in network.onus))
        self.network = network
        self.specs = list(specs)
        self.dba_enabled = dba_enabled
        self.qos_enabled = qos_enabled
        self.downstream_enabled = downstream
        self.cycle_s = cycle_s
        self._clock = network.clock
        self._bus = network.bus
        # The sim engine driving this generator's cadence. A fleet shard
        # schedules its other periodic tasks (key rotation, scans) on it
        # too, so they share one time authority with the cycles.
        self.sim = Scheduler(clock=network.clock, seed=seed)

        olt = network.olt.name
        self.scheduler = DbaScheduler(
            policy="fair" if dba_enabled else "proportional",
            bus=self._bus, name=f"{olt}/dba")
        self.qos = QosEnforcer(bus=self._bus, name=f"{olt}/qos") \
            if qos_enabled else None
        self.downstream_scheduler: Optional[DownstreamScheduler] = None
        self.qos_down: Optional[QosEnforcer] = None
        self.telemetry = TrafficTelemetry()

        # One plane per direction, each cycle's byte budget from its
        # G.984 line rate, and one slot per tenant in spec order. Every
        # refusal a spec can draw (QoS rate, T-CONT priority or weight)
        # comes here, before any ONU is attached.
        upstream = _Plane(self.scheduler, self.qos,
                          int(UPSTREAM_BPS / 8.0 * cycle_s),
                          network.send_upstream, self.telemetry.record_cycle,
                          latencies={})
        for spec in self.specs:
            upstream.add_tenant(spec, spec.rate_bps, seed,
                                self.scheduler.register_tcont)
        self._planes = [upstream]
        if downstream:
            self.downstream_scheduler = DownstreamScheduler(
                bus=self._bus, name=f"{olt}/downstream")
            if qos_enabled:
                self.qos_down = QosEnforcer(
                    bus=self._bus, name=f"{olt}/qos-down",
                    direction="downstream")
            plane = _Plane(self.downstream_scheduler, self.qos_down,
                           int(DOWNSTREAM_BPS / 8.0 * cycle_s),
                           network.send_downstream, self._record_downstream)
            # A distinct deterministic stream per direction: the string
            # seed keeps replay (and cross-process shard rebuilds)
            # byte-identical without correlating the two directions'
            # jitter.
            for spec in self.specs:
                plane.add_tenant(spec, spec.rate_bps * DOWNSTREAM_RATIO,
                                 f"{seed}:downstream",
                                 self.downstream_scheduler.register_queue)
            self._planes.append(plane)
        for spec in self.specs:
            if spec.serial not in network.onus:
                network.attach_onu(Onu(spec.serial,
                                       premises=f"premises-{spec.tenant}"))

        self._n_cycles = 0
        self._task: Optional[PeriodicTask] = None

    @property
    def n_cycles(self) -> int:
        """Cycles the current run spans (0 before :meth:`start`)."""
        return self._n_cycles

    def offered_totals(self) -> Dict[str, int]:
        """Cumulative offered bytes per tenant since :meth:`start`."""
        return dict(self._planes[0].offered)

    def start(self, seconds: float) -> PeriodicTask:
        """Register the per-cycle task with the sim engine.

        Does *not* advance time — the caller (or a fleet driver sharing
        the scheduler across many generators) batch-steps the world and
        then collects :meth:`report`. A new run starts only once the
        previous one's task is done.
        """
        if self._task is not None and not self._task.done:
            raise RuntimeError("the previous run is still pending")
        require_positive("duration", seconds)
        self._n_cycles = max(1, round(seconds / self.cycle_s))
        for plane in self._planes:
            plane.offered = {s.tenant: 0 for s in self.specs}
            plane.delivered = {s.tenant: 0 for s in self.specs}
        self._planes[0].latencies = {s.tenant: [] for s in self.specs}
        self._task = self.sim.every(
            self.cycle_s, self._cycle,
            name=f"{self.network.olt.name}/traffic-cycle",
            first_at=self._clock.now, max_fires=self._n_cycles)
        return self._task

    def _cycle(self) -> None:
        """One cycle per plane: generate, police, grant and drain, send,
        account. Both planes run in one scheduler tick, so a fleet
        shard's event stream (both directions) stays a pure function of
        its config — the worker-invariance guarantee."""
        now = self._clock.now
        cycle_s = self.cycle_s
        cycle_end = now + cycle_s
        recording = self.telemetry.enabled
        for plane in self._planes:
            offered = plane.offered
            cycle_offered: Dict[str, int] = {}
            runs: List[Run] = []
            n_requests = 0
            for tenant, _serial, profile, _queue in plane.slots:
                nbytes = 0
                for run in profile.batch(now, cycle_s).runs:
                    sizes = run[2]
                    nbytes += sum(sizes)
                    n_requests += len(sizes)
                    runs.append(run)
                offered[tenant] += nbytes
                if recording:
                    cycle_offered[tenant] = nbytes
            # The profiles built their runs positive, so the batch takes
            # them unchecked.
            batch = RequestBatch.trusted(runs, n_requests)
            plane.scheduler.enqueue(batch if plane.qos is None
                                    else plane.qos.admit(batch, now))
            results = plane.scheduler.run_cycle(plane.capacity, now)
            send = plane.send
            delivered = plane.delivered
            latencies = plane.latencies
            cycle_delivered: Dict[str, int] = {}
            for tenant, serial, _profile, _queue in plane.slots:
                sent, completed = results.get(tenant, _IDLE)
                if recording:
                    cycle_delivered[tenant] = sent
                if sent:
                    delivered[tenant] += sent
                    send(serial, b"", size_override=sent)
                if completed and latencies is not None:
                    latencies[tenant].extend([(cycle_end - issued_at, count)
                                              for issued_at, count
                                              in completed])
            if recording:
                plane.record(cycle_offered, cycle_delivered)

    def _record_downstream(self, _offered: Dict[str, int],
                           delivered: Dict[str, int]) -> None:
        """Downstream throughput and the queue depths the drain left."""
        self.telemetry.record_downstream_cycle(
            delivered,
            {queue.tenant: queue.queued_bytes
             for queue in self.downstream_scheduler.queues()},
            self.cycle_s)

    def report(self) -> TrafficReport:
        """Per-tenant report over the cycles run since :meth:`start`."""
        if self._task is None:
            raise RuntimeError("report() needs a run: call start() first")
        latencies = self._planes[0].latencies
        # The downstream columns read zero without a downstream plane.
        up, down = ([plane.totals() for plane in self._planes] + [{}])[:2]
        duration = self._n_cycles * self.cycle_s
        total_delivered = sum(delivered for _, delivered, _ in up.values())
        report = TrafficReport(
            duration_s=duration,
            capacity_bps=UPSTREAM_BPS,
            dba_enabled=self.dba_enabled, qos_enabled=self.qos_enabled,
            downstream=self.downstream_enabled,
            downstream_capacity_bps=(DOWNSTREAM_BPS
                                     if self.downstream_enabled else 0.0))
        for spec in self.specs:
            offered, delivered, dropped = up[spec.tenant]
            offered_down, delivered_down, dropped_down = down.get(
                spec.tenant, (0, 0, 0))
            tenant_latencies = sorted(latencies[spec.tenant])
            completed = sum(count for _, count in tenant_latencies)
            report.tenants[spec.tenant] = TenantReport(
                tenant=spec.tenant,
                profile=spec.profile,
                offered_bytes=offered,
                admitted_bytes=(self.qos.policy(spec.tenant).admitted_bytes
                                if self.qos is not None else offered),
                delivered_bytes=delivered,
                dropped_requests=dropped,
                completed_requests=completed,
                mean_latency_s=(_run_sum(tenant_latencies) / completed
                                if completed else 0.0),
                p95_latency_s=_percentile(tenant_latencies, 0.95),
                throughput_bps=delivered * 8 / duration,
                bandwidth_share=(delivered / total_delivered
                                 if total_delivered else 0.0),
                offered_down_bytes=offered_down,
                delivered_down_bytes=delivered_down,
                dropped_down_requests=dropped_down,
                downstream_throughput_bps=delivered_down * 8 / duration)
        return report

    def run(self, seconds: float) -> TrafficReport:
        """Simulate ``seconds`` of load; returns the per-tenant report.

        Convenience wrapper: registers the cycle task and batch-steps the
        sim engine through it. Equivalent to ``start`` + ``run_for`` +
        ``report``.
        """
        self.start(seconds)
        self.sim.run_for(self._n_cycles * self.cycle_s)
        return self.report()


def _run_sum(sorted_runs: Sequence[Tuple[float, int]]) -> float:
    """``sum()`` of the expanded values, added one by one in sorted
    order: the same float as summing the per-request list."""
    return sum(chain.from_iterable(repeat(value, count)
                                   for value, count in sorted_runs))


def _percentile(sorted_runs: Sequence[Tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile over ``(value, count)`` runs sorted by
    value, as over the expanded sorted list."""
    total = sum(count for _, count in sorted_runs)
    if not total:
        return 0.0
    rank = min(total - 1, max(0, math.ceil(q * total) - 1))
    for value, count in sorted_runs:
        if rank < count:
            break
        rank -= count
    return value


def standard_tenant_specs(n_tenants: int, hostile: bool = True,
                          rate_bps: float = 100e6) -> List[TenantSpec]:
    """The canonical E18 scenario: N well-behaved tenants (+1 hostile)."""
    if n_tenants < 1:
        raise ValueError("need at least one tenant")
    specs = [
        TenantSpec(tenant=f"tenant-{index:02d}",
                   serial=f"TRAF{index:04d}",
                   profile=_BENIGN_PROFILES[index % len(_BENIGN_PROFILES)],
                   rate_bps=rate_bps)
        for index in range(1, n_tenants + 1)
    ]
    if hostile:
        specs.append(TenantSpec(tenant="tenant-hostile", serial="TRAFBAD1",
                                profile="hostile", rate_bps=rate_bps,
                                priority=3))
    return specs


def run_traffic_experiment(
    n_tenants: int = 5,
    seconds: float = 2.0,
    hostile: bool = True,
    dba: bool = True,
    qos: bool = True,
    seed: int = 0,
    cycle_s: float = 0.02,
    rate_bps: float = 100e6,
    network: Optional[PonNetwork] = None,
    downstream: bool = False,
) -> TrafficReport:
    """Stand up a PON plant, run the standard scenario, return the report."""
    if network is None:
        network = PonNetwork.build("olt-traffic")
    specs = standard_tenant_specs(n_tenants, hostile=hostile, rate_bps=rate_bps)
    generator = LoadGenerator(network, specs, dba_enabled=dba,
                              qos_enabled=qos, cycle_s=cycle_s, seed=seed,
                              downstream=downstream)
    return generator.run(seconds)


def run_genio_traffic(deployment, seconds: float = 1.0, hostile: bool = True,
                      dba: bool = True, qos: bool = True, seed: int = 0,
                      rate_bps: float = 100e6,
                      cycle_s: float = 0.02) -> TrafficReport:
    """Drive tenant load through a built GENIO deployment's first OLT.

    Each ONU already attached to the OLT's PON carries one workload
    (profiles rotate through the well-behaved kinds); when ``hostile`` is
    set the last ONU's tenant floods instead.
    """
    if not deployment.olts:
        raise ValueError("deployment has no OLT nodes")
    pon = deployment.olts[0].pon
    serials = sorted(pon.onus)
    if not serials:
        raise ValueError("deployment OLT has no activated ONUs")
    specs: List[TenantSpec] = []
    for index, serial in enumerate(serials):
        last = index == len(serials) - 1
        specs.append(TenantSpec(
            tenant=f"user-{serial}",
            serial=serial,
            profile=("hostile" if hostile and last
                     else _BENIGN_PROFILES[index % len(_BENIGN_PROFILES)]),
            rate_bps=rate_bps,
            priority=3 if hostile and last else 2))
    generator = LoadGenerator(pon, specs, dba_enabled=dba, qos_enabled=qos,
                              cycle_s=cycle_s, seed=seed)
    return generator.run(seconds)
