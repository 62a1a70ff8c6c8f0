"""Multi-OLT fleet driver: N self-contained PON shards behind a pool.

Every OLT shard (a :class:`~repro.pon.network.PonNetwork` with its own
tenants, DBA scheduler and QoS enforcer) is built from a picklable
:class:`ShardConfig` and runs on its own clock, scheduler and bus inside
a :class:`ShardRunner`. A :class:`ShardPool` advances the shards in
lockstep to each monitor boundary, either in-process (``workers=1``, the
default) or in spawn-safe worker processes (``workers=N``), and hands
back compact :class:`CycleResult` payloads. :class:`ParallelFleetDriver`
re-publishes the shard events onto its shared bus in deterministic
``(timestamp, shard_index, publish order)`` order via
:meth:`~repro.common.events.EventBus.publish_batch`. Because every shard
is seeded from its config alone, the rendered fleet report is
**byte-identical** for any worker count.

A shard simulates and hands back what happened; it meters nothing. Its
components are built with process-wide telemetry switched off (they
consult the switch once, at construction), so a fleet run leaves the
process registry the same whether shards run in-process or in workers
— and nobody pays for per-OLT series nobody scrapes. Fleet telemetry is
deliberately fleet-normalized instead (an OLT-local share gauge would
make a benign tenant on a quiet OLT look like a noisy neighbour
fleet-wide): the driver's boundary loop — the one place that sets the
monitor cadence — publishes each tenant's share of the *fleet's* offered
load into a fleet-local registry, which the metrics-driven
:class:`~repro.security.monitor.abuse.ResourceAbuseDetector` samples.
Abuse alerts land on the shared bus; the fleet report records per-tenant
alert latency (first ``monitor.alert`` timestamp), aggregate throughput
and Jain fairness *across OLTs* — the numbers the DSN paper's monitoring
lessons (T6-T8, M15/M18) only make quantifiable at fleet scale.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.events import Event, EventBus
from repro.common.sim import Scheduler
from repro.common.telemetry import (
    MetricsRegistry, set_telemetry_enabled, telemetry_enabled,
)
from repro.pon.network import PonNetwork
from repro.pon.olt import SPLIT_RATIO
from repro.security.monitor.abuse import ResourceAbuseDetector
from repro.security.monitor.falco import FalcoEngine
from repro.traffic.loadgen import (
    _BENIGN_PROFILES, LoadGenerator, TenantSpec, TrafficReport, jain_index,
)
from repro.traffic.telemetry import OFFERED_SHARE_GAUGE

__all__ = ["FleetReport", "fleet_tenant_specs", "ShardConfig",
           "fleet_shard_configs", "CycleResult", "ShardRunner", "ShardPool",
           "ParallelFleetDriver", "run_fleet_parallel"]


def fleet_tenant_specs(olt_index: int, count: int, hostile: bool,
                       rate_bps: float = 100e6) -> List[TenantSpec]:
    """Tenant specs for one shard, named uniquely across the fleet.

    With ``hostile`` the shard's last tenant floods (priority 3, the
    best-effort tier a flooder actually occupies); the rest rotate
    through the well-behaved profiles.
    """
    if count < 1:
        raise ValueError("each OLT needs at least one tenant")
    specs: List[TenantSpec] = []
    for slot in range(1, count + 1):
        if hostile and slot == count:
            specs.append(TenantSpec(
                tenant=f"olt{olt_index}-tenant-hostile",
                serial=f"FLT{olt_index:02d}9999",
                profile="hostile", rate_bps=rate_bps, priority=3))
        else:
            specs.append(TenantSpec(
                tenant=f"olt{olt_index}-tenant-{slot:02d}",
                serial=f"FLT{olt_index:02d}{slot:04d}",
                profile=_BENIGN_PROFILES[(slot - 1) % len(_BENIGN_PROFILES)],
                rate_bps=rate_bps))
    return specs


@dataclass(frozen=True)
class ShardConfig:
    """Everything needed to (re)build one shard, in any process.

    Pure data — picklable, so the same config builds an identical shard
    in the parent (``workers=1`` fallback) or in a spawned worker. The
    seed is the fleet seed: shard determinism comes from string-seeded
    profile RNGs plus the shard-local scheduler seed, both derived from
    the config alone, never from which worker hosts the shard.
    """

    index: int
    name: str
    specs: Tuple[TenantSpec, ...]
    cycle_s: float
    seed: int
    downstream: bool = False


def fleet_shard_configs(n_olts: int, n_tenants: int, seed: int = 0,
                        cycle_s: float = 0.02, rate_bps: float = 100e6,
                        hostile: bool = True,
                        downstream: bool = False) -> List[ShardConfig]:
    """Split ``n_tenants`` across ``n_olts`` shards.

    Tenants are dealt as evenly as possible (earlier shards get the
    remainder); with ``hostile`` the first shard's last tenant floods.
    Each shard's tenants share one PON port, so a split that would put
    more than :data:`~repro.pon.olt.SPLIT_RATIO` on one OLT is refused
    here, before any shard (or worker process) is built — as are a
    non-positive cycle or tenant rate.
    """
    if n_olts < 1:
        raise ValueError("need at least one OLT")
    if cycle_s <= 0:
        raise ValueError("cycle_s must be positive")
    if rate_bps <= 0:
        raise ValueError("rate_bps must be positive")
    if n_tenants < n_olts:
        raise ValueError("need at least one tenant per OLT")
    if n_tenants > n_olts * SPLIT_RATIO:
        raise ValueError(
            f"{n_tenants} tenants exceed {n_olts} OLT(s) behind 1:"
            f"{SPLIT_RATIO} splitters (at most {n_olts * SPLIT_RATIO})")
    configs: List[ShardConfig] = []
    base, extra = divmod(n_tenants, n_olts)
    for olt_index in range(1, n_olts + 1):
        count = base + (1 if olt_index <= extra else 0)
        # One flooder per fleet, on the first shard: the detector
        # must pick it out of fleet-normalized shares.
        specs = fleet_tenant_specs(olt_index, count,
                                   hostile=hostile and olt_index == 1,
                                   rate_bps=rate_bps)
        configs.append(ShardConfig(index=olt_index, name=f"olt-{olt_index}",
                                   specs=tuple(specs), cycle_s=cycle_s,
                                   seed=seed, downstream=downstream))
    return configs


@dataclass
class FleetReport:
    """Per-OLT rows plus the fleet-level aggregates."""

    duration_s: float
    seed: int
    olts: Dict[str, TrafficReport] = field(default_factory=dict)
    hostile_tenants: List[str] = field(default_factory=list)
    alert_first_at: Dict[str, float] = field(default_factory=dict)
    started_at: float = 0.0
    scheduler_events: int = 0
    monitor_passes: int = 0

    def olt_throughput_bps(self, olt: str) -> float:
        report = self.olts[olt]
        return sum(row.throughput_bps for row in report.tenants.values())

    @property
    def fleet_throughput_bps(self) -> float:
        return sum(self.olt_throughput_bps(olt) for olt in self.olts)

    @property
    def downstream(self) -> bool:
        """True when any shard scheduled the downstream direction."""
        return any(report.downstream for report in self.olts.values())

    def olt_downstream_bps(self, olt: str) -> float:
        report = self.olts[olt]
        return sum(row.downstream_throughput_bps
                   for row in report.tenants.values())

    @property
    def fleet_downstream_bps(self) -> float:
        return sum(self.olt_downstream_bps(olt) for olt in self.olts)

    def jain_across_olts(self) -> float:
        """Fairness of the fleet's delivered throughput between OLTs."""
        return jain_index([self.olt_throughput_bps(olt)
                           for olt in sorted(self.olts)])

    def alert_latency_s(self, tenant: str) -> Optional[float]:
        """Time from fleet start to the tenant's first abuse alert."""
        at = self.alert_first_at.get(tenant)
        return None if at is None else at - self.started_at

    def render(self) -> str:
        n_tenants = sum(len(r.tenants) for r in self.olts.values())
        downstream = self.downstream
        lines = [
            f"fleet run: {len(self.olts)} OLTs x {n_tenants} tenants, "
            f"{self.duration_s:g}s simulated, seed {self.seed}",
            f"scheduler: {self.scheduler_events} events fired, "
            f"{self.monitor_passes} monitor passes",
            "",
            f"{'olt':<12} {'tenants':>7} {'Mbps':>10} {'jain':>7} "
            f"{'drops':>7}"
            + (f" {'dn Mbps':>10} {'dn drops':>9}" if downstream else ""),
        ]
        for olt in sorted(self.olts):
            report = self.olts[olt]
            drops = sum(row.dropped_requests
                        for row in report.tenants.values())
            line = (
                f"{olt:<12} {len(report.tenants):>7} "
                f"{self.olt_throughput_bps(olt) / 1e6:>10.1f} "
                f"{report.jain():>7.3f} {drops:>7}")
            if downstream:
                down_drops = sum(row.dropped_down_requests
                                 for row in report.tenants.values())
                line += (f" {self.olt_downstream_bps(olt) / 1e6:>10.1f} "
                         f"{down_drops:>9}")
            lines.append(line)
        lines.append("")
        lines.append(
            f"fleet throughput: {self.fleet_throughput_bps / 1e6:.1f} Mbps"
            f" | Jain across OLTs: {self.jain_across_olts():.3f}")
        if downstream:
            lines.append(
                f"fleet downstream throughput: "
                f"{self.fleet_downstream_bps / 1e6:.1f} Mbps")
        if self.hostile_tenants:
            for tenant in self.hostile_tenants:
                latency = self.alert_latency_s(tenant)
                lines.append(
                    f"abuse alert for {tenant}: "
                    + (f"first flagged at t={self.alert_first_at[tenant]:g}s"
                       f" (latency {latency:g}s)"
                       if latency is not None else "NOT flagged"))
        benign_flagged = sorted(t for t in self.alert_first_at
                                if t not in self.hostile_tenants)
        if benign_flagged:
            lines.append("false positives: " + ", ".join(benign_flagged))
        return "\n".join(lines)


# One shard bus event, ready to pickle across a process boundary:
# (timestamp, topic, source, payload).
EventRow = Tuple[float, str, str, Dict[str, Any]]


@dataclass
class CycleResult:
    """Compact outcome of advancing one shard to a time boundary.

    Only what the driver reads, all of it picklable: the bus events the
    shard published since the previous boundary (as plain tuples, in
    publish order), cumulative per-tenant offered bytes for the monitor
    pass, and the shard scheduler's cumulative fired-event count.
    """

    shard_index: int
    events: List[EventRow]
    offered: Dict[str, int]
    events_fired: int


class ShardRunner:
    """One self-contained OLT shard: own clock, scheduler and bus.

    Identical code runs in the parent (``workers=1``) and in spawned
    workers, which is what makes the fleet output worker-count-invariant:
    a shard's entire event stream is a function of its
    :class:`ShardConfig` alone. The shard bus keeps an unbounded history
    that :meth:`advance` drains each boundary — it is the shard's only
    event capture. Construction-time events (ONU activations) are
    cleared before the first boundary, so they are never forwarded.
    """

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.index = config.index
        self.name = config.name
        # Components read the telemetry switch once, at construction:
        # building them with it off keeps the shard unmetered for life,
        # in this process or a worker, without touching anyone else's.
        was_enabled = telemetry_enabled()
        set_telemetry_enabled(False)
        try:
            self.clock = SimClock()
            self.bus = EventBus(history_limit=0)
            self.scheduler = Scheduler(clock=self.clock, seed=config.seed)
            self.network = PonNetwork.build(config.name,
                                            clock=self.clock, bus=self.bus)
            self.generator = LoadGenerator(
                self.network, list(config.specs), cycle_s=config.cycle_s,
                seed=config.seed, sim=self.scheduler,
                downstream=config.downstream)
        finally:
            set_telemetry_enabled(was_enabled)
        self.bus.clear_history()

    def start(self, seconds: float) -> int:
        """Register the shard's cycle task; returns its cycle count."""
        self.generator.start(seconds)
        return self.generator.n_cycles

    def advance(self, until: float) -> CycleResult:
        """Run the shard to ``until`` and hand back what happened."""
        self.scheduler.run_until(until)
        events = [(event.timestamp, event.topic, event.source, event.payload)
                  for event in self.bus.history()]
        self.bus.clear_history()
        return CycleResult(
            shard_index=self.index, events=events,
            offered=self.generator.offered_totals(),
            events_fired=self.scheduler.events_fired)

    def report(self) -> TrafficReport:
        return self.generator.report()


def _apply(runners: Sequence[ShardRunner], command: str,
           arg: Any) -> List[Any]:
    """Run one pool verb on a bucket of shards, one answer per shard.

    The single verb table behind :class:`ShardPool`, in the calling
    process or in a worker: ``start`` answers cycle counts, ``advance``
    a :class:`CycleResult` per shard and ``report`` ``(name, report)``
    pairs, all in bucket order.
    """
    if command == "start":
        return [runner.start(arg) for runner in runners]
    if command == "advance":
        return [runner.advance(arg) for runner in runners]
    if command == "report":
        return [(runner.name, runner.report()) for runner in runners]
    raise ValueError(f"unknown shard command {command!r}")


def _shard_worker_main(conn, configs: Sequence[ShardConfig]) -> None:
    """Spawn entry point: host a bucket of shards, driven over a pipe.

    Commands are ``(verb, arg)`` tuples answered by :func:`_apply`;
    ``("stop", None)`` ends the loop.
    """
    runners = [ShardRunner(config) for config in configs]
    try:
        while True:
            command, arg = conn.recv()
            if command == "stop":
                break
            conn.send(_apply(runners, command, arg))
    except EOFError:
        pass
    finally:
        conn.close()


class ShardPool:
    """Advances a set of shards in lockstep, in-process or across workers.

    ``workers=1`` (the default) hosts every shard in the calling process
    — no multiprocessing at all, the portable fallback. ``workers>1``
    spawns that many worker processes (``spawn`` context, so the pool is
    fork-safety-agnostic) and deals shards round-robin across them.
    Results always come back sorted by shard index, so callers never see
    worker assignment.
    """

    def __init__(self, configs: Sequence[ShardConfig],
                 workers: int = 1) -> None:
        if not configs:
            raise ValueError("need at least one shard")
        if workers < 1:
            raise ValueError("need at least one worker")
        self.configs = list(configs)
        self.workers = min(workers, len(self.configs))
        self._local: List[ShardRunner] = []
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        if self.workers == 1:
            self._local = [ShardRunner(config) for config in self.configs]
            return
        ctx = mp.get_context("spawn")
        buckets: List[List[ShardConfig]] = [[] for _ in range(self.workers)]
        for position, config in enumerate(self.configs):
            buckets[position % self.workers].append(config)
        for bucket in buckets:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_shard_worker_main,
                                  args=(child_conn, bucket), daemon=True)
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)

    def _call(self, command: str, arg: Any) -> List[Any]:
        """Apply a verb to every shard, in-process or over the pipes."""
        if self._local:
            return _apply(self._local, command, arg)
        for conn in self._conns:
            conn.send((command, arg))
        return [item for conn in self._conns for item in conn.recv()]

    def start(self, seconds: float) -> int:
        """Register every shard's cycle task; returns the cycle count
        (identical across shards — they share ``cycle_s``)."""
        return self._call("start", seconds)[0]

    def advance(self, until: float) -> List[CycleResult]:
        """Advance every shard to ``until``; results in shard-index order."""
        results = self._call("advance", until)
        results.sort(key=lambda result: result.shard_index)
        return results

    def reports(self) -> Dict[str, TrafficReport]:
        """Per-shard traffic reports, keyed and ordered by shard name."""
        return dict(sorted(self._call("report", None)))

    def close(self) -> None:
        """Stop workers (idempotent; a no-op for the in-process pool)."""
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for process in self._procs:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self._local = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ParallelFleetDriver:
    """Fleet driver over a :class:`ShardPool`.

    Advances the pool monitor-interval by monitor-interval; after each
    boundary it merges every shard's events onto the shared bus in
    ``(timestamp, shard_index, publish order)`` order — a total order
    that does not depend on worker count or scheduling — then runs the
    fleet-normalized monitor pass and the Falco stats heartbeat. The
    rendered :class:`FleetReport` is therefore byte-identical between
    ``workers=1`` and ``workers=N`` for the same seed.

    A driver runs once: its shards' clocks end at the horizon, so
    :meth:`run` refuses a second call — build a new driver instead.
    """

    def __init__(self, n_olts: int = 4, n_tenants: int = 32, seed: int = 0,
                 cycle_s: float = 0.02, rate_bps: float = 100e6,
                 hostile: bool = True,
                 monitor_interval_s: float = 0.1,
                 alert_persistence: int = 2,
                 workers: int = 1,
                 downstream: bool = False) -> None:
        if monitor_interval_s <= 0:
            raise ValueError("monitor interval must be positive")
        self.seed = seed
        self.monitor_interval_s = monitor_interval_s
        self.configs = fleet_shard_configs(
            n_olts, n_tenants, seed=seed, cycle_s=cycle_s,
            rate_bps=rate_bps, hostile=hostile, downstream=downstream)
        self.pool = ShardPool(self.configs, workers=workers)
        self.bus = EventBus()
        # Fleet-local registry: the abuse detector samples *fleet*
        # shares, never the process-wide registry of whoever embeds us.
        self.registry = MetricsRegistry()
        self._offered_gauge = self.registry.gauge(
            OFFERED_SHARE_GAUGE,
            "Fraction of fleet-wide offered upstream load, per tenant.",
            ("tenant",))
        # Persistence > 1 is the alert-fatigue knob: a bursty tenant's
        # spike breaches one monitor pass, a flooder breaches them all.
        self.detector = ResourceAbuseDetector(
            registry=self.registry, bus=self.bus,
            persistence=alert_persistence)
        self.falco = FalcoEngine()
        self.falco.attach(self.bus)
        self.alert_first_at: Dict[str, float] = {}
        self.bus.subscribe("monitor.alert", self._on_alert)
        self.monitor_passes = 0
        self._ran = False

    def _on_alert(self, event: Event) -> None:
        summary = str(event.payload.get("summary", ""))
        token = summary.split(" ", 1)[0]
        if token.startswith("tenant="):
            self.alert_first_at.setdefault(token[len("tenant="):],
                                           event.timestamp)

    def _merge(self, results: Sequence[CycleResult]) -> int:
        """Publish the boundary's shard events in deterministic order.

        Returns the fleet's cumulative shard scheduler event count.
        """
        # Results arrive in shard-index order and each shard's rows in
        # publish order, so a stable sort on the timestamp alone yields
        # (timestamp, shard_index, publish order): no per-row sequence
        # number has to cross the pipe. A shard's clock never rewinds,
        # so each shard's rows are already time-sorted runs and the sort
        # only interleaves them.
        rows = [row for result in results for row in result.events]
        rows.sort(key=itemgetter(0))
        self.bus.publish_batch([
            Event(topic=topic, source=source, timestamp=timestamp,
                  payload=payload)
            for timestamp, topic, source, payload in rows])
        return sum(result.events_fired for result in results)

    def _monitor_pass(self, results: Sequence[CycleResult],
                      boundary: float) -> None:
        """Fleet-normalized offered shares from the shard tallies."""
        self.monitor_passes += 1
        offered: Dict[str, int] = {}
        for result in results:
            offered.update(result.offered)
        total = sum(offered.values())
        for tenant in sorted(offered):
            share = offered[tenant] / total if total else 0.0
            self._offered_gauge.set(round(share, 6), tenant=tenant)
        self.detector.sample_metrics(now=boundary)

    def run(self, seconds: float) -> FleetReport:
        """Drive every shard for ``seconds`` of simulated time (once)."""
        if self._ran:
            raise RuntimeError("this fleet driver has already run; "
                               "build a new one for another run")
        if seconds <= 0:
            raise ValueError("duration must be positive")
        self._ran = True
        n_cycles = self.pool.start(seconds)
        duration = n_cycles * self.configs[0].cycle_s
        events_fired = 0
        boundary = 0.0
        step = 0
        while boundary < duration:
            step += 1
            # Multiples of the interval, never float accumulation — the
            # boundary sequence is identical in every mode.
            boundary = min(step * self.monitor_interval_s, duration)
            results = self.pool.advance(boundary)
            events_fired = self._merge(results)
            self._monitor_pass(results, boundary)
            self.bus.emit("monitor.stats", "falco", boundary,
                          events_processed=self.falco.events_processed,
                          rule_evaluations=self.falco.rule_evaluations,
                          alerts=len(self.falco.alerts))
        report = FleetReport(
            duration_s=duration, seed=self.seed, started_at=0.0,
            scheduler_events=events_fired + self.monitor_passes,
            monitor_passes=self.monitor_passes,
            alert_first_at=dict(self.alert_first_at),
            hostile_tenants=[spec.tenant for config in self.configs
                             for spec in config.specs
                             if spec.profile == "hostile"])
        # Sorted insertion: fleet-level float sums then reduce in the
        # same order regardless of which worker produced which report.
        report.olts.update(self.pool.reports())
        return report


def run_fleet_parallel(n_olts: int = 4, n_tenants: int = 32,
                       seconds: float = 2.0, seed: int = 0,
                       hostile: bool = True, cycle_s: float = 0.02,
                       workers: int = 1,
                       downstream: bool = False) -> FleetReport:
    """Stand up a sharded fleet and run it — the E20 / CLI entry point."""
    driver = ParallelFleetDriver(n_olts=n_olts, n_tenants=n_tenants,
                                 seed=seed, hostile=hostile,
                                 cycle_s=cycle_s, workers=workers,
                                 downstream=downstream)
    try:
        return driver.run(seconds)
    finally:
        driver.pool.close()
