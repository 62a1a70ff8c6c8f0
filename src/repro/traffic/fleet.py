"""Multi-OLT fleet driver: N self-contained PON shards behind a pool.

Every OLT shard (a :class:`~repro.pon.network.PonNetwork` with its own
tenants, DBA scheduler and QoS enforcer) is built from a picklable
:class:`ShardConfig` and runs on its own clock, scheduler and bus inside
a :class:`ShardRunner` (both live in the slim :mod:`repro.traffic.shard`,
which is all a worker imports, and are re-exported here). A
:class:`ShardPool` advances the shards in lockstep to each monitor
boundary, either in-process (``workers=1``, the default) or in worker
processes (``workers=N``), and hands back compact :class:`CycleResult`
payloads. Workers are forked when the parent is a single-threaded Linux
process (ready in milliseconds, nothing re-imported) and spawned
otherwise (see :attr:`ShardPool.start_method`); either way each worker
builds its own shards from their configs. Because every shard is seeded
from its config alone, the rendered fleet report is **byte-identical**
for any worker count and either start method.

Only what the parent reads crosses the pipe. :class:`ParallelFleetDriver`
sends the shards its bus's :meth:`~repro.common.events.EventBus.interest`
with an advance whenever it changed since the last one: the topic
patterns someone (Falco's rules, any caller) holds a record
subscription on. A shard records the events under those patterns, as
:class:`~repro.common.events.Event` records, and only counts the rest
per topic. The driver re-publishes the records onto its shared bus
in deterministic ``(timestamp, shard_index, publish order)`` order via
:meth:`~repro.common.events.EventBus.publish_batch`, then the summed
counts via :meth:`~repro.common.events.EventBus.publish_tally`, which is
how Falco's ``events_processed`` and ``bus_events_total`` still see every
shard event. A subscriber registered before :meth:`ParallelFleetDriver.run`
receives exactly the events it would if every event were shipped; one
added mid-run takes effect from the next boundary. The shared bus's
history holds the forwarded records only.

A worker that dies mid-run surfaces as a :class:`ShardWorkerError` naming
the shards it hosted.

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
alert latency (the first boundary whose detector pass flagged the
tenant), aggregate throughput and Jain fairness *across OLTs* — the
numbers the DSN paper's monitoring lessons (T6-T8, M15/M18) only make
quantifiable at fleet scale.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.checks import require_positive
from repro.common.errors import ShardWorkerError
from repro.common.events import EventBus
from repro.common.telemetry import MetricsRegistry
from repro.pon.olt import SPLIT_RATIO
from repro.security.monitor.abuse import ResourceAbuseDetector
from repro.security.monitor.falco import FalcoEngine
from repro.traffic.loadgen import (
    _BENIGN_PROFILES, CYCLE_S, TenantSpec, TrafficReport, jain_index,
)
from repro.traffic.shard import (
    CycleResult, ShardConfig, ShardRunner, _apply, _shard_worker_main,
)
from repro.traffic.telemetry import TrafficTelemetry

__all__ = ["FleetReport", "fleet_tenant_specs", "ShardConfig",
           "fleet_shard_configs", "CycleResult", "ShardRunner", "ShardPool",
           "ShardWorkerError", "ParallelFleetDriver", "run_fleet_parallel"]


# Consecutive monitor passes a tenant must breach before it is flagged:
# the alert-fatigue knob. A bursty tenant's spike breaches one pass, a
# flooder breaches them all.
ALERT_PERSISTENCE = 2

# Simulated seconds between monitor boundaries.
MONITOR_INTERVAL_S = 0.1


def fleet_tenant_specs(olt_index: int, count: int,
                       hostile: bool) -> List[TenantSpec]:
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
                profile="hostile", priority=3))
        else:
            specs.append(TenantSpec(
                tenant=f"olt{olt_index}-tenant-{slot:02d}",
                serial=f"FLT{olt_index:02d}{slot:04d}",
                profile=_BENIGN_PROFILES[(slot - 1) % len(_BENIGN_PROFILES)]))
    return specs


def fleet_shard_configs(n_olts: int, n_tenants: int, seed: int = 0,
                        hostile: bool = True,
                        downstream: bool = False) -> List[ShardConfig]:
    """Split ``n_tenants`` across ``n_olts`` shards.

    Tenants are dealt as evenly as possible (earlier shards get the
    remainder); with ``hostile`` the first shard's last tenant floods.
    Each shard's tenants share one PON port, so a split that would put
    more than :data:`~repro.pon.olt.SPLIT_RATIO` on one OLT is refused
    here, before any shard (or worker process) is built.
    """
    if n_olts < 1:
        raise ValueError("need at least one OLT")
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
                                   hostile=hostile and olt_index == 1)
        configs.append(ShardConfig(index=olt_index, name=f"olt-{olt_index}",
                                   specs=tuple(specs), seed=seed,
                                   downstream=downstream))
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


def _worker_start_method() -> str:
    """``"fork"`` on Linux when the caller runs one thread, else ``"spawn"``.

    A forked worker starts in milliseconds: it inherits the parent's
    imported modules instead of starting an interpreter and re-importing
    :mod:`repro.traffic.shard`. Forking a threaded process can deadlock
    the child on a lock some other thread held (Python 3.12+ warns), and
    macOS and Windows cannot fork safely or at all, so everywhere else
    workers are spawned.
    """
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return "fork"
    return "spawn"


class ShardPool:
    """Advances a set of shards in lockstep, in-process or across workers.

    ``workers=1`` (the default) hosts every shard in the calling process
    — no multiprocessing at all, the portable fallback. ``workers>1``
    starts that many worker processes and deals shards round-robin
    across them; each worker builds its own shards from their configs.
    Results always come back sorted by shard index, so callers never see
    worker assignment. A worker found dead raises
    :class:`ShardWorkerError`; a worker that fails to start closes the
    ones already started before the error propagates.
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
        self._buckets: List[List[ShardConfig]] = []
        self._start_method: Optional[str] = None
        if self.workers == 1:
            self._local = [ShardRunner(config) for config in self.configs]
            return
        self._start_method = _worker_start_method()
        ctx = mp.get_context(self._start_method)
        buckets: List[List[ShardConfig]] = [[] for _ in range(self.workers)]
        for position, config in enumerate(self.configs):
            buckets[position % self.workers].append(config)
        self._buckets = buckets
        try:
            for bucket in buckets:
                parent_conn, child_conn = ctx.Pipe()
                self._conns.append(parent_conn)
                process = ctx.Process(target=_shard_worker_main,
                                      args=(child_conn, bucket), daemon=True)
                try:
                    process.start()
                finally:
                    child_conn.close()
                self._procs.append(process)
        except BaseException:
            self.close()
            raise

    @property
    def start_method(self) -> Optional[str]:
        """How the workers were started: ``"fork"``, ``"spawn"``, or
        ``None`` for the in-process pool (see :func:`_worker_start_method`)."""
        return self._start_method

    def _call(self, command: str, arg: Any) -> List[Any]:
        """Apply a verb to every shard, in-process or over the pipes."""
        if self._local:
            return _apply(self._local, command, arg)
        for position, conn in enumerate(self._conns):
            try:
                conn.send((command, arg))
            except OSError as exc:
                raise self._dead(position) from exc
        answers: List[Any] = []
        for position, conn in enumerate(self._conns):
            try:
                answers.extend(conn.recv())
            except (EOFError, OSError) as exc:
                raise self._dead(position) from exc
        return answers

    def _dead(self, position: int) -> ShardWorkerError:
        """The error for the worker at ``position``, reaped if it exited."""
        process = self._procs[position]
        process.join(timeout=1)
        return ShardWorkerError(
            [config.index for config in self._buckets[position]],
            process.exitcode)

    def start(self, seconds: float) -> int:
        """Register every shard's cycle task; returns the cycle count
        (identical across shards — they share :data:`CYCLE_S`)."""
        return self._call("start", seconds)[0]

    def advance(self, until: float,
                interest: Optional[Sequence[str]] = None
                ) -> List[CycleResult]:
        """Advance every shard to ``until``; results in shard-index order.

        ``interest``, when given, is the topic patterns the shards record
        from now on (see :meth:`ShardRunner.advance`); ``None`` keeps the
        current ones.
        """
        results = self._call("advance", (until, interest))
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
        self._buckets = []
        self._local = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ParallelFleetDriver:
    """Fleet driver over a :class:`ShardPool`.

    Advances the pool :data:`MONITOR_INTERVAL_S` at a time; after each
    boundary it merges every shard's events onto the shared bus in
    ``(timestamp, shard_index, publish order)`` order — a total order
    that does not depend on worker count or scheduling, followed by the
    shards' per-topic counts of the events nobody subscribed to — then
    runs the fleet-normalized monitor pass and the Falco stats
    heartbeat. The rendered :class:`FleetReport` is therefore
    byte-identical between ``workers=1`` and ``workers=N`` for the same
    seed.

    A driver runs once: its shards' clocks end at the horizon, so
    :meth:`run` refuses a second call — build a new driver instead.
    """

    def __init__(self, n_olts: int = 4, n_tenants: int = 32, seed: int = 0,
                 hostile: bool = True,
                 workers: int = 1,
                 downstream: bool = False) -> None:
        self.seed = seed
        self.configs = fleet_shard_configs(
            n_olts, n_tenants, seed=seed, hostile=hostile,
            downstream=downstream)
        self.pool = ShardPool(self.configs, workers=workers)
        self.bus = EventBus()
        # Fleet-local registry: the abuse detector samples *fleet*
        # shares, never the process-wide registry of whoever embeds us.
        self.registry = MetricsRegistry()
        self._telemetry = TrafficTelemetry(registry=self.registry)
        self.detector = ResourceAbuseDetector(
            registry=self.registry, bus=self.bus,
            persistence=ALERT_PERSISTENCE)
        self.falco = FalcoEngine()
        self.falco.attach(self.bus)
        self.alert_first_at: Dict[str, float] = {}
        self.monitor_passes = 0
        self._ran = False
        # The bus interest the shards last received (None: not yet sent).
        self._interest: Optional[Tuple[str, ...]] = None

    def _merge(self, results: Sequence[CycleResult]) -> int:
        """Publish the boundary's shard events in deterministic order,
        then their summed per-topic counts of the unrecorded rest.

        Returns the fleet's cumulative shard scheduler event count.
        """
        # Results arrive in shard-index order and each shard's events in
        # publish order, so a stable sort on the timestamp alone yields
        # (timestamp, shard_index, publish order): no per-event sequence
        # number has to cross the pipe. A shard's clock never rewinds,
        # so each shard's events are already time-sorted runs and the
        # sort only interleaves them.
        events = [event for result in results for event in result.events]
        events.sort(key=attrgetter("timestamp"))
        self.bus.publish_batch(events)
        tally: Dict[str, int] = {}
        for result in results:
            for topic, count in result.tally.items():
                tally[topic] = tally.get(topic, 0) + count
        self.bus.publish_tally(tally)
        return sum(result.events_fired for result in results)

    def _monitor_pass(self, results: Sequence[CycleResult],
                      boundary: float) -> None:
        """Fleet-normalized offered shares from the shard tallies, then
        one detector pass; a tenant's first finding dates its alert."""
        self.monitor_passes += 1
        offered: Dict[str, int] = {}
        for result in results:
            offered.update(result.offered)
        self._telemetry.record_cycle(offered, {})
        for finding in self.detector.sample_metrics(now=boundary):
            self.alert_first_at.setdefault(finding.tenant, boundary)

    def run(self, seconds: float) -> FleetReport:
        """Drive every shard for ``seconds`` of simulated time (once)."""
        if self._ran:
            raise RuntimeError("this fleet driver has already run; "
                               "build a new one for another run")
        require_positive("duration", seconds)
        self._ran = True
        n_cycles = self.pool.start(seconds)
        duration = n_cycles * CYCLE_S
        events_fired = 0
        boundary = 0.0
        step = 0
        while boundary < duration:
            step += 1
            # Multiples of the interval, never float accumulation — the
            # boundary sequence is identical in every mode.
            boundary = min(step * MONITOR_INTERVAL_S, duration)
            # Shards hear the bus's interest only when it changed.
            interest = self.bus.interest()
            results = self.pool.advance(
                boundary, None if interest == self._interest else interest)
            self._interest = interest
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
                       hostile: bool = True, workers: int = 1,
                       downstream: bool = False) -> FleetReport:
    """Stand up a sharded fleet and run it — the E20 / CLI entry point.

    A bad ``seconds`` is refused before the pool starts any worker.
    """
    require_positive("duration", seconds)
    driver = ParallelFleetDriver(n_olts=n_olts, n_tenants=n_tenants,
                                 seed=seed, hostile=hostile,
                                 workers=workers, downstream=downstream)
    try:
        return driver.run(seconds)
    finally:
        driver.pool.close()
