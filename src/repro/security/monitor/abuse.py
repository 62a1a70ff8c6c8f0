"""Resource-abuse detection (the T8 'monopolizing resources' case).

The Falco engine sees syscalls; resource abuse shows up in utilization.
GENIO pairs it with a detector that watches per-tenant consumption
against fair-share expectations and flags tenants that monopolize the
node or the PON upstream. Two sampling paths feed the same findings:

* **metrics path** (:meth:`ResourceAbuseDetector.sample_metrics`, the
  primary one) — reads tenant-labelled share gauges from the telemetry
  registry (``traffic_tenant_offered_share`` published by the traffic
  plane, ``runtime_tenant_cpu_share`` published by
  :class:`repro.traffic.telemetry.TrafficTelemetry.observe_runtime`),
  so detection runs off the same substrate dashboards scrape;
* **runtime path** (:meth:`ResourceAbuseDetector.sample`, the fallback)
  — directly samples a :class:`~repro.virt.runtime.ContainerRuntime`'s
  per-container consumption when no registry is wired up.

Both paths flag on two rules: relative (share above fair share x
tolerance, needs at least two peers to define "fair") and absolute
(share above ``absolute_cap`` regardless of peer count — a single tenant
saturating a node is abuse even with nobody to compare against).
``persistence`` requires a tenant to breach on that many *consecutive*
sampling passes before it is flagged — the alert-fatigue knob: a bursty
but well-behaved tenant briefly spikes above 2x fair share, a flooder
stays there pass after pass.

When a bus is attached, each finding is also published as a
``monitor.alert`` event (rule ``resource_abuse``) with a ``tenant=``
token in its summary, so :class:`~repro.security.monitor.correlate.
LiveCorrelator` folds abuse into the same incident stream as Falco
rules. Detection feeds alerts; *enforcement* is limits
(:class:`~repro.virt.container.ResourceLimits`), QoS policing
(:mod:`repro.traffic.qos`) and eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common import telemetry
from repro.common.events import EventBus
from repro.security.monitor.falco import Priority
from repro.virt.runtime import ContainerRuntime

# Gauge families the metrics path scans, in scan order. Plain strings on
# purpose: the monitor layer must not import the traffic plane (which
# sits above it); the names are pinned by tests on both sides.
SHARE_METRICS: Tuple[str, ...] = (
    "traffic_tenant_offered_share",
    "runtime_tenant_cpu_share",
)


@dataclass
class AbuseFinding:
    """One over-consumption observation."""

    container_id: str
    tenant: str
    cpu_share: float          # fraction of node CPU consumed
    memory_share: float
    fair_share: float         # 1 / number of peers sharing the resource
    detail: str = ""
    metric: str = ""          # source gauge family ("" = runtime sampling)
    bandwidth_share: float = 0.0   # fraction of offered/delivered upstream

    @property
    def worst_share(self) -> float:
        return max(self.cpu_share, self.memory_share, self.bandwidth_share)


class ResourceAbuseDetector:
    """Flags tenants far above fair share, from metrics or a runtime.

    ``runtime`` may be omitted when only the metrics path is used;
    ``registry`` defaults to the process-wide telemetry registry at each
    sampling pass (so a detector built early still sees later metrics).
    The metrics path scans the gauge families in :data:`SHARE_METRICS`.
    """

    def __init__(self, runtime: Optional[ContainerRuntime] = None,
                 tolerance: float = 2.0,
                 absolute_cap: float = 0.9,
                 registry: Optional[telemetry.MetricsRegistry] = None,
                 bus: Optional[EventBus] = None,
                 persistence: int = 1) -> None:
        if tolerance < 1.0:
            raise ValueError("tolerance must be >= 1.0")
        if not 0.0 < absolute_cap <= 1.0:
            raise ValueError("absolute_cap must be in (0, 1]")
        if persistence < 1:
            raise ValueError("persistence must be >= 1")
        self.runtime = runtime
        self.tolerance = tolerance
        self.absolute_cap = absolute_cap
        self._registry = registry
        self._bus = bus
        self.persistence = persistence
        self._streaks: dict = {}
        self.findings: List[AbuseFinding] = []

    # -- the metrics path (primary) ---------------------------------------------

    def sample_metrics(self, now: float = 0.0) -> List[AbuseFinding]:
        """Scan tenant-share gauges in the registry; flag noisy neighbours.

        Each family in :data:`SHARE_METRICS` that exists, is a gauge and
        is labelled exactly by ``tenant`` is judged independently: fair
        share is ``1/n`` over the tenants present in that family.
        """
        registry = self._registry if self._registry is not None \
            else telemetry.active_registry()
        if registry is None:
            return []
        current: List[AbuseFinding] = []
        for name in SHARE_METRICS:
            if name not in registry:
                continue
            family = registry.get(name)
            if family.kind != "gauge" or family.labelnames != ("tenant",):
                continue
            samples = {key[0]: child.value
                       for key, child in family.samples.items()}
            if not samples:
                continue
            fair = 1.0 / len(samples)
            for tenant, share in sorted(samples.items()):
                reason = self._judge(share, fair, peers=len(samples))
                if reason is None:
                    continue
                is_cpu = "cpu" in name
                current.append(AbuseFinding(
                    container_id=f"metric:{name}", tenant=tenant,
                    cpu_share=round(share, 4) if is_cpu else 0.0,
                    memory_share=0.0,
                    bandwidth_share=0.0 if is_cpu else round(share, 4),
                    fair_share=round(fair, 4),
                    metric=name,
                    detail=(f"{name}{{tenant={tenant}}} at {share:.0%} "
                            f"vs fair share {fair:.0%}: {reason}")))
        current = self._persist(current)
        self._record(current, now)
        return current

    # -- the runtime path (fallback) --------------------------------------------

    def sample(self, now: float = 0.0) -> List[AbuseFinding]:
        """One direct runtime sampling pass; returns current findings."""
        if self.runtime is None:
            raise ValueError("no runtime attached; use sample_metrics()")
        running = self.runtime.running_containers()
        if not running:
            return []
        fair = 1.0 / len(running)
        current: List[AbuseFinding] = []
        for container in running:
            cpu_share = (container.cpu_used / self.runtime.cpu_capacity
                         if self.runtime.cpu_capacity else 0.0)
            memory_share = (container.memory_used_mb
                            / self.runtime.memory_capacity_mb
                            if self.runtime.memory_capacity_mb else 0.0)
            worst = max(cpu_share, memory_share)
            reason = self._judge(worst, fair, peers=len(running))
            if reason is not None:
                current.append(AbuseFinding(
                    container_id=container.id, tenant=container.tenant,
                    cpu_share=round(cpu_share, 4),
                    memory_share=round(memory_share, 4),
                    fair_share=round(fair, 4),
                    detail=(f"consuming {worst:.0%} of node vs fair share "
                            f"{fair:.0%}: {reason}")))
        current = self._persist(current)
        self._record(current, now)
        return current

    def evict_offenders(self) -> List[str]:
        """Kill currently-flagged containers; returns their ids."""
        evicted = []
        for finding in self.sample():
            self.runtime.kill(finding.container_id,
                              f"resource abuse: {finding.detail}")
            evicted.append(finding.container_id)
        return evicted

    # -- shared judgement --------------------------------------------------------

    def _persist(self, current: List[AbuseFinding]) -> List[AbuseFinding]:
        """Keep only tenants breaching ``persistence`` passes in a row."""
        if self.persistence == 1:
            return current
        breached = {finding.tenant for finding in current}
        for tenant in list(self._streaks):
            if tenant not in breached:
                del self._streaks[tenant]
        for tenant in breached:
            self._streaks[tenant] = self._streaks.get(tenant, 0) + 1
        return [finding for finding in current
                if self._streaks[finding.tenant] >= self.persistence]

    def _judge(self, share: float, fair: float,
               peers: int) -> Optional[str]:
        """The flagging rule; returns the reason, or None when within bounds.

        The absolute cap closes the single-container blind spot: with one
        running container there are no peers to define fair share, but a
        tenant saturating the node is abusive regardless.
        """
        if share > self.absolute_cap:
            return (f"exceeds absolute cap {self.absolute_cap:.0%} "
                    f"(saturation, independent of peer count)")
        if peers > 1 and share > fair * self.tolerance:
            return f"exceeds fair share x{self.tolerance} tolerance"
        return None

    def _record(self, current: List[AbuseFinding], now: float) -> None:
        self.findings.extend(current)
        if self._bus is None:
            return
        for finding in current:
            severity = (Priority.CRITICAL
                        if finding.worst_share > self.absolute_cap
                        else Priority.WARNING)
            self._bus.emit(
                "monitor.alert", "abuse-detector", now,
                rule="resource_abuse", priority=int(severity),
                alert_source=finding.metric or finding.container_id,
                summary=(f"tenant={finding.tenant} resource abuse: "
                         f"{finding.detail}"))
