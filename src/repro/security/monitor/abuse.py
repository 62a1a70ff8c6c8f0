"""Resource-abuse detection (the T8 'monopolizing resources' case).

The Falco engine sees syscalls; resource abuse shows up in utilization.
GENIO pairs it with a detector that watches per-tenant consumption
against fair-share expectations and flags tenants that monopolize the
node or the PON upstream. It samples each resource where it is measured:

* **the PON upstream** (:meth:`ResourceAbuseDetector.sample_metrics`) —
  reads the tenant-labelled ``traffic_tenant_offered_share`` gauge
  (:data:`~repro.common.telemetry.OFFERED_SHARE_GAUGE`) the traffic
  plane publishes, so detection runs off the same series dashboards
  scrape;
* **the node** (:meth:`ResourceAbuseDetector.sample`) — directly samples
  a :class:`~repro.virt.runtime.ContainerRuntime`'s per-container CPU
  and memory consumption; :meth:`~ResourceAbuseDetector.evict_offenders`
  kills what it flags.

Both passes flag on two rules: relative (share above fair share x
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
from typing import List, Optional

from repro.common import telemetry
from repro.common.events import EventBus
from repro.common.telemetry import OFFERED_SHARE_GAUGE
from repro.security.monitor.falco import Priority
from repro.virt.runtime import ContainerRuntime


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

    # -- the PON upstream: the offered-share gauge -----------------------------

    def sample_metrics(self, now: float = 0.0) -> List[AbuseFinding]:
        """Scan the offered-share gauge in the registry; flag noisy
        neighbours.

        Fair share is ``1/n`` over the tenants the gauge holds. A
        registry without the family, or with a family of that name that
        is not a gauge labelled exactly by ``tenant``, holds no shares.
        """
        registry = self._registry if self._registry is not None \
            else telemetry.active_registry()
        if registry is None:
            return []
        samples = {}
        if OFFERED_SHARE_GAUGE in registry:
            family = registry.get(OFFERED_SHARE_GAUGE)
            if family.kind == "gauge" and family.labelnames == ("tenant",):
                samples = {key[0]: child.value
                           for key, child in family.samples.items()}
        peers = len(samples)
        fair = 1.0 / peers if peers else 0.0
        current: List[AbuseFinding] = []
        for tenant, share in sorted(samples.items()):
            reason = self._judge(share, fair, peers=peers)
            if reason is None:
                continue
            current.append(AbuseFinding(
                container_id=f"metric:{OFFERED_SHARE_GAUGE}", tenant=tenant,
                cpu_share=0.0, memory_share=0.0,
                bandwidth_share=round(share, 4),
                fair_share=round(fair, 4),
                metric=OFFERED_SHARE_GAUGE,
                detail=(f"{OFFERED_SHARE_GAUGE}{{tenant={tenant}}} at "
                        f"{share:.0%} vs fair share {fair:.0%}: {reason}")))
        current = self._persist(current)
        self._record(current, now)
        return current

    # -- the node: direct runtime sampling --------------------------------------

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
