"""Automated incident response: closing the M18 -> M17 loop.

Falco observes without blocking (by design); in production somebody still
has to *act* on the alerts. The responder subscribes to the monitoring
engine's alert stream and applies a tiered policy:

* CRITICAL alerts from a tenant container -> kill the container and
  quarantine the tenant (no new admissions);
* repeated WARNING alerts from the same container within a window ->
  kill the container;
* each kill is a ``runtime.kill`` bus event, the audit trail the
  operators review, and each call returns the actions it took.

This models the "early detection of post-exploitation activities" the
paper attributes to runtime monitoring, carried to the response step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.security.monitor.falco import Alert, FalcoEngine, Priority
from repro.virt.container import ContainerSpec
from repro.virt.runtime import ContainerRuntime


@dataclass
class ResponseAction:
    """One action the responder took."""

    kind: str             # "kill" | "quarantine-tenant" | "note"
    target: str
    triggered_by: str
    timestamp: float


class IncidentResponder:
    """Applies the response policy to a runtime's alert stream."""

    def __init__(self, runtime: ContainerRuntime, engine: FalcoEngine,
                 warning_threshold: int = 3) -> None:
        if warning_threshold < 1:
            raise ValueError("warning_threshold must be >= 1")
        self.runtime = runtime
        self.engine = engine
        self.warning_threshold = warning_threshold
        self.quarantined_tenants: Set[str] = set()
        self._warning_counts: Dict[str, int] = {}
        self._processed_alerts = 0
        runtime.add_admission_hook(self._admission_gate)

    # -- policy --------------------------------------------------------------

    def _admission_gate(self, spec: ContainerSpec) -> Optional[str]:
        if spec.tenant in self.quarantined_tenants:
            return f"tenant {spec.tenant} is quarantined by incident response"
        return None

    def process_new_alerts(self) -> List[ResponseAction]:
        """Evaluate alerts that arrived since the last call."""
        new_alerts = self.engine.alerts[self._processed_alerts:]
        self._processed_alerts = len(self.engine.alerts)
        taken: List[ResponseAction] = []
        for alert in new_alerts:
            taken.extend(self._respond(alert))
        return taken

    def _respond(self, alert: Alert) -> List[ResponseAction]:
        container = self._container_for(alert)
        if container is None:
            return []
        actions: List[ResponseAction] = []
        if alert.priority >= Priority.CRITICAL:
            if container.running:
                self.runtime.kill(container.id,
                                  f"incident response: {alert.rule}")
                actions.append(ResponseAction(
                    "kill", container.id, alert.rule, alert.timestamp))
            if container.tenant not in self.quarantined_tenants:
                self.quarantined_tenants.add(container.tenant)
                actions.append(ResponseAction(
                    "quarantine-tenant", container.tenant, alert.rule,
                    alert.timestamp))
            return actions
        if alert.priority >= Priority.WARNING:
            count = self._warning_counts.get(container.id, 0) + 1
            self._warning_counts[container.id] = count
            if count >= self.warning_threshold and container.running:
                self.runtime.kill(
                    container.id,
                    f"incident response: {count} warnings "
                    f"(last: {alert.rule})")
                actions.append(ResponseAction(
                    "kill", container.id, alert.rule, alert.timestamp))
        return actions

    def _container_for(self, alert: Alert):
        # Alert summaries carry container=<id> for runtime.syscall events.
        for token in alert.summary.split():
            if token.startswith("container="):
                return self.runtime.containers.get(token.split("=", 1)[1])
        return None
