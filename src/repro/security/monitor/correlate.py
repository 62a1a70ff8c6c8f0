"""Alert correlation: from raw alerts to incidents (operational M18).

A rule-per-event stream is what Falco emits; operators reason in
*incidents*. The correlator groups alerts by (tenant, time window), maps
each rule to a kill-chain stage, and scores the incident by how far along
the chain the activity progressed — multi-stage incidents from one tenant
within a window are what warrant response, single NOTICE blips are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.common.events import Event, EventBus
from repro.security.monitor.falco import Alert, Priority

# Rule -> kill-chain stage (roughly: access -> execution -> escalation ->
# exfiltration). Unknown rules land in "anomaly".
RULE_STAGES: Dict[str, str] = {
    "failed_login": "access",
    "anonymous_control_plane_write": "access",
    "shell_in_container": "execution",
    "cryptominer_exec": "execution",
    "privileged_syscall_attempt": "escalation",
    "sensitive_file_read": "escalation",
    "write_below_etc": "persistence",
    "unexpected_outbound": "exfiltration",
    "resource_abuse": "execution",
}

# The lowest alert priority a :class:`LiveCorrelator` ingests.
MIN_PRIORITY = int(Priority.NOTICE)

# Alerts from one principal at most this far apart join one incident.
CORRELATION_WINDOW_S = 300.0

_STAGE_ORDER = ("access", "execution", "escalation", "persistence",
                "exfiltration", "anomaly")


@dataclass
class Incident:
    """A correlated group of alerts."""

    key: str                      # tenant or source the alerts share
    started_at: float
    ended_at: float
    alerts: List[Alert] = field(default_factory=list)

    @property
    def stages(self) -> List[str]:
        seen = {RULE_STAGES.get(alert.rule, "anomaly")
                for alert in self.alerts}
        return [stage for stage in _STAGE_ORDER if stage in seen]

    @property
    def max_priority(self) -> Priority:
        return max(alert.priority for alert in self.alerts)

    @property
    def score(self) -> int:
        """Stage breadth x peak priority: multi-stage criticals dominate."""
        return len(self.stages) * int(self.max_priority)

    @property
    def is_campaign(self) -> bool:
        """Multiple kill-chain stages from one principal: a real attack."""
        return len(self.stages) >= 2

    def summary(self) -> str:
        return (f"incident[{self.key}] {len(self.alerts)} alerts, "
                f"stages {'->'.join(self.stages)}, "
                f"peak {self.max_priority.name}, score {self.score}")


def _alert_key(alert: Alert) -> str:
    for token in alert.summary.split():
        if token.startswith("tenant="):
            return token.split("=", 1)[1]
    return alert.source


def correlate(alerts: Sequence[Alert],
              window_s: float = CORRELATION_WINDOW_S) -> List[Incident]:
    """Group alerts into incidents by shared key within a time window."""
    if window_s <= 0:
        raise ValueError("window must be positive")
    incidents: List[Incident] = []
    open_incidents: Dict[str, Incident] = {}
    for alert in sorted(alerts, key=lambda a: a.timestamp):
        key = _alert_key(alert)
        incident = open_incidents.get(key)
        if incident is not None and alert.timestamp - incident.ended_at <= window_s:
            incident.alerts.append(alert)
            incident.ended_at = alert.timestamp
        else:
            incident = Incident(key=key, started_at=alert.timestamp,
                                ended_at=alert.timestamp, alerts=[alert])
            incidents.append(incident)
            open_incidents[key] = incident
    return sorted(incidents, key=lambda i: -i.score)


class LiveCorrelator:
    """Correlates alerts straight off the bus instead of polling the engine.

    Subscribes to the ``monitor.alert`` topic a
    :class:`~repro.security.monitor.falco.FalcoEngine` publishes when
    constructed with ``publish_alerts=True``, using the bus's
    ``predicate=`` delivery filter for the priority floor — no more
    re-filtering the engine's full alert list by hand on every pass.
    """

    def __init__(self, bus: EventBus) -> None:
        self.alerts: List[Alert] = []
        self._unsubscribe: Callable[[], None] = bus.subscribe(
            "monitor.alert", self._ingest,
            predicate=lambda e: e.get("priority", 0) >= MIN_PRIORITY)

    def _ingest(self, event: Event) -> None:
        self.alerts.append(Alert(
            rule=str(event.get("rule", "")),
            priority=Priority(int(event.get("priority", Priority.NOTICE))),
            timestamp=event.timestamp,
            source=str(event.get("alert_source", event.source)),
            summary=str(event.get("summary", ""))))

    def incidents(self) -> List[Incident]:
        """Correlate everything ingested so far."""
        return correlate(self.alerts)

    def close(self) -> None:
        self._unsubscribe()


def triage(incidents: Sequence[Incident]) -> Dict[str, List[Incident]]:
    """Split incidents into what needs response now vs review later."""
    campaigns = [i for i in incidents if i.is_campaign]
    critical_blips = [i for i in incidents if not i.is_campaign
                      and i.max_priority >= Priority.CRITICAL]
    noise = [i for i in incidents if not i.is_campaign
             and i.max_priority < Priority.CRITICAL]
    return {"respond": campaigns + critical_blips, "review": noise}
