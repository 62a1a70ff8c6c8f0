"""Forensic evidence bundles for incidents (operational M18).

When the correlator flags a campaign, responders need the *evidence*:
every bus event involving the suspect tenant inside the incident window,
the alerts themselves, and any integrity findings from the same period.
The bundle is serialized deterministically and sealed with a digest plus
a signature, so the chain of custody survives the trip to whoever does
the post-incident review (or the CE/CRA incident-reporting obligation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.common import crypto
from repro.common.errors import IntegrityError
from repro.common.events import Event, EventBus
from repro.security.monitor.correlate import Incident


@dataclass
class EvidenceBundle:
    """A sealed evidence package for one incident."""

    incident_key: str
    window: Dict[str, float]
    alerts: List[dict]
    events: List[dict]
    integrity_findings: List[dict]
    digest: str = ""
    signature: bytes = b""

    def canonical_bytes(self) -> bytes:
        body = {
            "incident_key": self.incident_key,
            "window": self.window,
            "alerts": self.alerts,
            "events": self.events,
            "integrity_findings": self.integrity_findings,
        }
        return json.dumps(body, sort_keys=True).encode()

    def to_json(self) -> str:
        body = json.loads(self.canonical_bytes())
        body["digest"] = self.digest
        return json.dumps(body, indent=2, sort_keys=True)


class ForensicCollector:
    """Builds and seals evidence bundles from the platform's streams."""

    def __init__(self, bus: EventBus, margin_s: float = 60.0) -> None:
        self.bus = bus
        self.keypair = crypto.RsaKeyPair.generate(bits=512, seed=0xF04E)
        self.margin_s = margin_s

    def _event_involves(self, event: Event, key: str) -> bool:
        if event.source == key:
            return True
        return any(str(value) == key for value in event.payload.values())

    def collect(self, incident: Incident,
                fim_findings: Sequence[object] = ()) -> EvidenceBundle:
        """Assemble and seal the bundle for one incident."""
        start = incident.started_at - self.margin_s
        end = incident.ended_at + self.margin_s
        events = [
            {"topic": event.topic, "source": event.source,
             "timestamp": event.timestamp,
             "payload": {k: str(v) for k, v in sorted(event.payload.items())}}
            # since= pre-filters at the bus, so only the incident window's
            # tail is rescanned instead of the full retained history.
            for event in self.bus.history(since=start)
            if event.timestamp <= end
            and self._event_involves(event, incident.key)
        ]
        alerts = [
            {"rule": alert.rule, "priority": alert.priority.name,
             "timestamp": alert.timestamp, "summary": alert.summary}
            for alert in incident.alerts
        ]
        integrity = [
            {"path": getattr(f, "path", ""),
             "change": getattr(f, "change", ""),
             "mutable": getattr(f, "mutable", False)}
            for f in fim_findings
        ]
        bundle = EvidenceBundle(
            incident_key=incident.key,
            window={"start": start, "end": end},
            alerts=alerts, events=events, integrity_findings=integrity)
        bundle.digest = crypto.sha256_hex(bundle.canonical_bytes())
        bundle.signature = self.keypair.sign(bundle.canonical_bytes())
        return bundle

    def verify(self, bundle: EvidenceBundle) -> None:
        """Chain-of-custody check before the bundle is relied upon.

        :raises IntegrityError: content no longer matches digest/signature.
        """
        body = bundle.canonical_bytes()
        if crypto.sha256_hex(body) != bundle.digest:
            raise IntegrityError(
                f"evidence bundle for {bundle.incident_key}: digest mismatch")
        if not self.keypair.public.verify(body, bundle.signature):
            raise IntegrityError(
                f"evidence bundle for {bundle.incident_key}: bad signature")
