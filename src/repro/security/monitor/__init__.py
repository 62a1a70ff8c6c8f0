"""M18: Falco-style runtime monitoring."""

from repro.security.monitor.falco import (
    Alert, FalcoEngine, FalcoRule, Priority, compile_rule, compile_ruleset,
    default_rules,
)
from repro.security.monitor.abuse import AbuseFinding, ResourceAbuseDetector
from repro.security.monitor.correlate import (
    Incident, LiveCorrelator, correlate, triage,
)
from repro.security.monitor.forensics import EvidenceBundle, ForensicCollector
from repro.security.monitor.response import IncidentResponder

__all__ = [
    "Alert",
    "FalcoEngine",
    "FalcoRule",
    "Priority",
    "default_rules",
    "AbuseFinding",
    "ResourceAbuseDetector",
    "Incident",
    "LiveCorrelator",
    "correlate",
    "triage",
    "EvidenceBundle",
    "ForensicCollector",
    "IncidentResponder",
    "compile_rule",
    "compile_ruleset",
]
