"""PEACH isolation modeling (part of M17).

The PEACH framework models tenant-isolation risk from interface
complexity and enforcement strength across five dimensions —
**P**rivilege hardening, **E**ncryption hardening, **A**uthentication
hardening, **C**onnectivity hardening, **H**ygiene — producing an
isolation-review outcome per tenancy design. GENIO uses it to compare its
*hard isolation* (dedicated VMs) and *soft isolation* (containers in
shared VMs) offerings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class TenancyConfig:
    """One tenancy design to be assessed."""

    name: str
    isolation_unit: str                 # "vm" | "container" | "namespace"
    # P — privilege hardening
    runs_privileged_workloads: bool = False
    seccomp_enforced: bool = True
    lsm_policies_enforced: bool = True
    capabilities_minimal: bool = True
    # E — encryption hardening
    data_at_rest_encrypted: bool = True
    per_tenant_keys: bool = True
    traffic_encrypted: bool = True
    # A — authentication hardening
    per_tenant_identities: bool = True
    mutual_tls_between_services: bool = False
    shared_secrets_across_tenants: bool = False
    # C — connectivity hardening
    network_default_deny: bool = False
    shared_flat_network: bool = True
    # H — hygiene
    images_scanned: bool = True
    runtime_monitoring: bool = True
    vulnerability_management: bool = True
    # interface complexity (PEACH's risk amplifier)
    shared_interface_complexity: str = "medium"   # low | medium | high


@dataclass
class PeachAssessment:
    """Scored outcome of one assessment."""

    config: str
    dimension_scores: Dict[str, float] = field(default_factory=dict)
    interface_risk: float = 0.0
    findings: List[str] = field(default_factory=list)

    @property
    def overall(self) -> float:
        """0..1 isolation score: mean dimension score damped by interface risk."""
        if not self.dimension_scores:
            return 0.0
        mean = sum(self.dimension_scores.values()) / len(self.dimension_scores)
        return round(mean * (1.0 - 0.3 * self.interface_risk), 4)

    @property
    def verdict(self) -> str:
        score = self.overall
        if score >= 0.8:
            return "adequate isolation"
        if score >= 0.6:
            return "isolation gaps: remediation advised"
        return "insufficient isolation for multi-tenancy"


_COMPLEXITY_RISK = {"low": 0.2, "medium": 0.5, "high": 1.0}
_UNIT_BASE = {"vm": 1.0, "container": 0.7, "namespace": 0.5}


def peach_score(config: TenancyConfig) -> PeachAssessment:
    """Assess one tenancy design across the five PEACH dimensions."""
    assessment = PeachAssessment(config=config.name)
    findings = assessment.findings

    # P — privilege hardening (weighted by the isolation unit's strength).
    p = _UNIT_BASE.get(config.isolation_unit, 0.5)
    if config.runs_privileged_workloads:
        p -= 0.5
        findings.append("privileged workloads inside the tenancy boundary")
    if not config.seccomp_enforced:
        p -= 0.15
        findings.append("no seccomp profile enforcement")
    if not config.lsm_policies_enforced:
        p -= 0.15
        findings.append("no LSM policy enforcement")
    if not config.capabilities_minimal:
        p -= 0.1
        findings.append("capability set not minimized")
    assessment.dimension_scores["privilege"] = max(0.0, min(1.0, p))

    # E — encryption hardening.
    e = 1.0
    if not config.data_at_rest_encrypted:
        e -= 0.4
        findings.append("tenant data at rest unencrypted")
    if not config.per_tenant_keys:
        e -= 0.3
        findings.append("tenants share encryption keys")
    if not config.traffic_encrypted:
        e -= 0.3
        findings.append("tenant traffic unencrypted")
    assessment.dimension_scores["encryption"] = max(0.0, e)

    # A — authentication hardening.
    a = 1.0
    if not config.per_tenant_identities:
        a -= 0.4
        findings.append("no per-tenant identities")
    if config.shared_secrets_across_tenants:
        a -= 0.4
        findings.append("secrets shared across tenants")
    if not config.mutual_tls_between_services:
        a -= 0.2
        findings.append("no mutual TLS between services")
    assessment.dimension_scores["authentication"] = max(0.0, a)

    # C — connectivity hardening.
    c = 1.0
    if config.shared_flat_network:
        c -= 0.4
        findings.append("tenants share a flat network")
    if not config.network_default_deny:
        c -= 0.3
        findings.append("no default-deny network policy")
    assessment.dimension_scores["connectivity"] = max(0.0, c)

    # H — hygiene.
    h = 1.0
    if not config.images_scanned:
        h -= 0.35
        findings.append("images not scanned before deployment")
    if not config.runtime_monitoring:
        h -= 0.35
        findings.append("no runtime monitoring")
    if not config.vulnerability_management:
        h -= 0.3
        findings.append("no vulnerability management process")
    assessment.dimension_scores["hygiene"] = max(0.0, h)

    assessment.interface_risk = _COMPLEXITY_RISK.get(
        config.shared_interface_complexity, 0.5)
    return assessment


def genio_hard_isolation() -> TenancyConfig:
    """GENIO's dedicated-VM tenancy offering."""
    return TenancyConfig(
        name="genio-hard-isolation", isolation_unit="vm",
        network_default_deny=True, shared_flat_network=False,
        mutual_tls_between_services=True,
        shared_interface_complexity="low")


def genio_soft_isolation(hardened: bool = True) -> TenancyConfig:
    """GENIO's containers-in-shared-VM tenancy offering."""
    return TenancyConfig(
        name=f"genio-soft-isolation[{'hardened' if hardened else 'stock'}]",
        isolation_unit="container",
        seccomp_enforced=hardened,
        lsm_policies_enforced=hardened,
        capabilities_minimal=hardened,
        network_default_deny=hardened,
        shared_flat_network=not hardened,
        images_scanned=hardened,
        runtime_monitoring=hardened,
        shared_interface_complexity="medium" if hardened else "high")
