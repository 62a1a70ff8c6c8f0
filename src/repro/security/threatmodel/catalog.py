"""The GENIO threat and mitigation catalog (Sections III-VI, Figure 3).

Encodes every threat T1-T8, every mitigation M1-M18, the OSS tools and
standards each mitigation uses, and which module of this reproduction
implements it. The E3 benchmark regenerates Figure 3 from this data via
:mod:`repro.security.threatmodel.matrix`.

Note: the paper numbers SAST "M13" a second time (a typo); we follow the
convention used here and in DESIGN.md of calling SAST **M14**, keeping
M15-M18 aligned with the paper's own later references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

from repro.security.threatmodel.stride import Asset, Layer, Stride, Threat, ThreatModel


@dataclass(frozen=True)
class Mitigation:
    """One mitigation (the paper's M-entries)."""

    mitigation_id: str
    name: str
    layer: Layer
    oss_tools: Tuple[str, ...]
    standards: Tuple[str, ...]
    lesson: int                    # which Lesson discusses it
    module: str                    # reproduction module implementing it

    @property
    def threat_ids(self) -> Tuple[str, ...]:
        """The threats that list this mitigation, in catalog order."""
        return tuple(threat.threat_id for threat in GENIO_THREATS
                     if self.mitigation_id in threat.mitigation_ids)


GENIO_ASSETS: Tuple[Asset, ...] = (
    Asset("ONU", Layer.INFRASTRUCTURE, "far-edge optical network unit",
          exposed_physically=True),
    Asset("OLT", Layer.INFRASTRUCTURE, "edge optical line terminal",
          exposed_physically=True),
    Asset("PON fiber plant", Layer.INFRASTRUCTURE, "shared optical medium",
          exposed_physically=True),
    Asset("ONL kernel", Layer.INFRASTRUCTURE, "custom Linux kernel on OLTs"),
    Asset("Host OS", Layer.INFRASTRUCTURE, "ONL userspace, services, accounts"),
    Asset("Boot chain", Layer.INFRASTRUCTURE, "firmware, shim, GRUB, kernel"),
    Asset("Data at rest", Layer.INFRASTRUCTURE, "tenant/platform data on disk"),
    Asset("KVM hypervisor", Layer.MIDDLEWARE, "VM isolation boundary"),
    Asset("Kubernetes", Layer.MIDDLEWARE, "container orchestration"),
    Asset("Proxmox", Layer.MIDDLEWARE, "VM orchestration"),
    Asset("ONOS", Layer.MIDDLEWARE, "SDN controller"),
    Asset("VOLTHA", Layer.MIDDLEWARE, "OLT hardware abstraction"),
    Asset("Image registry", Layer.APPLICATION, "GENIO public registry"),
    Asset("Tenant applications", Layer.APPLICATION, "third-party workloads"),
    Asset("End-user data", Layer.APPLICATION, "data processed by tenants"),
)


GENIO_THREATS: Tuple[Threat, ...] = (
    Threat(
        threat_id="T1", name="Network Attacks", layer=Layer.INFRASTRUCTURE,
        stride=(Stride.SPOOFING, Stride.TAMPERING, Stride.INFORMATION_DISCLOSURE),
        description=(
            "Eavesdropping, traffic modification and impersonation across "
            "OLTs, ONUs, inter-OLT links and cloud interactions; "
            "interception/replay, downstream hijacking, ONU impersonation, "
            "fiber tapping."),
        assets=("PON fiber plant", "ONU", "OLT"),
        attack_techniques=("fiber tap", "replay", "ONU impersonation",
                           "downstream hijack", "firmware traffic siphon"),
        likelihood=3, impact=4,
        mitigation_ids=("M3", "M4"),
    ),
    Threat(
        threat_id="T2", name="Code Tampering", layer=Layer.INFRASTRUCTURE,
        stride=(Stride.TAMPERING, Stride.ELEVATION_OF_PRIVILEGE),
        description=(
            "Persistent compromise of low-level components: malware or "
            "backdoors in hypervisors, kernels and system binaries via "
            "reverse engineering, untrusted patching and firmware "
            "manipulation."),
        assets=("Boot chain", "ONL kernel", "Host OS"),
        attack_techniques=("firmware implant", "binary patching",
                           "bootkit", "malicious update"),
        likelihood=2, impact=4,
        mitigation_ids=("M5", "M6", "M7", "M9"),
    ),
    Threat(
        threat_id="T3", name="Privilege Abuse (infrastructure)",
        layer=Layer.INFRASTRUCTURE,
        stride=(Stride.ELEVATION_OF_PRIVILEGE,),
        description=(
            "Misconfigured OS accounts, services and files enable privilege "
            "escalation, hijacked administration and persistence."),
        assets=("Host OS",),
        attack_techniques=("passwordless sudo abuse", "world-writable path "
                           "hijack", "setuid abuse", "weak SSH configuration"),
        likelihood=3, impact=3,
        mitigation_ids=("M1", "M2"),
    ),
    Threat(
        threat_id="T4", name="Software Vulnerabilities (infrastructure)",
        layer=Layer.INFRASTRUCTURE,
        stride=(Stride.ELEVATION_OF_PRIVILEGE, Stride.TAMPERING),
        description=(
            "Unpatched or unknown vulnerabilities in the custom ONL stack "
            "enable kernel exploits and container escaping; remote "
            "management of OLTs/ONUs complicates patching."),
        assets=("ONL kernel", "Host OS", "KVM hypervisor"),
        attack_techniques=("kernel exploit", "container escape",
                           "VM escape via hypervisor CVE"),
        likelihood=3, impact=4,
        mitigation_ids=("M8", "M9"),
    ),
    Threat(
        threat_id="T5", name="Privilege Abuse (middleware)",
        layer=Layer.MIDDLEWARE,
        stride=(Stride.ELEVATION_OF_PRIVILEGE, Stride.SPOOFING),
        description=(
            "Overprivileged roles, unrestricted API access and insecure "
            "defaults in orchestration/SDN software enable escalation and "
            "lateral movement."),
        assets=("Kubernetes", "Proxmox", "ONOS", "VOLTHA"),
        attack_techniques=("wildcard RBAC abuse", "anonymous API access",
                           "default credentials", "token theft"),
        likelihood=4, impact=3,
        mitigation_ids=("M10", "M11"),
    ),
    Threat(
        threat_id="T6", name="Software Vulnerabilities (middleware)",
        layer=Layer.MIDDLEWARE,
        stride=(Stride.TAMPERING, Stride.INFORMATION_DISCLOSURE),
        description=(
            "Bugs in orchestration/network-management workflows and APIs, "
            "and vulnerable third-party dependencies, expose middleware "
            "resources to unintended access."),
        assets=("Kubernetes", "Proxmox", "ONOS", "VOLTHA"),
        attack_techniques=("API implementation bug", "vulnerable dependency"),
        likelihood=3, impact=3,
        mitigation_ids=("M12",),
    ),
    Threat(
        threat_id="T7", name="Vulnerable Applications", layer=Layer.APPLICATION,
        stride=(Stride.TAMPERING, Stride.INFORMATION_DISCLOSURE,
                Stride.ELEVATION_OF_PRIVILEGE),
        description=(
            "Third-party applications carry vulnerabilities (SQLi, XSS, "
            "command injection, deserialization, memory corruption) that "
            "give attackers a tenant foothold."),
        assets=("Tenant applications", "End-user data"),
        attack_techniques=("SQL injection", "XSS", "command injection",
                           "insecure deserialization", "memory corruption"),
        likelihood=4, impact=3,
        mitigation_ids=("M13", "M14", "M15"),
    ),
    Threat(
        threat_id="T8", name="Malicious Applications", layer=Layer.APPLICATION,
        stride=(Stride.ELEVATION_OF_PRIVILEGE, Stride.DENIAL_OF_SERVICE,
                Stride.TAMPERING),
        description=(
            "Deliberately malicious images (hidden malware, backdoors) "
            "invoke privileged syscalls, misuse capabilities such as "
            "CAP_SYS_ADMIN to escape containers, and abuse CPU/memory/"
            "network/storage to starve other tenants."),
        assets=("Tenant applications", "Image registry", "Kubernetes"),
        attack_techniques=("malicious image reuse", "capability abuse",
                           "container escape", "resource abuse"),
        likelihood=3, impact=4,
        mitigation_ids=("M16", "M17", "M18"),
    ),
)


GENIO_MITIGATIONS: Tuple[Mitigation, ...] = (
    Mitigation("M1", "OS environment configurations", Layer.INFRASTRUCTURE,
               ("OpenSCAP",), ("SCAP benchmarks", "STIGs"), 1,
               "repro.security.hardening.scap"),
    Mitigation("M2", "OS kernel hardening", Layer.INFRASTRUCTURE,
               ("kernel-hardening-checker", "AppArmor", "SELinux"),
               ("KSPP baseline", "Intel/AMD microcode"), 1,
               "repro.security.hardening.kernelcheck"),
    Mitigation("M3", "End-to-End Encryption", Layer.INFRASTRUCTURE,
               ("MACsec",), ("IEEE 802.1AE", "ITU-T G.987.3"), 2,
               "repro.security.comms.channels"),
    Mitigation("M4", "Authentication of Nodes", Layer.INFRASTRUCTURE,
               ("PKI", "TLS 1.3", "DNSSEC"),
               ("RFC 4033", "ETSI TS 103 962"), 2,
               "repro.security.comms.pki"),
    Mitigation("M5", "Secure Boot", Layer.INFRASTRUCTURE,
               ("Shim", "GRUB", "TPM"), ("UEFI Secure Boot",), 3,
               "repro.security.integrity.secureboot"),
    Mitigation("M6", "Secure Storage", Layer.INFRASTRUCTURE,
               ("LUKS", "Clevis", "TPM"), (), 3,
               "repro.security.integrity.securestorage"),
    Mitigation("M7", "File Integrity Monitoring", Layer.INFRASTRUCTURE,
               ("Tripwire",), (), 3,
               "repro.security.integrity.fim"),
    Mitigation("M8", "Automated Scanning (host)", Layer.INFRASTRUCTURE,
               ("OpenSCAP", "Lynis", "Vuls"), (), 4,
               "repro.security.vulnmgmt.hostscan"),
    Mitigation("M9", "Signed Updates", Layer.INFRASTRUCTURE,
               ("APT GPG", "ONIE"),
               ("NIST SP 800-193", "X.509"), 4,
               "repro.security.updates"),
    Mitigation("M10", "Access Control", Layer.MIDDLEWARE,
               ("Kubernetes RBAC", "Proxmox ACL", "ONOS auth"),
               ("least privilege",), 5,
               "repro.security.access.leastprivilege"),
    Mitigation("M11", "Security Guideline Compliance", Layer.MIDDLEWARE,
               ("docker-bench", "kube-bench", "kubesec",
                "kube-hunter", "kubescape"),
               ("NSA Kubernetes Hardening Guidance", "CIS Benchmarks"), 5,
               "repro.security.access.compliance"),
    Mitigation("M12", "Automated Scanning and Patching", Layer.MIDDLEWARE,
               ("Kubernetes CVE feed", "NVD API", "KBOM"), (), 6,
               "repro.security.vulnmgmt.feeds"),
    Mitigation("M13", "Container Security and SCA", Layer.APPLICATION,
               ("Docker Bench for Security", "Trivy",
                "OWASP Dependency Check"), (), 7,
               "repro.security.appsec.sca"),
    Mitigation("M14", "Static Application Security Testing", Layer.APPLICATION,
               ("Crane", "SpotBugs", "Pylint", "Semgrep", "Bandit"),
               (), 7,
               "repro.security.appsec.sast"),
    Mitigation("M15", "Dynamic Application Security Testing", Layer.APPLICATION,
               ("CATS", "Nmap"), ("OpenAPI",), 7,
               "repro.security.appsec.dast"),
    Mitigation("M16", "Malware Signature", Layer.APPLICATION,
               ("Deepfence YaraHunter",), ("YARA rules",), 8,
               "repro.security.malware"),
    Mitigation("M17", "Isolation & Sandboxing", Layer.APPLICATION,
               ("KubeArmor",), ("LSM", "PEACH framework"), 8,
               "repro.security.sandbox"),
    Mitigation("M18", "Runtime Monitoring", Layer.APPLICATION,
               ("Falco",), ("eBPF",), 8,
               "repro.security.monitor"),
)


def mitigations_by_id() -> Dict[str, Mitigation]:
    return {m.mitigation_id: m for m in GENIO_MITIGATIONS}


def require_known_mitigations(mitigation_ids: Iterable[str]) -> Set[str]:
    """The ids as a set; raises ``ValueError`` naming any not in the catalog."""
    ids = set(mitigation_ids)
    unknown = ids - set(mitigations_by_id())
    if unknown:
        raise ValueError(f"unknown mitigation ids: {sorted(unknown)}")
    return ids


def build_genio_threat_model() -> ThreatModel:
    """Assemble the full GENIO threat model of Section III."""
    model = ThreatModel(name="GENIO")
    for asset in GENIO_ASSETS:
        model.add_asset(asset)
    for threat in GENIO_THREATS:
        model.add_threat(threat)
    return model
