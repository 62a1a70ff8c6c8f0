"""M11: the community compliance checkers, each covering a subset.

Five engines modeled on their namesakes:

* :func:`kube_bench` — CIS-style control-plane configuration checks;
* :func:`kubesec` — per-pod security-context scoring;
* :func:`kube_hunter` — *active* probing of the API surface (anonymous
  access, insecure port) rather than config reading;
* :func:`kubescape` — NSA-hardening-guidance controls spanning RBAC,
  workloads and network policy;
* :func:`docker_bench` — container-runtime daemon and per-container checks.

Each returns a :class:`ComplianceReport` carrying a set of abstract
*risk ids* it covers, so the E9 experiment can show what the paper's
Lesson 5 says: individual tools address only a subset of the risks, and
designers must integrate several.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.common.errors import AuthenticationError, AuthorizationError
from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.rbac import TENANT_NAMESPACES
from repro.virt.runtime import ContainerRuntime


@dataclass
class ComplianceCheck:
    """One executed check."""

    check_id: str
    description: str
    passed: bool
    detail: str = ""
    risk_id: str = ""      # abstract risk this check covers


@dataclass
class ComplianceReport:
    """One tool's run against one target."""

    framework: str
    checks: List[ComplianceCheck] = field(default_factory=list)

    def add(self, check_id: str, description: str, passed: bool,
            detail: str = "", risk_id: str = "") -> None:
        self.checks.append(ComplianceCheck(check_id, description, passed,
                                           detail, risk_id))

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def pass_rate(self) -> float:
        return self.passed / len(self.checks) if self.checks else 1.0

    def failures(self) -> List[ComplianceCheck]:
        return [c for c in self.checks if not c.passed]

    def risks_covered(self) -> Set[str]:
        return {c.risk_id for c in self.checks if c.risk_id}


# ---------------------------------------------------------------------------
# kube-bench: CIS control-plane configuration
# ---------------------------------------------------------------------------

def kube_bench(cluster: KubeCluster) -> ComplianceReport:
    report = ComplianceReport("kube-bench")
    config = cluster.api.config
    report.add("1.2.1", "anonymous-auth disabled", not config.anonymous_auth,
               risk_id="anonymous-access")
    report.add("1.2.19", "insecure port disabled",
               not config.insecure_port_enabled, risk_id="insecure-port")
    report.add("1.2.29", "TLS on the API server", config.tls_enabled,
               risk_id="plaintext-api")
    report.add("1.2.22", "audit logging enabled", config.audit_logging,
               risk_id="no-audit")
    report.add("1.2.33", "etcd encryption at rest", config.etcd_encryption,
               risk_id="etcd-plaintext")
    report.add("1.2.7", "authorization mode is not AlwaysAllow",
               config.authorization_mode != "AlwaysAllow",
               detail=f"mode={config.authorization_mode}",
               risk_id="authz-always-allow")
    report.add("1.2.16", "PodSecurity admission enabled",
               "PodSecurity" in config.admission_plugins,
               risk_id="no-pod-security-admission")
    return report


# ---------------------------------------------------------------------------
# kubesec: per-pod security-context scoring
# ---------------------------------------------------------------------------

def kubesec(cluster: KubeCluster) -> ComplianceReport:
    report = ComplianceReport("kubesec")
    pods = list(cluster.pods.values())
    if not pods:
        report.add("KS-0", "no pods to score", True, risk_id="")
        return report
    for pod in pods:
        spec = pod.spec
        prefix = pod.key
        report.add(f"{prefix}:privileged", "container not privileged",
                   not spec.security.privileged, risk_id="privileged-pod")
        report.add(f"{prefix}:run-as-non-root", "runAsNonRoot set",
                   spec.security.run_as_non_root, risk_id="root-container")
        report.add(f"{prefix}:caps", "no added capabilities",
                   not spec.security.added_capabilities,
                   risk_id="added-capabilities")
        report.add(f"{prefix}:hostpath", "no hostPath volumes",
                   not spec.host_path_volumes, risk_id="hostpath-mount")
        report.add(f"{prefix}:limits", "resource limits set",
                   not spec.limits.unbounded, risk_id="unbounded-resources")
        report.add(f"{prefix}:seccomp", "seccomp profile applied",
                   spec.security.seccomp_profile in ("runtime/default", "default"),
                   risk_id="seccomp-unconfined")
    return report


# ---------------------------------------------------------------------------
# kube-hunter: active probing of the live API surface
# ---------------------------------------------------------------------------

def kube_hunter(cluster: KubeCluster) -> ComplianceReport:
    """Probes the API server as an unauthenticated attacker would."""
    report = ComplianceReport("kube-hunter")
    api = cluster.api

    # KHV002: can an anonymous caller list pods?
    try:
        api.request(None, "list", "pods", "")
        anonymous_readable = True
    except (AuthenticationError, AuthorizationError):
        anonymous_readable = False
    report.add("KHV002", "anonymous API enumeration blocked",
               not anonymous_readable, risk_id="anonymous-access")

    # KHV005: can an anonymous caller read secrets?
    try:
        api.request(None, "list", "secrets", "")
        secrets_readable = True
    except (AuthenticationError, AuthorizationError):
        secrets_readable = False
    report.add("KHV005", "anonymous secret access blocked",
               not secrets_readable, risk_id="secret-exposure")

    # KHV003: insecure (non-TLS) port reachable?
    report.add("KHV003", "insecure port closed",
               not api.config.insecure_port_enabled, risk_id="insecure-port")

    # KHV036: can an anonymous caller create workloads?
    try:
        api.request(None, "create", "pods", "default", "probe", obj=None)
        anonymous_writable = True
    except (AuthenticationError, AuthorizationError):
        anonymous_writable = False
    report.add("KHV036", "anonymous workload creation blocked",
               not anonymous_writable, risk_id="anonymous-write")
    return report


# ---------------------------------------------------------------------------
# kubescape: NSA hardening-guidance controls
# ---------------------------------------------------------------------------

def kubescape(cluster: KubeCluster) -> ComplianceReport:
    report = ComplianceReport("kubescape (NSA guidance)")
    pods = list(cluster.pods.values())

    privileged = [p.key for p in pods if p.spec.security.privileged]
    report.add("C-0057", "no privileged workloads", not privileged,
               detail=", ".join(privileged), risk_id="privileged-pod")

    host_ns = [p.key for p in pods if p.spec.host_network or p.spec.host_pid]
    report.add("C-0038", "no host namespaces", not host_ns,
               detail=", ".join(host_ns), risk_id="host-namespace")

    # RBAC wildcard detection.
    wildcard_roles = [
        role.name for role in cluster.api.rbac.roles.values()
        if any("*" in rule.verbs and "*" in rule.resources
               for rule in role.rules)
    ]
    report.add("C-0088", "no wildcard RBAC roles", not wildcard_roles,
               detail=", ".join(wildcard_roles), risk_id="rbac-wildcard")

    # Network segmentation between tenants.
    unsegmented = [
        namespace for namespace in TENANT_NAMESPACES
        if all(cluster.ingress_allowed(other, namespace)
               for other in TENANT_NAMESPACES if other != namespace)
    ]
    report.add("C-0260", "tenant namespaces network-segmented",
               not unsegmented, detail=", ".join(unsegmented),
               risk_id="no-network-policy")

    report.add("C-0066", "secrets encrypted at rest",
               cluster.api.config.etcd_encryption, risk_id="etcd-plaintext")
    report.add("C-0035", "audit logging enabled",
               cluster.api.config.audit_logging, risk_id="no-audit")
    return report


# ---------------------------------------------------------------------------
# docker-bench: runtime daemon + per-container checks
# ---------------------------------------------------------------------------

def docker_bench(runtime: ContainerRuntime) -> ComplianceReport:
    report = ComplianceReport("docker-bench")
    config = runtime.config
    report.add("2.1", "inter-container communication restricted",
               not config.icc_enabled, risk_id="icc-open")
    report.add("2.8", "user namespace remapping enabled",
               config.userns_remap, risk_id="no-userns-remap")
    report.add("2.14", "live restore enabled", config.live_restore,
               risk_id="no-live-restore")
    report.add("2.5", "no insecure registries",
               not config.insecure_registries, risk_id="insecure-registry")
    report.add("4.5", "content trust enabled", config.content_trust,
               risk_id="no-content-trust")
    report.add("2.13", "centralized logging configured",
               config.log_driver_configured, risk_id="no-log-driver")
    report.add("2.6", "TLS on the daemon socket", config.tls_on_daemon_socket,
               risk_id="daemon-socket-plaintext")

    for container in runtime.containers.values():
        prefix = container.spec.name or container.id
        report.add(f"5.4:{prefix}", "container not privileged",
                   not container.spec.privileged, risk_id="privileged-pod")
        report.add(f"5.10:{prefix}", "memory limit set",
                   container.spec.limits.memory_mb is not None,
                   risk_id="unbounded-resources")
        report.add(f"5.25:{prefix}", "no-new-privileges set",
                   container.spec.no_new_privileges,
                   risk_id="privilege-escalation")
        sensitive = [m.host_path for m in container.spec.mounts if m.sensitive]
        report.add(f"5.5:{prefix}", "no sensitive host mounts",
                   not sensitive, detail=", ".join(sensitive),
                   risk_id="hostpath-mount")
        report.add(f"4.1:{prefix}", "image does not run as root",
                   container.spec.image.user != "root", risk_id="root-container")
    return report


# ---------------------------------------------------------------------------
# The suite: Lesson 5's union
# ---------------------------------------------------------------------------

class ComplianceSuite:
    """Runs every checker and reports per-tool and union risk coverage."""

    def __init__(self, cluster: KubeCluster,
                 runtimes: Sequence[ContainerRuntime] = ()) -> None:
        self.cluster = cluster
        self.runtimes = list(runtimes)

    def run(self) -> Dict[str, ComplianceReport]:
        reports = {
            "kube-bench": kube_bench(self.cluster),
            "kubesec": kubesec(self.cluster),
            "kube-hunter": kube_hunter(self.cluster),
            "kubescape": kubescape(self.cluster),
        }
        for index, runtime in enumerate(self.runtimes):
            reports[f"docker-bench[{runtime.node_name}]"] = docker_bench(runtime)
        return reports

    def coverage_analysis(self) -> Dict[str, object]:
        """Per-tool risk coverage vs. the union (the Lesson 5 numbers)."""
        reports = self.run()
        per_tool = {name: report.risks_covered()
                    for name, report in reports.items()}
        union: Set[str] = set()
        for risks in per_tool.values():
            union |= risks
        return {
            "per_tool": {name: sorted(risks) for name, risks in per_tool.items()},
            "per_tool_count": {name: len(risks) for name, risks in per_tool.items()},
            "union": sorted(union),
            "union_count": len(union),
            "max_single_tool": max((len(r) for r in per_tool.values()),
                                   default=0),
        }
