"""Kubernetes-style API objects (the subset the paper's tooling audits).

Pod security context fields mirror the knobs the NSA hardening guidance
and kubesec check: privileged, runAsNonRoot, capabilities, hostPath
volumes, hostNetwork/hostPID, resource limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.virt.container import ContainerSpec, Mount, ResourceLimits
from repro.virt.image import ContainerImage


@dataclass
class Namespace:
    """A tenancy boundary inside the cluster."""

    name: str
    labels: Dict[str, str] = field(default_factory=dict)
    pod_security_level: str = "privileged"   # privileged | baseline | restricted


@dataclass
class ServiceAccount:
    """Workload identity; pods run as one of these."""

    name: str
    namespace: str
    automount_token: bool = True

    @property
    def principal(self) -> str:
        return f"system:serviceaccount:{self.namespace}:{self.name}"


@dataclass
class Secret:
    """A namespaced secret object."""

    name: str
    namespace: str
    data: Dict[str, bytes] = field(default_factory=dict)


@dataclass
class PodSecurityContext:
    """Pod/container-level security knobs."""

    privileged: bool = False
    run_as_non_root: bool = False
    run_as_user: Optional[int] = None
    allow_privilege_escalation: bool = True
    added_capabilities: Tuple[str, ...] = ()
    dropped_capabilities: Tuple[str, ...] = ()
    read_only_root_filesystem: bool = False
    seccomp_profile: str = "unconfined"   # k8s default pre-1.25 behaviour


@dataclass
class PodSpec:
    """Desired state for one pod (single-container model)."""

    name: str
    namespace: str
    image: ContainerImage
    service_account: str = "default"
    security: PodSecurityContext = field(default_factory=PodSecurityContext)
    host_network: bool = False
    host_pid: bool = False
    host_path_volumes: Tuple[str, ...] = ()
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    node_selector: Dict[str, str] = field(default_factory=dict)
    labels: Dict[str, str] = field(default_factory=dict)
    tenant: str = "unassigned"

    def to_container_spec(self) -> ContainerSpec:
        """Lower this pod to a runtime container spec."""
        from repro.virt.container import DEFAULT_CAPABILITIES
        caps = set(DEFAULT_CAPABILITIES)
        caps |= set(self.security.added_capabilities)
        caps -= set(self.security.dropped_capabilities)
        mounts = [Mount(host_path=p, container_path=p) for p in self.host_path_volumes]
        return ContainerSpec(
            image=self.image,
            name=self.name,
            privileged=self.security.privileged,
            capabilities=caps,
            mounts=mounts,
            limits=self.limits,
            host_network=self.host_network,
            host_pid=self.host_pid,
            no_new_privileges=not self.security.allow_privilege_escalation,
            read_only_rootfs=self.security.read_only_root_filesystem,
            seccomp_profile=("default" if self.security.seccomp_profile
                             in ("runtime/default", "default") else "unconfined"),
            tenant=self.tenant,
        )


@dataclass
class Pod:
    """A scheduled pod bound to a node."""

    spec: PodSpec
    node: str = ""
    container_id: str = ""
    phase: str = "Pending"   # Pending | Running | Failed | Succeeded

    @property
    def key(self) -> str:
        return f"{self.spec.namespace}/{self.spec.name}"


@dataclass
class NetworkPolicy:
    """Namespace-scoped traffic policy (default-deny support)."""

    name: str
    namespace: str
    default_deny_ingress: bool = False
    allowed_from_namespaces: Tuple[str, ...] = ()

    def allows(self, from_namespace: str) -> bool:
        if not self.default_deny_ingress:
            return True
        return from_namespace in self.allowed_from_namespaces
