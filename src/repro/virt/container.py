"""Containers: capabilities, namespaces, syscall surface, escape logic.

The T8 threat chain the paper describes runs through here: a malicious
application invokes privileged syscalls or abuses capabilities (e.g.
``CAP_SYS_ADMIN``) to escape container restrictions and reach the host.
Whether that works depends on how the container was launched (privileged?
which capabilities? host mounts?) and on what the runtime's LSM layer
(:mod:`repro.security.sandbox`) blocks — making the mitigation measurable.

A container keeps no log of its syscalls: the runtime returns each
:class:`SyscallRecord` to its caller and publishes the attempt as a
``runtime.syscall`` bus event, which is the audit trail Falco (M18)
watches. A long run's memory therefore does not grow with its syscalls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.virt.image import ContainerImage

# The Docker default capability set (subset relevant to the simulation).
DEFAULT_CAPABILITIES = frozenset({
    "CAP_CHOWN", "CAP_DAC_OVERRIDE", "CAP_FOWNER", "CAP_KILL",
    "CAP_NET_BIND_SERVICE", "CAP_SETGID", "CAP_SETUID",
})

# Capabilities that enable host takeover when granted.
DANGEROUS_CAPABILITIES = frozenset({
    "CAP_SYS_ADMIN", "CAP_SYS_MODULE", "CAP_SYS_PTRACE", "CAP_NET_ADMIN",
    "CAP_DAC_READ_SEARCH", "CAP_SYS_RAWIO",
})


class ContainerState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    KILLED = "killed"       # terminated by policy enforcement


@dataclass
class ResourceLimits:
    """cgroup-style limits; None means unlimited (a docker-bench finding)."""

    cpu_shares: Optional[int] = None
    memory_mb: Optional[int] = None
    pids: Optional[int] = None

    @property
    def unbounded(self) -> bool:
        return self.cpu_shares is None or self.memory_mb is None


@dataclass
class Mount:
    """A bind mount into the container."""

    host_path: str
    container_path: str
    read_only: bool = False

    @property
    def sensitive(self) -> bool:
        risky = ("/", "/etc", "/var/run/docker.sock", "/proc", "/sys", "/boot",
                 "/dev", "/host")
        return self.host_path in risky or self.host_path.startswith("/var/run/docker")


@dataclass
class ContainerSpec:
    """Launch-time configuration for a container."""

    image: ContainerImage
    name: str = ""
    privileged: bool = False
    capabilities: Set[str] = field(default_factory=lambda: set(DEFAULT_CAPABILITIES))
    mounts: List[Mount] = field(default_factory=list)
    limits: ResourceLimits = field(default_factory=ResourceLimits)
    network_namespace: str = "tenant-default"
    host_network: bool = False
    host_pid: bool = False
    no_new_privileges: bool = False
    read_only_rootfs: bool = False
    seccomp_profile: str = "default"      # "default" | "unconfined"
    tenant: str = "unassigned"

    def effective_capabilities(self) -> Set[str]:
        if self.privileged:
            return set(DEFAULT_CAPABILITIES) | set(DANGEROUS_CAPABILITIES)
        return set(self.capabilities)


@dataclass
class SyscallRecord:
    """One syscall a containerized process attempted."""

    syscall: str
    args: Dict[str, object]
    allowed: bool
    blocked_by: str = ""


class Container:
    """A running (or run) container instance."""

    def __init__(self, container_id: str, spec: ContainerSpec) -> None:
        self.id = container_id
        self.spec = spec
        self.state = ContainerState.CREATED
        self.escaped = False
        self.cpu_used = 0.0
        self.memory_used_mb = 0.0
        self.kill_reason = ""

    @property
    def image(self) -> ContainerImage:
        return self.spec.image

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    def start(self) -> None:
        self.state = ContainerState.RUNNING

    def stop(self) -> None:
        if self.state is ContainerState.RUNNING:
            self.state = ContainerState.STOPPED

    def kill(self, reason: str) -> None:
        self.state = ContainerState.KILLED
        self.kill_reason = reason

    @property
    def running(self) -> bool:
        return self.state is ContainerState.RUNNING

    # -- escape analysis (used by the T8 attack module) ---------------------------

    def escape_vectors(self) -> List[str]:
        """Which container-escape paths this configuration leaves open.

        An empty list means the configuration alone does not permit escape
        (a kernel exploit could still do it — that is T4's territory).
        """
        vectors = []
        caps = self.spec.effective_capabilities()
        if self.spec.privileged:
            vectors.append("privileged: full device and kernel interface access")
        if "CAP_SYS_ADMIN" in caps:
            vectors.append("CAP_SYS_ADMIN: mount/cgroup release_agent escape")
        if "CAP_SYS_MODULE" in caps:
            vectors.append("CAP_SYS_MODULE: load a kernel module onto the host")
        if "CAP_SYS_PTRACE" in caps and self.spec.host_pid:
            vectors.append("CAP_SYS_PTRACE + host PID ns: inject into host process")
        for mount in self.spec.mounts:
            if mount.sensitive and not mount.read_only:
                vectors.append(f"writable sensitive mount {mount.host_path}")
            elif mount.host_path == "/var/run/docker.sock":
                vectors.append("docker socket mount: spawn privileged sibling")
        if self.spec.seccomp_profile == "unconfined" and not self.spec.no_new_privileges:
            vectors.append("unconfined seccomp without no_new_privileges")
        return vectors
