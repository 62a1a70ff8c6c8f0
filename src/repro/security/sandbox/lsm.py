"""KubeArmor-style LSM enforcement policies (M17).

A :class:`KubeArmorPolicy` selects containers (by tenant or image) and
*blocks* — not merely observes — unauthorized process executions, file
accesses and network operations at the runtime's syscall mediation layer.
This is the "restrict container, pod, and VM behavior at the system level
using Linux Security Modules" of the paper, and the enforcement
counterpart to Falco's observe-only posture (M18).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.virt.container import Container
from repro.virt.runtime import ContainerRuntime


class PolicyAction:
    BLOCK = "Block"
    AUDIT = "Audit"


@dataclass
class KubeArmorPolicy:
    """One enforcement policy."""

    name: str
    tenant_selector: str = "*"              # fnmatch over container tenant
    image_selector: str = "*"               # fnmatch over image reference
    blocked_process_paths: Tuple[str, ...] = ()
    blocked_file_patterns: Tuple[str, ...] = ()   # write/read targets
    readonly_file_patterns: Tuple[str, ...] = ()  # write-blocked only
    blocked_syscalls: Tuple[str, ...] = ()
    allow_network_to: Optional[Tuple[str, ...]] = None  # None = any
    action: str = PolicyAction.BLOCK

    def selects(self, container: Container) -> bool:
        return (fnmatch.fnmatch(container.tenant, self.tenant_selector)
                and fnmatch.fnmatch(container.image.reference,
                                    self.image_selector))

    def evaluate(self, container: Container, syscall: str,
                 args: Dict[str, object]) -> Optional[str]:
        """Return a deny reason, or None."""
        if not self.selects(container):
            return None
        if syscall in self.blocked_syscalls:
            return f"{self.name}: syscall {syscall} blocked"
        if syscall in ("execve", "execveat"):
            path = str(args.get("path", ""))
            for pattern in self.blocked_process_paths:
                if fnmatch.fnmatch(path, pattern):
                    return f"{self.name}: process {path} blocked"
        if syscall in ("open", "openat", "unlink", "rename"):
            path = str(args.get("path", ""))
            writing = str(args.get("mode", "r")) in ("w", "rw", "a")
            for pattern in self.blocked_file_patterns:
                if fnmatch.fnmatch(path, pattern):
                    return f"{self.name}: file {path} blocked"
            if writing:
                for pattern in self.readonly_file_patterns:
                    if fnmatch.fnmatch(path, pattern):
                        return f"{self.name}: write to {path} blocked"
        if syscall in ("connect", "sendto") and self.allow_network_to is not None:
            destination = str(args.get("dst", ""))
            if destination and not any(fnmatch.fnmatch(destination, allowed)
                                       for allowed in self.allow_network_to):
                return f"{self.name}: connection to {destination} blocked"
        return None


def default_tenant_policy(tenant: str = "*") -> KubeArmorPolicy:
    """The baseline policy GENIO applies to every tenant workload."""
    return KubeArmorPolicy(
        name=f"genio-tenant-baseline[{tenant}]",
        tenant_selector=tenant,
        blocked_process_paths=("/bin/sh", "/bin/bash", "/usr/bin/nc",
                               "/usr/bin/socat", "/usr/bin/wget",
                               "/usr/bin/curl"),
        blocked_file_patterns=("/var/run/docker.sock", "/proc/sys/*",
                               "/sys/fs/cgroup/*release_agent*"),
        readonly_file_patterns=("/etc/*", "/usr/bin/*", "/usr/sbin/*"),
        blocked_syscalls=("init_module", "finit_module", "kexec_load",
                          "ptrace", "mount", "setns", "pivot_root"),
        allow_network_to=("10.*", "registry.genio.example", "*.genio.example"),
    )


def install_policy(runtime: ContainerRuntime,
                   policy: KubeArmorPolicy) -> None:
    """Attach a policy to a runtime's LSM mediation layer."""
    if policy.action == PolicyAction.BLOCK:
        runtime.add_lsm_policy(policy.name, policy.evaluate)
    else:
        # Audit mode: evaluate for visibility but never deny.
        def audit_only(container: Container, syscall: str,
                       args: Dict[str, object]) -> Optional[str]:
            policy.evaluate(container, syscall, args)
            return None
        runtime.add_lsm_policy(policy.name, audit_only)
