"""T7/T8: application-level attacks.

* :class:`VulnerableAppExploit` — exploit a seeded defect in a deployed
  tenant application through its REST surface (T7).
* :class:`MaliciousImageAttack` — get a malware-carrying image running on
  the platform (T8; defeated by the M16 admission gate).
* :class:`CapabilityAbuseAttack` — from inside a running container, abuse
  capabilities/privilege to escape to the host (T8; defeated by M17
  sandboxing and restrictive pod admission).
* :class:`ResourceAbuseAttack` — monopolize node resources to starve
  neighbouring tenants (T8; defeated by limits + M18 abuse detection).
"""

from __future__ import annotations

from typing import List

from repro.common.errors import CapacityError, QuarantineError
from repro.pon.attacks import AttackResult
from repro.security.appsec.dast import RestService
from repro.virt.container import Container
from repro.virt.image import ContainerImage
from repro.virt.runtime import ContainerRuntime

# How many times the greedy tenant asks for a quarter of the node.
ABUSE_ROUNDS = 8


class VulnerableAppExploit:
    """Exploit a known injection flaw in a tenant app's REST endpoint."""

    def __init__(self, image: ContainerImage) -> None:
        self.image = image

    def run(self) -> AttackResult:
        if not self.image.openapi_spec:
            return AttackResult("app-exploit", False,
                                "application exposes no REST surface to attack")
        service = RestService(self.image.reference, spec=self.image.openapi_spec)
        wins: List[str] = []
        for operation in service.operations:
            params = {p: "1' OR '1'='1' --" for p in operation.params}
            response = service.call(operation.method, operation.path, params)
            if response.server_error and "sqlite3" in response.body:
                wins.append(f"SQL injection on {operation.method} "
                            f"{operation.path}")
            if operation.requires_auth:
                response = service.call(operation.method, operation.path,
                                        {p: "1" for p in operation.params},
                                        authenticated=False)
                if response.status == 200:
                    wins.append(f"auth bypass on {operation.method} "
                                f"{operation.path}")
        if wins:
            return AttackResult("app-exploit", True,
                                f"{len(wins)} exploitable defects", evidence=wins)
        return AttackResult("app-exploit", False,
                            "no seeded defect reachable (patched application)")


class MaliciousImageAttack:
    """Deploy a malware-carrying image pulled from an external repo."""

    def __init__(self, runtime: ContainerRuntime,
                 image: ContainerImage) -> None:
        self.runtime = runtime
        self.image = image

    def run(self) -> AttackResult:
        from repro.virt.container import ContainerSpec
        spec = ContainerSpec(image=self.image, tenant="tenant-mallory")
        try:
            container = self.runtime.run(spec)
        except QuarantineError as exc:
            return AttackResult("malicious-image", False,
                                f"admission gate blocked the image: {exc}")
        except CapacityError as exc:
            return AttackResult("malicious-image", False, str(exc))
        return AttackResult("malicious-image", True,
                            f"malicious image running as {container.id}",
                            evidence=[self.image.reference])


class CapabilityAbuseAttack:
    """From inside a running container, escape to the host.

    The attack needs (a) a configuration vector (privileged /
    CAP_SYS_ADMIN / sensitive mount) and (b) the escape syscalls to
    actually execute — seccomp and LSM policies can deny them even when
    the configuration is sloppy.
    """

    def __init__(self, runtime: ContainerRuntime, container: Container) -> None:
        self.runtime = runtime
        self.container = container

    def run(self) -> AttackResult:
        vectors = self.container.escape_vectors()
        if not vectors:
            return AttackResult(
                "capability-abuse", False,
                "container configuration leaves no escape vector")
        # Try the cgroup release_agent chain: mount, write, trigger.
        steps = [
            ("mount", {"path": "/sys/fs/cgroup/memory", "mode": "rw"}),
            ("openat", {"path": "/sys/fs/cgroup/release_agent", "mode": "w"}),
            ("execve", {"path": "/bin/sh"}),
        ]
        blocked: List[str] = []
        for syscall, args in steps:
            record = self.runtime.syscall(self.container.id, syscall, **args)
            if not record.allowed:
                blocked.append(f"{syscall} denied by {record.blocked_by}")
        if blocked:
            return AttackResult(
                "capability-abuse", False,
                "escape chain interrupted by runtime enforcement",
                evidence=blocked)
        self.container.escaped = True
        return AttackResult(
            "capability-abuse", True,
            f"container escape via: {vectors[0]}",
            evidence=vectors)


class ResourceAbuseAttack:
    """Monopolize node CPU/memory from one tenant container."""

    def __init__(self, runtime: ContainerRuntime, container: Container) -> None:
        self.runtime = runtime
        self.container = container

    def run(self) -> AttackResult:
        for _ in range(ABUSE_ROUNDS):
            if not self.container.running:
                break
            self.runtime.consume(self.container.id,
                                 cpu=self.runtime.cpu_capacity / 4,
                                 memory_mb=self.runtime.memory_capacity_mb / 4)
            self.runtime.syscall(self.container.id, "clone")
        utilization = self.runtime.utilization()
        cpu_fraction = (utilization["cpu_used"] / utilization["cpu_capacity"]
                        if utilization["cpu_capacity"] else 0.0)
        own_share = (self.container.cpu_used / utilization["cpu_capacity"]
                     if utilization["cpu_capacity"] else 0.0)
        if not self.container.running:
            return AttackResult(
                "resource-abuse", False,
                f"container evicted mid-attack: {self.container.kill_reason}")
        if own_share >= 0.75:
            return AttackResult(
                "resource-abuse", True,
                f"one tenant holds {own_share:.0%} of node CPU; "
                "neighbours starved",
                evidence=[f"cpu_used={utilization['cpu_used']:.1f}"])
        return AttackResult(
            "resource-abuse", False,
            f"limits clamped the tenant to {own_share:.0%} of node CPU")
