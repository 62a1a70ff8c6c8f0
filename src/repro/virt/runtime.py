"""Container runtime: lifecycle, syscall mediation, resource accounting.

The runtime is the enforcement point where three of the paper's
mitigations plug in:

* **M17 sandboxing** — LSM-style policies registered via
  :meth:`ContainerRuntime.add_lsm_policy` veto syscalls/file/network
  actions (the KubeArmor pattern: block, don't just observe);
* **M18 runtime monitoring** — every syscall is published on the event
  bus topic ``runtime.syscall`` whether allowed or not (the Falco
  pattern: observe without blocking);
* **M13 runtime hardening** — :class:`RuntimeConfig` carries the
  daemon-level settings docker-bench audits (icc, userns-remap, live
  restore, insecure registries...).

Resource accounting implements the T8 resource-abuse surface: containers
draw from a shared CPU/memory pool; unlimited containers can starve their
neighbours unless limits (and the monitor's abuse rule) are in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.clock import SimClock
from repro.common.errors import CapacityError, NotFoundError, QuarantineError
from repro.common.events import EventBus
from repro.common.ids import IdGenerator
from repro.virt.container import Container, ContainerSpec, SyscallRecord

# An LSM policy callback: (container, action, args) -> deny reason or None.
LsmPolicy = Callable[[Container, str, Dict[str, object]], Optional[str]]

# An admission callback: (spec) -> deny reason or None (used by image
# scanning gates: malware-flagged or unscanned images are refused).
AdmissionHook = Callable[[ContainerSpec], Optional[str]]

# Syscalls the default seccomp profile forbids (subset, mirrors Docker's).
_SECCOMP_DEFAULT_DENY = frozenset({
    "kexec_load", "init_module", "finit_module", "delete_module",
    "open_by_handle_at", "perf_event_open", "ptrace", "mount", "umount2",
    "pivot_root", "reboot", "swapon", "swapoff", "iopl", "ioperm",
})

# Kernel capability requirements: even with seccomp unconfined, these
# syscalls fail without the named capability (as in real Linux).
_SYSCALL_REQUIRED_CAPS = {
    "mount": "CAP_SYS_ADMIN",
    "umount2": "CAP_SYS_ADMIN",
    "setns": "CAP_SYS_ADMIN",
    "pivot_root": "CAP_SYS_ADMIN",
    "init_module": "CAP_SYS_MODULE",
    "finit_module": "CAP_SYS_MODULE",
    "delete_module": "CAP_SYS_MODULE",
    "kexec_load": "CAP_SYS_BOOT",
    "reboot": "CAP_SYS_BOOT",
    "ptrace": "CAP_SYS_PTRACE",
    "iopl": "CAP_SYS_RAWIO",
    "ioperm": "CAP_SYS_RAWIO",
}


@dataclass
class RuntimeConfig:
    """Daemon-level configuration (the docker-bench audit surface)."""

    icc_enabled: bool = True                # inter-container comms on same bridge
    userns_remap: bool = False
    live_restore: bool = False
    insecure_registries: List[str] = field(default_factory=list)
    content_trust: bool = False
    default_ulimits_set: bool = False
    log_driver_configured: bool = False
    tls_on_daemon_socket: bool = False


class ContainerRuntime:
    """One node's container engine."""

    def __init__(
        self,
        node_name: str,
        cpu_capacity: float = 8.0,
        memory_capacity_mb: float = 16384,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.node_name = node_name
        self.cpu_capacity = cpu_capacity
        self.memory_capacity_mb = memory_capacity_mb
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self.config = RuntimeConfig()
        self.containers: Dict[str, Container] = {}
        self._ids = IdGenerator()
        self._lsm_policies: List[Tuple[str, LsmPolicy]] = []
        self._admission_hooks: List[AdmissionHook] = []
        self.blocked_actions = 0

    # -- policy plug-in points -----------------------------------------------------

    def add_lsm_policy(self, name: str, policy: LsmPolicy) -> None:
        """Register an M17-style enforcement policy."""
        self._lsm_policies.append((name, policy))

    def add_admission_hook(self, hook: AdmissionHook) -> None:
        """Register a launch gate (e.g. the M16 malware-scan gate)."""
        self._admission_hooks.append(hook)

    # -- lifecycle --------------------------------------------------------------------

    def run(self, spec: ContainerSpec) -> Container:
        """Admit and start a container.

        :raises QuarantineError: an admission hook refused the image.
        :raises CapacityError: requested guaranteed resources don't fit.
        """
        for hook in self._admission_hooks:
            reason = hook(spec)
            if reason is not None:
                raise QuarantineError(
                    f"admission denied for {spec.image.reference}: {reason}"
                )
        requested_cpu = (spec.limits.cpu_shares or 0) / 1024
        requested_mem = spec.limits.memory_mb or 0
        if requested_cpu > self._cpu_free() or requested_mem > self._memory_free():
            raise CapacityError(
                f"node {self.node_name} cannot fit {spec.image.reference}"
            )
        container = Container(self._ids.next("ctr"), spec)
        if not spec.name:
            spec.name = container.id
        container.start()
        self.containers[container.id] = container
        self.bus.emit("runtime.start", self.node_name, self.clock.now,
                      container=container.id, image=spec.image.reference,
                      tenant=spec.tenant)
        return container

    def stop(self, container_id: str) -> None:
        self._get(container_id).stop()

    def kill(self, container_id: str, reason: str) -> None:
        self._get(container_id).kill(reason)
        self.bus.emit("runtime.kill", self.node_name, self.clock.now,
                      container=container_id, reason=reason)

    def running_containers(self) -> List[Container]:
        return [c for c in self.containers.values() if c.running]

    # -- syscall mediation (M17 blocks, M18 observes) -------------------------------------

    def syscall(self, container_id: str, syscall: str,
                **args: object) -> SyscallRecord:
        """Mediate one syscall from a container.

        Order matches the real stack: seccomp first (coarse allow-list),
        then LSM policies (fine-grained), and the event is *always*
        published for observability.
        """
        container = self._get(container_id)
        allowed, blocked_by = True, ""

        if (container.spec.seccomp_profile == "default"
                and syscall in _SECCOMP_DEFAULT_DENY
                and not container.spec.privileged):
            allowed, blocked_by = False, "seccomp:default"

        if allowed:
            required_cap = _SYSCALL_REQUIRED_CAPS.get(syscall)
            if (required_cap is not None
                    and required_cap not in container.spec.effective_capabilities()):
                allowed, blocked_by = False, f"capability:{required_cap}"

        if allowed:
            for name, policy in self._lsm_policies:
                reason = policy(container, syscall, dict(args))
                if reason is not None:
                    allowed, blocked_by = False, f"lsm:{name}:{reason}"
                    break

        record = SyscallRecord(syscall=syscall, args=dict(args),
                               allowed=allowed, blocked_by=blocked_by)
        if not allowed:
            self.blocked_actions += 1
        self.bus.emit("runtime.syscall", self.node_name, self.clock.now,
                      container=container_id, tenant=container.tenant,
                      process=container.spec.image.entrypoint,
                      syscall=syscall, allowed=allowed,
                      blocked_by=blocked_by, **args)
        return record

    # -- resource accounting (T8 resource abuse surface) ------------------------------------

    def consume(self, container_id: str, cpu: float = 0.0,
                memory_mb: float = 0.0) -> bool:
        """Let a container draw resources; enforce limits if it has them.

        Returns False (and clamps) when the draw exceeds the container's
        own limits. Unlimited containers can take everything that's free —
        that's the point the resource-abuse experiment makes.
        """
        container = self._get(container_id)
        limits = container.spec.limits
        within = True
        if limits.cpu_shares is not None:
            cap = limits.cpu_shares / 1024
            if container.cpu_used + cpu > cap:
                cpu = max(0.0, cap - container.cpu_used)
                within = False
        if limits.memory_mb is not None:
            if container.memory_used_mb + memory_mb > limits.memory_mb:
                memory_mb = max(0.0, limits.memory_mb - container.memory_used_mb)
                within = False
        cpu = min(cpu, self._cpu_free())
        memory_mb = min(memory_mb, self._memory_free())
        container.cpu_used += cpu
        container.memory_used_mb += memory_mb
        return within

    def _cpu_free(self) -> float:
        used = sum(c.cpu_used for c in self.running_containers())
        return max(0.0, self.cpu_capacity - used)

    def _memory_free(self) -> float:
        used = sum(c.memory_used_mb for c in self.running_containers())
        return max(0.0, self.memory_capacity_mb - used)

    def utilization(self) -> Dict[str, float]:
        return {
            "cpu_used": self.cpu_capacity - self._cpu_free(),
            "cpu_capacity": self.cpu_capacity,
            "memory_used_mb": self.memory_capacity_mb - self._memory_free(),
            "memory_capacity_mb": self.memory_capacity_mb,
        }

    def _get(self, container_id: str) -> Container:
        container = self.containers.get(container_id)
        if container is None:
            raise NotFoundError(f"no container {container_id} on {self.node_name}")
        return container
