"""Virtual machines: GENIO's hard-isolation unit.

Each VM gets dedicated vCPU/memory from its hypervisor and, when used as
a Kubernetes worker, hosts its own :class:`~repro.virt.runtime.ContainerRuntime`.
Hard isolation means a compromise inside the VM stays inside unless the
attacker also has a hypervisor escape (modelled in
:mod:`repro.virt.hypervisor` via unpatched-CVE state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.clock import SimClock
from repro.common.events import EventBus
from repro.virt.runtime import ContainerRuntime


@dataclass
class VmSpec:
    """Requested VM shape."""

    name: str
    vcpus: int = 2
    memory_mb: int = 4096
    tenant: str = "platform"
    role: str = "worker"     # worker | controlplane | appliance

    def __post_init__(self) -> None:
        if self.vcpus <= 0 or self.memory_mb <= 0:
            raise ValueError("VM resources must be positive")


class VirtualMachine:
    """A running VM on an OLT's hypervisor."""

    def __init__(self, vm_id: str, spec: VmSpec,
                 clock: Optional[SimClock] = None,
                 bus: Optional[EventBus] = None) -> None:
        self.id = vm_id
        self.spec = spec
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self.running = True
        self.runtime = ContainerRuntime(
            node_name=f"{vm_id}/{spec.name}",
            cpu_capacity=float(spec.vcpus),
            memory_capacity_mb=float(spec.memory_mb),
            clock=self.clock,
            bus=self.bus,
        )

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    def shutdown(self) -> None:
        self.running = False
        for container in self.runtime.running_containers():
            container.stop()

    def __repr__(self) -> str:
        return f"VirtualMachine({self.id!r}, tenant={self.tenant!r})"
