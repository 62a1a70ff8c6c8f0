"""Linux/KVM-like hypervisor managing an OLT node's VMs.

Capacity is finite (the OLT's x86 COTS resources). The hypervisor also
carries patch state: the T4 experiment exploits a known VM-escape
CVE against an unpatched hypervisor and shows patching (via M8/M12 vuln
management) closes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import CapacityError, NotFoundError
from repro.common.events import EventBus
from repro.common.ids import IdGenerator
from repro.virt.vm import VirtualMachine, VmSpec


class Hypervisor:
    """KVM on one OLT host."""

    def __init__(
        self,
        host_name: str,
        cpu_cores: int = 16,
        memory_mb: int = 65536,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.host_name = host_name
        self.cpu_cores = cpu_cores
        self.memory_mb = memory_mb
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self.vms: Dict[str, VirtualMachine] = {}
        self._ids = IdGenerator()
        # CVE ids known to allow guest->host escape while unpatched.
        self.unpatched_escape_cves: List[str] = []

    def create_vm(self, spec: VmSpec) -> VirtualMachine:
        """Allocate and boot a VM.

        :raises CapacityError: the node cannot fit the requested shape.
        """
        if spec.vcpus > self.cpu_free() or spec.memory_mb > self.memory_free():
            raise CapacityError(
                f"{self.host_name}: cannot fit VM {spec.name} "
                f"({spec.vcpus} vcpu/{spec.memory_mb} MB)"
            )
        vm = VirtualMachine(self._ids.next("vm"), spec,
                            clock=self.clock, bus=self.bus)
        self.vms[vm.id] = vm
        self.bus.emit("hypervisor.vm_created", self.host_name, self.clock.now,
                      vm=vm.id, tenant=spec.tenant)
        return vm

    def destroy_vm(self, vm_id: str) -> None:
        vm = self.get_vm(vm_id)
        vm.shutdown()
        del self.vms[vm_id]

    def get_vm(self, vm_id: str) -> VirtualMachine:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise NotFoundError(f"no VM {vm_id} on {self.host_name}")
        return vm

    def running_vms(self) -> List[VirtualMachine]:
        return [vm for vm in self.vms.values() if vm.running]

    def cpu_free(self) -> int:
        return self.cpu_cores - sum(vm.spec.vcpus for vm in self.running_vms())

    def memory_free(self) -> int:
        return self.memory_mb - sum(vm.spec.memory_mb for vm in self.running_vms())

    # -- escape surface (T4) ---------------------------------------------------------

    def mark_unpatched(self, cve_id: str) -> None:
        if cve_id not in self.unpatched_escape_cves:
            self.unpatched_escape_cves.append(cve_id)

    def patch(self, cve_id: str) -> None:
        if cve_id in self.unpatched_escape_cves:
            self.unpatched_escape_cves.remove(cve_id)

    def attempt_escape(self, vm_id: str, using_cve: str) -> bool:
        """Guest-to-host escape attempt; succeeds iff the CVE is unpatched."""
        self.get_vm(vm_id)  # must be a real guest
        success = using_cve in self.unpatched_escape_cves
        self.bus.emit("hypervisor.escape_attempt", self.host_name, self.clock.now,
                      vm=vm_id, cve=using_cve, success=success)
        return success
