"""Provisioning tenant leases onto the edge infrastructure.

Turns a :class:`~repro.platform.tenants.ResourceLease` into running
infrastructure, honoring the isolation mode the business user paid for:

* ``hard``  — a dedicated VM created through Proxmox on an OLT with room,
  owned exclusively by the tenant;
* ``soft``  — a carved-out share of an existing shared worker VM's
  runtime, bounded by resource limits matching the lease.

Capacity is checked against the OLT fleet, and hard-isolation VMs join
the Kubernetes cluster labeled with their tenant so scheduling stays
tenant-affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import CapacityError
from repro.orchestrator.proxmox import PVE_ADMIN
from repro.platform.genio import GenioDeployment
from repro.platform.tenants import ResourceLease
from repro.virt.container import ResourceLimits
from repro.virt.vm import VmSpec


@dataclass
class ProvisionedLease:
    """One lease turned into infrastructure."""

    lease: ResourceLease
    isolation: str
    vm_id: str = ""            # hard isolation: the dedicated VM
    shared_node: str = ""      # soft isolation: the runtime carved into
    limits: Optional[ResourceLimits] = None


class LeaseProvisioner:
    """Provisions leases against a deployment's edge capacity."""

    def __init__(self, deployment: GenioDeployment) -> None:
        self.deployment = deployment
        self.provisioned: List[ProvisionedLease] = []

    def provision(self, lease: ResourceLease) -> ProvisionedLease:
        """Provision one lease.

        :raises CapacityError: no OLT can satisfy the lease.
        """
        if lease.isolation == "hard":
            result = self._provision_hard(lease)
        else:
            result = self._provision_soft(lease)
        self.provisioned.append(result)
        return result

    def _provision_hard(self, lease: ResourceLease) -> ProvisionedLease:
        for olt_node in self.deployment.olts:
            hypervisor = olt_node.hypervisor
            if (hypervisor.cpu_free() < lease.cpu_cores
                    or hypervisor.memory_free() < lease.memory_mb):
                continue
            vm = self.deployment.proxmox.create_vm(
                PVE_ADMIN, olt_node.name,
                VmSpec(name=f"lease-{lease.tenant}-{len(self.provisioned)}",
                       vcpus=lease.cpu_cores, memory_mb=lease.memory_mb,
                       tenant=lease.tenant))
            olt_node.worker_vms.append(vm)
            self.deployment.cloud_cluster.add_node(
                vm, labels={"olt": olt_node.name, "tenant": lease.tenant,
                            "isolation": "hard"})
            return ProvisionedLease(lease=lease, isolation="hard", vm_id=vm.id)
        raise CapacityError(
            f"no OLT can host a dedicated {lease.cpu_cores}-core VM for "
            f"{lease.tenant}")

    def _provision_soft(self, lease: ResourceLease) -> ProvisionedLease:
        for vm in self.deployment.worker_vms():
            if vm.tenant not in (lease.tenant, "platform"):
                continue
            runtime = vm.runtime
            free_cpu = runtime.cpu_capacity - sum(
                (c.spec.limits.cpu_shares or 0) / 1024
                for c in runtime.running_containers())
            if free_cpu < lease.cpu_cores:
                continue
            limits = ResourceLimits(cpu_shares=lease.cpu_cores * 1024,
                                    memory_mb=lease.memory_mb)
            return ProvisionedLease(lease=lease, isolation="soft",
                                    shared_node=runtime.node_name,
                                    limits=limits)
        raise CapacityError(
            f"no shared worker VM has {lease.cpu_cores} cores free for "
            f"{lease.tenant}")

    def tenancy_summary(self) -> dict:
        hard = [p for p in self.provisioned if p.isolation == "hard"]
        soft = [p for p in self.provisioned if p.isolation == "soft"]
        return {"hard": len(hard), "soft": len(soft),
                "dedicated_vms": [p.vm_id for p in hard],
                "shared_nodes": sorted({p.shared_node for p in soft})}
