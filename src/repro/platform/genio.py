"""The assembled GENIO deployment (Figures 1 and 2 of the paper).

:func:`build_genio_deployment` stands up the full three-layer platform
with the *insecure defaults* every component ships with — permissive ONL
hosts, serial-only ONU activation, AlwaysAllow Kubernetes, default ONOS
credentials — because that is the honest starting point of the paper's
work. :class:`repro.security.pipeline.SecurityPipeline` then applies
M1-M18, and every experiment can compare the two states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.clock import SimClock
from repro.common.sim import Scheduler
from repro.common.events import EventBus
from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.objects import Namespace
from repro.orchestrator.kube.rbac import (
    OPERATORS, TENANT_NAMESPACES, Subject, permissive_default_rbac,
)
from repro.orchestrator.proxmox import (
    PVE_ADMIN, PVE_AUDITOR, ProxmoxCluster, PveUser,
)
from repro.orchestrator.registry import REGISTRY_NAME, ImageRegistry
from repro.osmodel.host import Host
from repro.osmodel.presets import cloud_host, stock_onl_olt_host
from repro.platform.tenants import BusinessUser, EndUser, TenantDirectory
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.sdn.controller import SdnController
from repro.sdn.voltha import VOLTHA_VERSION, VolthaCore
from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VirtualMachine, VmSpec

# Latency profiles per layer (Figure 1's deployment rationale).
LAYER_LATENCY_MS = {"far-edge": 1.0, "edge": 5.0, "cloud": 40.0}

# Kubernetes worker VMs per OLT, their tenants taken in turn from
# TENANT_NAMESPACES.
VMS_PER_OLT = 2


@dataclass
class OltNode:
    """One edge OLT: PON termination + compute hub."""

    name: str
    host: Host
    hypervisor: Hypervisor
    pon: PonNetwork
    worker_vms: List[VirtualMachine] = field(default_factory=list)
    # The operator's inventory: serial -> the device installed behind this
    # OLT, written once at build time. Which device is *active* under a
    # serial (a rogue may be) is the OLT's activation table, ``pon.onus``.
    installed_onus: Dict[str, Onu] = field(default_factory=dict)


@dataclass
class GenioDeployment:
    """The whole platform."""

    clock: SimClock
    bus: EventBus
    scheduler: Scheduler
    cloud_node: Host
    cloud_cluster: KubeCluster
    olts: List[OltNode]
    proxmox: ProxmoxCluster
    sdn: SdnController
    voltha: VolthaCore
    registry: ImageRegistry
    tenants: TenantDirectory

    @property
    def onus(self) -> Dict[str, Onu]:
        """Serial -> active device over every OLT, in OLT order.

        Read from each OLT's activation table on every call; the
        deployment keeps no registry of its own.
        """
        return {serial: onu for node in self.olts
                for serial, onu in node.pon.onus.items()}

    @property
    def installed_onus(self) -> Dict[str, Onu]:
        """Serial -> the device the operator installed, in OLT order."""
        return {serial: onu for node in self.olts
                for serial, onu in node.installed_onus.items()}

    # -- queries used by the Figure 1/2 benchmarks ------------------------------

    def all_hosts(self) -> List[Host]:
        return [self.cloud_node] + [olt.host for olt in self.olts]

    def worker_vms(self) -> List[VirtualMachine]:
        return [vm for olt in self.olts for vm in olt.worker_vms]

    def deployment_inventory(self) -> Dict[str, Dict[str, object]]:
        """Figure 1: what runs at each layer, and why (latency profile)."""
        return {
            "far-edge": {
                "devices": sorted(self.installed_onus),
                "device_type": "ONU (+ low-end compute)",
                "location": "residential and business premises",
                "latency_ms": LAYER_LATENCY_MS["far-edge"],
                "suited_for": "ultra-low-latency applications",
            },
            "edge": {
                "devices": [olt.name for olt in self.olts],
                "device_type": "OLT repurposed as edge hub (x86 COTS)",
                "location": "telecom central offices",
                "latency_ms": LAYER_LATENCY_MS["edge"],
                "suited_for": "strict latency/bandwidth applications",
            },
            "cloud": {
                "devices": [self.cloud_node.hostname],
                "device_type": "orchestration center",
                "location": "operator cloud",
                "latency_ms": LAYER_LATENCY_MS["cloud"],
                "suited_for": "heavy computation, orchestration",
            },
        }

    def architecture_stack(self) -> Dict[str, List[str]]:
        """Figure 2: the software stack at each node type."""
        olt = self.olts[0] if self.olts else None
        olt_stack = ["x86 COTS hardware",
                     f"{olt.host.distro.version if olt else 'ONL'} "
                     "(Open Networking Linux)",
                     "Linux/KVM hypervisor",
                     f"{len(olt.worker_vms) if olt else 0} worker VMs "
                     "(hard isolation)",
                     "container runtime (soft isolation)",
                     "kubelet (Kubernetes worker)"]
        return {
            "ONU": ["PON optics", "onboard firmware",
                    "far-edge compute profile"],
            "OLT": olt_stack,
            "SDN plane": [f"ONOS {self.sdn.version}",
                          f"VOLTHA {VOLTHA_VERSION}",
                          "OpenFlow/PON adapters"],
            "cloud": [self.cloud_node.distro.version,
                      f"Kubernetes {self.cloud_cluster.api.config.version} "
                      "(orchestration center)",
                      f"Proxmox {self.proxmox.config.version}",
                      f"registry {REGISTRY_NAME}"],
        }


def build_genio_deployment(
    n_olts: int = 2,
    onus_per_olt: int = 4,
) -> GenioDeployment:
    """Stand up the full platform with every component's insecure defaults.

    :raises ValueError: ``n_olts`` is below one (no edge layer).
    """
    if n_olts < 1:
        raise ValueError("need at least one OLT")
    clock = SimClock()
    bus = EventBus()
    # One time authority for the whole deployment: operational cadences
    # (patching, key rotation, monitor sampling, traffic cycles) register
    # tasks here instead of advancing the shared clock themselves.
    scheduler = Scheduler(clock=clock)

    # -- cloud layer --------------------------------------------------------------
    cloud = cloud_host("cloud-ctl-1", clock=clock, bus=bus)
    cluster = KubeCluster(clock=clock, bus=bus,
                          rbac=permissive_default_rbac())
    for namespace in TENANT_NAMESPACES:
        cluster.add_namespace(Namespace(namespace))
        cluster.api.register_token(
            f"token-{namespace}", Subject("ServiceAccount", f"{namespace}:default"))
        cluster.api.register_token(
            f"token-{namespace}-deployer",
            Subject("ServiceAccount", f"{namespace}:deployer"))
    cluster.add_namespace(Namespace("kube-system"))
    for operator in OPERATORS:
        cluster.api.register_token(f"token-{operator}", Subject("User", operator))

    # -- middleware -----------------------------------------------------------------
    proxmox = ProxmoxCluster()
    proxmox.add_user(PveUser(PVE_ADMIN, token="t-alice"))
    proxmox.add_user(PveUser(PVE_AUDITOR, token="t-audit"))
    sdn = SdnController()
    voltha = VolthaCore()
    registry = ImageRegistry()
    tenants = TenantDirectory()
    for namespace in TENANT_NAMESPACES:
        tenants.register_business_user(BusinessUser(
            name=namespace, namespace=namespace))

    # -- edge layer --------------------------------------------------------------------
    olts: List[OltNode] = []
    for olt_index in range(1, n_olts + 1):
        host = stock_onl_olt_host(f"olt-node-{olt_index}", clock=clock, bus=bus)
        hypervisor = Hypervisor(host.hostname, cpu_cores=16, memory_mb=65536,
                                clock=clock, bus=bus)
        # qemu-kvm 3.1 lies in CVE-2019-14378's range (2.0 to 4.1.1) until M8.
        hypervisor.mark_unpatched("CVE-2019-14378")
        proxmox.add_hypervisor(host.hostname, hypervisor)
        proxmox.grant(f"/nodes/{host.hostname}", PVE_ADMIN, "PVEVMAdmin")

        pon = PonNetwork.build(f"olt-{olt_index}", clock=clock, bus=bus)
        node = OltNode(name=host.hostname, host=host,
                       hypervisor=hypervisor, pon=pon)

        for vm_index in range(VMS_PER_OLT):
            tenant = TENANT_NAMESPACES[vm_index % len(TENANT_NAMESPACES)]
            vm = proxmox.create_vm(PVE_ADMIN, host.hostname, VmSpec(
                name=f"worker-{olt_index}-{vm_index}", vcpus=4,
                memory_mb=8192, tenant=tenant))
            node.worker_vms.append(vm)
            cluster.add_node(vm, labels={"olt": host.hostname,
                                         "tenant": tenant})
        olts.append(node)

        # -- far-edge layer --------------------------------------------------------
        for onu_index in range(1, onus_per_olt + 1):
            serial = f"GNIO{olt_index:02d}{onu_index:04d}"
            onu = Onu(serial)
            pon.attach_onu(onu)
            node.installed_onus[serial] = onu
            tenants.register_end_user(EndUser(
                name=f"user-{serial}", onu_serial=serial))

    return GenioDeployment(
        clock=clock, bus=bus, scheduler=scheduler,
        cloud_node=cloud, cloud_cluster=cluster,
        olts=olts, proxmox=proxmox, sdn=sdn, voltha=voltha,
        registry=registry, tenants=tenants)
