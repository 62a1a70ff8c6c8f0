"""Latency-aware workload placement across the three GENIO layers.

Figure 1's whole point: applications land on the layer that satisfies
their latency requirement at the lowest-capability (cheapest) tier that
fits — ultra-low-latency work on ONU far-edge compute, strict-latency
work on OLT edge VMs, everything else in the cloud. Placement also
respects tenancy isolation mode: ``hard`` leases require a dedicated VM,
``soft`` leases share runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import CapacityError
from repro.platform.genio import LAYER_LATENCY_MS, GenioDeployment
from repro.pon.onu import ONU_CPU_CORES, ONU_MEMORY_MB, Onu
from repro.virt.container import ContainerSpec, ResourceLimits
from repro.virt.image import ContainerImage


@dataclass
class WorkloadRequirement:
    """What one deployable workload needs."""

    name: str
    image: ContainerImage
    tenant: str
    max_latency_ms: float
    cpu_cores: float = 0.5
    memory_mb: int = 512
    near_onu: Optional[str] = None    # pin to one subscriber's premises


@dataclass
class Placement:
    """Where a workload ended up."""

    workload: str
    layer: str                 # far-edge | edge | cloud
    node: str                  # ONU serial / VM node name / cloud node
    latency_ms: float
    container_id: str = ""


@dataclass
class _OnuCapacity:
    """Tracks far-edge compute usage on one ONU."""

    onu: Onu
    cpu_used: float = 0.0
    memory_used_mb: int = 0
    workloads: List[str] = field(default_factory=list)

    def fits(self, cpu: float, memory_mb: int) -> bool:
        return (self.cpu_used + cpu <= ONU_CPU_CORES
                and self.memory_used_mb + memory_mb <= ONU_MEMORY_MB)

    def take(self, name: str, cpu: float, memory_mb: int) -> None:
        self.cpu_used += cpu
        self.memory_used_mb += memory_mb
        self.workloads.append(name)


class LayerPlacer:
    """Places workloads on the cheapest layer meeting their latency bound."""

    def __init__(self, deployment: GenioDeployment) -> None:
        self.deployment = deployment
        self._onu_capacity: Dict[str, _OnuCapacity] = {
            serial: _OnuCapacity(onu)
            for serial, onu in deployment.installed_onus.items()
        }
        self.placements: List[Placement] = []

    # -- layer candidates, cheapest-first for each latency bound ---------------

    def _eligible_layers(self, max_latency_ms: float) -> List[str]:
        return [layer for layer in ("cloud", "edge", "far-edge")
                if LAYER_LATENCY_MS[layer] <= max_latency_ms]

    def place(self, requirement: WorkloadRequirement) -> Placement:
        """Place one workload.

        Preference order: the *highest-latency eligible layer* — capacity
        at the far edge is scarce, so work that tolerates the cloud goes
        to the cloud, exactly the economics Figure 1 describes.

        :raises CapacityError: no eligible layer has room.
        """
        eligible = self._eligible_layers(requirement.max_latency_ms)
        if not eligible:
            raise CapacityError(
                f"{requirement.name}: no layer satisfies "
                f"{requirement.max_latency_ms} ms")
        for layer in eligible:   # cloud first (cheapest), then edge, far-edge
            placement = self._try_layer(layer, requirement)
            if placement is not None:
                self.placements.append(placement)
                return placement
        raise CapacityError(
            f"{requirement.name}: eligible layers {eligible} are full")

    def _try_layer(self, layer: str,
                   requirement: WorkloadRequirement) -> Optional[Placement]:
        if layer == "far-edge":
            return self._try_far_edge(requirement)
        if layer == "edge":
            return self._try_edge(requirement)
        return self._try_cloud(requirement)

    def _try_far_edge(self, req: WorkloadRequirement) -> Optional[Placement]:
        candidates = ([req.near_onu] if req.near_onu
                      else sorted(self._onu_capacity))
        for serial in candidates:
            capacity = self._onu_capacity.get(serial)
            if capacity is None or not capacity.onu.activated:
                continue
            if not capacity.fits(req.cpu_cores, req.memory_mb):
                continue
            # Actually start the workload on the ONU's far-edge runtime.
            runtime = capacity.onu.compute_runtime(
                clock=self.deployment.clock, bus=self.deployment.bus)
            try:
                container = runtime.run(ContainerSpec(
                    image=req.image, tenant=req.tenant,
                    limits=ResourceLimits(
                        cpu_shares=int(req.cpu_cores * 1024),
                        memory_mb=req.memory_mb)))
            except CapacityError:
                continue
            capacity.take(req.name, req.cpu_cores, req.memory_mb)
            return Placement(workload=req.name, layer="far-edge",
                             node=serial,
                             latency_ms=LAYER_LATENCY_MS["far-edge"],
                             container_id=container.id)
        return None

    def _try_edge(self, req: WorkloadRequirement) -> Optional[Placement]:
        for vm in self.deployment.worker_vms():
            if vm.tenant not in (req.tenant, "platform"):
                continue
            try:
                container = vm.runtime.run(ContainerSpec(
                    image=req.image, tenant=req.tenant,
                    limits=ResourceLimits(
                        cpu_shares=int(req.cpu_cores * 1024),
                        memory_mb=req.memory_mb)))
            except Exception:
                continue
            return Placement(workload=req.name, layer="edge",
                             node=vm.runtime.node_name,
                             latency_ms=LAYER_LATENCY_MS["edge"],
                             container_id=container.id)
        return None

    def _try_cloud(self, req: WorkloadRequirement) -> Optional[Placement]:
        # The cloud is modelled as effectively elastic.
        return Placement(workload=req.name, layer="cloud",
                         node=self.deployment.cloud_node.hostname,
                         latency_ms=LAYER_LATENCY_MS["cloud"])

    # -- reporting ---------------------------------------------------------------

    def by_layer(self) -> Dict[str, List[Placement]]:
        layers: Dict[str, List[Placement]] = {"far-edge": [], "edge": [],
                                              "cloud": []}
        for placement in self.placements:
            layers[placement.layer].append(placement)
        return layers
