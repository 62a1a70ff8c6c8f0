"""Tests for latency-aware workload placement across the three layers."""

import pytest

from repro.common.errors import CapacityError
from repro.platform import build_genio_deployment
from repro.platform.placement import LayerPlacer, WorkloadRequirement
from repro.platform.workloads import ml_inference_image
from repro.pon.onu import ONU_CPU_CORES, ONU_MEMORY_MB


@pytest.fixture
def deployment():
    return build_genio_deployment(n_olts=1, onus_per_olt=2)


def req(name, latency, tenant="tenant-a", **kwargs):
    return WorkloadRequirement(name=name, image=ml_inference_image(),
                               tenant=tenant, max_latency_ms=latency, **kwargs)


class TestLayerPlacer:
    def test_latency_routes_to_the_right_layer(self, deployment):
        placer = LayerPlacer(deployment)
        assert placer.place(req("ultra", 2)).layer == "far-edge"
        assert placer.place(req("strict", 10)).layer == "edge"
        assert placer.place(req("batch", 1000)).layer == "cloud"

    def test_cloud_preferred_when_latency_allows(self, deployment):
        """Work that tolerates the cloud must not waste far-edge capacity."""
        placer = LayerPlacer(deployment)
        placement = placer.place(req("relaxed", 1000))
        assert placement.layer == "cloud"

    def test_edge_placement_starts_container(self, deployment):
        placer = LayerPlacer(deployment)
        placement = placer.place(req("svc", 10))
        vm = next(vm for vm in deployment.worker_vms()
                  if vm.runtime.node_name == placement.node)
        assert vm.runtime.containers[placement.container_id].running

    def test_pin_to_subscriber_onu(self, deployment):
        placer = LayerPlacer(deployment)
        serial = sorted(deployment.onus)[1]
        placement = placer.place(req("cam", 2, near_onu=serial))
        assert placement.node == serial

    def test_onu_capacity_exhaustion_falls_through(self, deployment):
        placer = LayerPlacer(deployment)
        serial = sorted(deployment.onus)[0]
        # Fill the ONU completely.
        placer.place(req("fill", 2, near_onu=serial,
                         cpu_cores=float(ONU_CPU_CORES),
                         memory_mb=ONU_MEMORY_MB))
        with pytest.raises(CapacityError):
            # Pinned to the full ONU and nowhere else at this latency.
            placer.place(req("overflow", 2, near_onu=serial))

    def test_unpinned_far_edge_spreads_across_onus(self, deployment):
        placer = LayerPlacer(deployment)
        serials = set()
        for i in range(2):
            placement = placer.place(req(f"w{i}", 2, cpu_cores=2.0,
                                         memory_mb=1024))
            serials.add(placement.node)
        assert len(serials) == 2   # each ONU fits exactly one

    def test_impossible_latency_rejected(self, deployment):
        placer = LayerPlacer(deployment)
        with pytest.raises(CapacityError):
            placer.place(req("impossible", 0.1))

    def test_by_layer_report(self, deployment):
        placer = LayerPlacer(deployment)
        placer.place(req("a", 2))
        placer.place(req("b", 1000))
        layers = placer.by_layer()
        assert len(layers["far-edge"]) == 1
        assert len(layers["cloud"]) == 1
        assert layers["edge"] == []

    def test_edge_respects_tenancy(self, deployment):
        """Edge VMs belong to tenants; another tenant's VM is not used."""
        placer = LayerPlacer(deployment)
        placement = placer.place(req("svc", 10, tenant="tenant-a"))
        vm = next(vm for vm in deployment.worker_vms()
                  if vm.runtime.node_name == placement.node)
        assert vm.tenant in ("tenant-a", "platform")
