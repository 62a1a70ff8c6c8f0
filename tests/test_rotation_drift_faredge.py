"""Tests for GPON key rotation, compliance drift detection, and the
far-edge ONU runtime."""

import pytest

from repro.common.errors import IntegrityError, QuarantineError
from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.objects import Namespace, PodSpec
from repro.orchestrator.kube.rbac import permissive_default_rbac
from repro.platform import build_genio_deployment, malicious_miner_image, ml_inference_image
from repro.platform.placement import LayerPlacer, WorkloadRequirement
from repro.pon.attacks import FiberTapAttack
from repro.pon.gpon import GponDecryptor
from repro.pon.network import PonNetwork
from repro.pon.onu import ONU_CPU_CORES, ONU_MEMORY_MB, Onu
from repro.security.access.compliance import ComplianceSuite
from repro.security.access.drift import DriftDetector
from repro.security.access.leastprivilege import tighten_cluster
from repro.security.comms import SecureChannelManager
from repro.security.comms.keyrotation import KeyRotationService
from repro.security.malware import make_admission_hook
from repro.virt.container import ContainerSpec


class TestKeyRotation:
    @pytest.fixture
    def secured_pon(self):
        manager = SecureChannelManager()
        network = PonNetwork.build()
        manager.secure_pon(network)
        onu = Onu("ONU-A")
        manager.enroll_onu(onu)
        manager.activate_onu_securely(network, onu)
        return network, onu

    def test_rotation_keeps_subscriber_working(self, secured_pon):
        network, onu = secured_pon
        service = KeyRotationService(network)
        network.send_downstream("ONU-A", b"before")
        record = service.rotate_now()
        assert record.gem_ports
        network.send_downstream("ONU-A", b"after")
        payloads = [f.payload for f in network.delivered_to("ONU-A")]
        assert payloads == [b"before", b"after"]

    def test_rotation_limits_key_compromise_window(self, secured_pon):
        """A key stolen *after* rotation cannot decrypt traffic captured
        *before* it (and vice versa)."""
        network, onu = secured_pon
        service = KeyRotationService(network)
        tap = FiberTapAttack(network)
        gem_port = network.olt.provisioned_serials["ONU-A"]

        network.send_downstream("ONU-A", b"window-1 secret")
        before_frames = list(tap.tap.captured)
        service.rotate_now()
        stolen_key, stolen_index = network.olt.key_server.export_key(gem_port)

        thief = GponDecryptor()
        thief.install_key(gem_port, stolen_key, stolen_index)
        with pytest.raises(IntegrityError):
            thief.decrypt(before_frames[0])

    def test_scheduled_rotation_on_clock(self, secured_pon):
        network, _ = secured_pon
        service = KeyRotationService(network, period_s=3600.0)
        service.start(horizon_s=4 * 3600.0)
        network.clock.advance(4 * 3600.0)
        assert len(service.history) == 4
        indexes = [r.new_indexes for r in service.history]
        gem_port = network.olt.provisioned_serials["ONU-A"]
        assert [ix[gem_port] for ix in indexes] == [1, 2, 3, 4]

    def test_invalid_period(self, secured_pon):
        network, _ = secured_pon
        with pytest.raises(ValueError):
            KeyRotationService(network, period_s=0)

    def test_inactive_onus_skipped(self):
        network = PonNetwork.build()
        network.provision_only("GHOST")
        service = KeyRotationService(network)
        assert service.rotate_now().gem_ports == []


class TestDriftDetection:
    @pytest.fixture
    def suite(self):
        cluster = KubeCluster(rbac=permissive_default_rbac())
        cluster.add_namespace(Namespace("tenant-a"))
        tighten_cluster(cluster)
        return ComplianceSuite(cluster), cluster

    def test_clean_when_nothing_changes(self, suite):
        detector = DriftDetector(suite[0])
        assert detector.baseline() > 0
        report = detector.check()
        assert report.clean and not report.findings

    def test_regression_detected(self, suite):
        compliance_suite, cluster = suite
        detector = DriftDetector(compliance_suite)
        detector.baseline()
        cluster.api.config.audit_logging = False   # someone "simplified" it
        report = detector.check()
        assert not report.clean
        regressed = {f.check_id for f in report.regressions}
        assert "1.2.22" in regressed               # kube-bench audit check

    def test_improvement_not_flagged_as_regression(self, suite):
        compliance_suite, cluster = suite
        cluster.api.config.audit_logging = False
        detector = DriftDetector(compliance_suite)
        detector.baseline()
        cluster.api.config.audit_logging = True
        report = detector.check()
        assert report.clean
        assert any(f.change == "improved" for f in report.findings)

    def test_new_pod_checks_appear(self, suite):
        compliance_suite, cluster = suite
        detector = DriftDetector(compliance_suite)
        detector.baseline()
        from repro.virt.hypervisor import Hypervisor
        from repro.virt.vm import VmSpec
        hv = Hypervisor("olt-1", clock=cluster.clock, bus=cluster.bus)
        cluster.add_node(hv.create_vm(VmSpec("w", vcpus=4, memory_mb=8192)))
        cluster.api.config.admission_plugins.clear()  # simplify scheduling
        cluster.schedule(PodSpec(name="new", namespace="tenant-a",
                                 image=ml_inference_image()))
        report = detector.check()
        assert any(f.change == "appeared" for f in report.findings)

    def test_check_without_baseline(self, suite):
        with pytest.raises(ValueError):
            DriftDetector(suite[0]).check()


class TestFarEdgeRuntime:
    def test_far_edge_placement_runs_container(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=1)
        placer = LayerPlacer(deployment)
        placement = placer.place(WorkloadRequirement(
            "cam", ml_inference_image(), "tenant-a", max_latency_ms=2.0))
        assert placement.layer == "far-edge"
        onu = deployment.onus[placement.node]
        runtime = onu.compute_runtime()
        assert runtime.containers[placement.container_id].running

    def test_far_edge_runtime_capacity_matches_profile(self):
        onu = Onu("X")
        runtime = onu.compute_runtime()
        assert runtime.cpu_capacity == ONU_CPU_CORES
        assert runtime.memory_capacity_mb == ONU_MEMORY_MB

    def test_malware_gate_applies_at_far_edge_too(self):
        onu = Onu("X")
        runtime = onu.compute_runtime()
        runtime.add_admission_hook(make_admission_hook())
        with pytest.raises(QuarantineError):
            runtime.run(ContainerSpec(image=malicious_miner_image(),
                                      tenant="tenant-m"))

    def test_runtime_is_cached(self):
        onu = Onu("X")
        assert onu.compute_runtime() is onu.compute_runtime()
