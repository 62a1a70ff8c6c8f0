"""Unit tests for M9 signed updates and M10/M11 access control."""

import pytest

from repro.common import crypto
from repro.common.clock import SimClock
from repro.common.errors import (
    AuthenticationError, AuthorizationError, IntegrityError,
)
from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.objects import Namespace, PodSecurityContext, PodSpec
from repro.orchestrator.kube.rbac import Subject, permissive_default_rbac
from repro.orchestrator.proxmox import ProxmoxCluster, PveUser
from repro.osmodel.presets import cloud_host, stock_onl_olt_host
from repro.sdn.controller import ApiCapability, SdnController
from repro.sdn.voltha import VolthaCore
from repro.security.access import (
    ComplianceSuite, docker_bench, genio_least_privilege_rbac,
    harden_proxmox, harden_sdn_controller, harden_voltha,
    kube_bench, kube_hunter, kubescape, kubesec, tighten_cluster,
)
from repro.security.comms.pki import CertificateAuthority
from repro.security.integrity.secureboot import SecureBootProvisioner
from repro.security.updates import (
    RELEASE_SIGNER, BinaryDistributor, OnieImage, OnieInstaller,
    sign_onie_image, verify_and_install,
)
from repro.virt.hypervisor import Hypervisor
from repro.virt.image import ContainerImage
from repro.virt.runtime import ContainerRuntime
from repro.virt.vm import VmSpec


@pytest.fixture
def ca():
    return CertificateAuthority()


class TestOnieUpdates:
    @pytest.fixture
    def setup(self, ca):
        host = stock_onl_olt_host()
        provisioner = SecureBootProvisioner()
        provisioner.provision(host)
        provisioner.record_golden_state(host)
        signer_kp, signer_cert = ca.enroll_device("genio-release-engineering",
                                                  seed=0xE1)
        image = OnieImage("onl-update", "4.19.0-onl-p3",
                          payload=b"ONL-KERNEL-IMAGE-p3")
        sign_onie_image(image, signer_kp, signer_cert)
        installer = OnieInstaller(ca)
        return host, provisioner, installer, image, signer_kp

    def test_signed_update_applies(self, setup):
        host, provisioner, installer, image, _ = setup
        result = installer.apply_update(host, image,
                                        mok_signer=provisioner.operator_mok)
        assert result.applied
        assert host.kernel.version == "4.19.0-onl-p3"
        assert host.boot().booted   # new kernel is MOK-signed

    def test_tampered_payload_rejected(self, setup):
        host, _, installer, image, _ = setup
        image.payload += b"<TROJAN>"
        result = installer.apply_update(host, image)
        assert not result.applied
        assert result.stage_reached == "verification"

    def test_unsigned_image_rejected(self, setup):
        host, _, installer, _, _ = setup
        naked = OnieImage("onl-update", "9.9", payload=b"X")
        assert not installer.apply_update(host, naked).applied

    def test_untrusted_signer_rejected(self, setup, ca):
        host, _, installer, _, _ = setup
        rogue_kp, rogue_cert = ca.enroll_device("random-developer", seed=0xBAD)
        image = OnieImage("onl-update", "6.6.6", payload=b"EVIL")
        sign_onie_image(image, rogue_kp, rogue_cert)
        result = installer.apply_update(host, image)
        assert not result.applied
        assert "release engineering" in result.detail

    def test_revoked_signer_rejected(self, setup, ca):
        host, _, installer, image, _ = setup
        ca.revoke(image.signer_certificate.serial)
        assert not installer.apply_update(host, image).applied


class TestSignerValidityAtTheHostClock:
    """M9 checks the signer's certificate at the host's current time."""

    DAY = 86400.0

    def test_release_certificate_issued_today_is_accepted(self, ca):
        today = 400 * self.DAY
        host = stock_onl_olt_host(clock=SimClock(start=today))
        signer_kp, signer_cert = ca.enroll_device(RELEASE_SIGNER, now=today,
                                                  seed=0xE1)
        image = OnieImage("onl-update", "4.19.0-onl-p3",
                          payload=b"ONL-KERNEL-IMAGE-p3")
        sign_onie_image(image, signer_kp, signer_cert)
        result = OnieInstaller(ca).apply_update(host, image)
        assert result.applied, result.detail

    def test_expired_release_certificate_is_refused(self, ca):
        # The distributor's certificate is issued at t=0 and expires
        # after CERT_VALIDITY_S (365 days).
        binary = BinaryDistributor(ca).publish(
            "genio-telemetryd", "1.2", b"TELEMETRY-DAEMON",
            "/usr/sbin/genio-telemetryd")
        host = cloud_host(clock=SimClock(start=400 * self.DAY))
        with pytest.raises(IntegrityError, match="outside validity window"):
            verify_and_install(host, binary, ca)
        assert not host.fs.exists("/usr/sbin/genio-telemetryd")


class TestBinaryDistribution:
    def test_signed_binary_installs(self, ca):
        host = cloud_host()
        distributor = BinaryDistributor(ca)
        binary = distributor.publish("genio-telemetryd", "1.2",
                                     b"TELEMETRY-DAEMON",
                                     "/usr/sbin/genio-telemetryd")
        verify_and_install(host, binary, ca)
        assert host.fs.read("/usr/sbin/genio-telemetryd") == b"TELEMETRY-DAEMON"

    def test_tampered_binary_rejected(self, ca):
        host = cloud_host()
        distributor = BinaryDistributor(ca)
        binary = distributor.publish("d", "1", b"GOOD", "/usr/sbin/d")
        binary.payload = b"EVIL"
        with pytest.raises(IntegrityError):
            verify_and_install(host, binary, ca)
        assert not host.fs.exists("/usr/sbin/d")

    def test_unsigned_binary_rejected(self, ca):
        from repro.security.updates.binaries import SignedBinary
        host = cloud_host()
        binary = SignedBinary("x", "1", b"payload", "/usr/sbin/x")
        with pytest.raises(IntegrityError):
            verify_and_install(host, binary, ca)


class TestLeastPrivilege:
    def test_tenant_confined_after_m10(self):
        rbac = genio_least_privilege_rbac()
        sa = Subject("ServiceAccount", "tenant-a:default")
        assert rbac.authorize(sa, "get", "configmaps", "tenant-a")
        assert not rbac.authorize(sa, "get", "secrets", "tenant-a")
        assert not rbac.authorize(sa, "get", "configmaps", "tenant-b")
        assert not rbac.authorize(sa, "create", "pods", "tenant-a")

    def test_deployer_can_manage_own_namespace_only(self):
        rbac = genio_least_privilege_rbac()
        deployer = Subject("ServiceAccount", "tenant-a:deployer")
        assert rbac.authorize(deployer, "create", "deployments", "tenant-a")
        assert not rbac.authorize(deployer, "create", "deployments", "tenant-b")
        assert not rbac.authorize(deployer, "create", "rolebindings", "tenant-a")

    def test_operator_cannot_read_tenant_secrets(self):
        rbac = genio_least_privilege_rbac()
        operator = Subject("User", "ops-alice")
        assert rbac.authorize(operator, "delete", "pods", "kube-system")
        assert rbac.authorize(operator, "list", "pods", "tenant-a")
        assert not rbac.authorize(operator, "get", "secrets", "tenant-a")

    def test_tighten_cluster_flips_config(self):
        cluster = KubeCluster(rbac=permissive_default_rbac())
        tighten_cluster(cluster)
        config = cluster.api.config
        assert not config.anonymous_auth
        assert config.authorization_mode == "RBAC"
        assert config.audit_logging and config.etcd_encryption
        assert "PodSecurity" in config.admission_plugins

    def test_pod_security_admission_blocks_privileged_tenant_pod(self):
        cluster = KubeCluster()
        cluster.add_namespace(Namespace("tenant-a"))
        tighten_cluster(cluster)
        cluster.api.register_token("tok",
                                   Subject("ServiceAccount", "tenant-a:deployer"))
        image = ContainerImage(name="x")
        bad = PodSpec(name="p", namespace="tenant-a", image=image,
                      security=PodSecurityContext(privileged=True))
        with pytest.raises(AuthorizationError):
            cluster.api.request("tok", "create", "pods", "tenant-a", "p", obj=bad)
        good = PodSpec(name="p", namespace="tenant-a", image=image)
        cluster.api.request("tok", "create", "pods", "tenant-a", "p", obj=good)


class TestComplianceCheckers:
    @pytest.fixture
    def stock_cluster(self):
        cluster = KubeCluster(rbac=permissive_default_rbac())
        cluster.add_namespace(Namespace("tenant-a"))
        cluster.add_namespace(Namespace("tenant-b"))
        hv = Hypervisor("olt-1", clock=cluster.clock, bus=cluster.bus)
        vm = hv.create_vm(VmSpec("worker", vcpus=4, memory_mb=8192))
        cluster.add_node(vm)
        image = ContainerImage(name="app")
        cluster.schedule(PodSpec(name="p1", namespace="tenant-a", image=image,
                                 security=PodSecurityContext(privileged=True)))
        return cluster, vm

    def test_stock_cluster_fails_most_checks(self, stock_cluster):
        cluster, vm = stock_cluster
        assert kube_bench(cluster).pass_rate < 0.3
        assert kubesec(cluster).pass_rate < 0.5
        assert kube_hunter(cluster).pass_rate < 0.5
        assert kubescape(cluster).pass_rate < 0.5
        assert docker_bench(vm.runtime).pass_rate < 0.5

    def test_hardened_cluster_passes_kube_bench(self, stock_cluster):
        cluster, _ = stock_cluster
        tighten_cluster(cluster)
        assert kube_bench(cluster).pass_rate == 1.0
        assert kube_hunter(cluster).pass_rate == 1.0

    def test_kube_hunter_actively_probes(self, stock_cluster):
        cluster, _ = stock_cluster
        report = kube_hunter(cluster)
        failed = {c.check_id for c in report.failures()}
        assert "KHV002" in failed    # anonymous enumeration worked

    def test_tools_cover_different_subsets(self, stock_cluster):
        cluster, vm = stock_cluster
        suite = ComplianceSuite(cluster, runtimes=[vm.runtime])
        analysis = suite.coverage_analysis()
        assert analysis["union_count"] > analysis["max_single_tool"]
        per_tool = analysis["per_tool"]
        assert set(per_tool["kube-bench"]) != set(per_tool["kubescape"])

    def test_kubescape_flags_wildcard_rbac(self, stock_cluster):
        cluster, _ = stock_cluster
        report = kubescape(cluster)
        failures = {c.check_id for c in report.failures()}
        assert "C-0088" in failures


class TestSdnAndVolthaHardening:
    def test_harden_sdn_controller(self):
        controller = SdnController()
        harden_sdn_controller(controller)
        report = controller.exposure_report()
        assert report["default_credentials"] == []
        assert report["unnecessary_open"] == []
        with pytest.raises(AuthenticationError):
            controller.call("onos", ApiCapability.SHELL_ACCESS, password="rocks")
        result = controller.call("genio-mgmt", ApiCapability.DEVICE_REGISTRATION,
                                 tls_certificate_fp="fp-genio-mgmt",
                                 device_id="olt-1")
        assert result["status"] == "registered"

    def test_harden_voltha(self):
        voltha = VolthaCore()
        harden_voltha(voltha)
        voltha.preprovision("genio-voltha-admin", "olt-1", "openolt",
                            tls_certificate_fp="fp-genio-voltha")
        with pytest.raises(AuthenticationError):
            voltha.preprovision("genio-voltha-admin", "olt-2", "openolt",
                                tls_certificate_fp="stolen")

    def test_harden_proxmox(self):
        pve = ProxmoxCluster()
        pve.add_hypervisor("olt-1", Hypervisor("olt-1"))
        pve.add_user(PveUser("alice@pve", token="t"))
        pve.add_user(PveUser("auditor@pve", token="t2"))
        pve.grant("/", "alice@pve", "Administrator")   # the sloppy default
        harden_proxmox(pve)
        assert pve.config.web_ui_tls and pve.config.two_factor_required
        assert "Permissions.Modify" not in pve.privileges_on("alice@pve",
                                                             "/nodes/olt-1")
        assert pve.check("alice@pve", "/nodes/olt-1", "VM.Allocate")
        assert pve.check("auditor@pve", "/vms/vm-9", "VM.Audit")
        assert not pve.check("auditor@pve", "/vms/vm-9", "VM.PowerMgmt")
