"""Integration tests for the assembled platform and the full pipeline."""

import pytest

from repro.common.errors import (
    AuthenticationError, CapacityError, QuarantineError,
)
from repro.attacks import HypervisorEscapeAttack
from repro.orchestrator.kube.objects import PodSpec
from repro.orchestrator.kube.rbac import TENANT_NAMESPACES, Subject
from repro.platform import (
    BusinessUser, TenantDirectory, build_genio_deployment,
    malicious_miner_image, ml_inference_image,
)
from repro.platform.placement import LayerPlacer, WorkloadRequirement
from repro.platform.tenants import EndUser, ResourceLease
from repro.pon.attacks import OnuImpersonationAttack
from repro.security.pipeline import SecurityPipeline


@pytest.fixture(scope="module")
def secured():
    deployment = build_genio_deployment(n_olts=2, onus_per_olt=3)
    posture = SecurityPipeline(deployment).apply()
    return deployment, posture


class TestDeploymentAssembly:
    def test_three_layers_populated(self):
        deployment = build_genio_deployment(n_olts=2, onus_per_olt=4)
        inventory = deployment.deployment_inventory()
        assert len(inventory["far-edge"]["devices"]) == 8
        assert len(inventory["edge"]["devices"]) == 2
        assert len(inventory["cloud"]["devices"]) == 1
        latencies = [inventory[layer]["latency_ms"]
                     for layer in ("far-edge", "edge", "cloud")]
        assert latencies == sorted(latencies)   # closer = faster

    def test_architecture_stack_mentions_paper_components(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=1)
        stack = deployment.architecture_stack()
        flattened = " ".join(sum(stack.values(), []))
        for component in ("ONOS", "VOLTHA", "KVM", "Kubernetes", "Proxmox",
                          "Open Networking Linux"):
            assert component in flattened

    def test_onus_are_activated(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=3)
        assert all(onu.activated for onu in deployment.onus.values())

    def test_stock_hypervisor_escape_open_until_m8(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=1)
        olt = deployment.olts[0]
        vm = olt.worker_vms[0]
        assert HypervisorEscapeAttack(olt.hypervisor, vm.id).run().succeeded
        SecurityPipeline(deployment).apply(only=["M8"])
        assert not HypervisorEscapeAttack(olt.hypervisor, vm.id).run().succeeded

    def test_vms_are_cluster_nodes(self):
        deployment = build_genio_deployment(n_olts=2)
        assert len(deployment.cloud_cluster.nodes) == 4


def _olt_tables(deployment):
    return [(serial, onu) for node in deployment.olts
            for serial, onu in node.pon.olt.onus.items()]


class TestDeploymentOnusAreTheOltTables:
    SERIALS = ["GNIO010001", "GNIO010002", "GNIO010003",
               "GNIO020001", "GNIO020002", "GNIO020003"]

    def test_after_build(self):
        deployment = build_genio_deployment(n_olts=2, onus_per_olt=3)
        assert list(deployment.onus.items()) == _olt_tables(deployment)
        assert list(deployment.onus) == self.SERIALS

    def test_after_the_full_pipeline(self, secured):
        deployment, _ = secured
        assert list(deployment.onus.items()) == _olt_tables(deployment)
        assert list(deployment.onus) == self.SERIALS

    def test_after_an_impersonation_on_olt_1(self):
        deployment = build_genio_deployment(n_olts=2, onus_per_olt=3)
        pon = deployment.olts[0].pon
        attack = OnuImpersonationAttack(pon, "GNIO010002")
        assert attack.run().succeeded
        assert list(deployment.onus.items()) == _olt_tables(deployment)
        assert list(deployment.onus) == self.SERIALS
        assert deployment.onus["GNIO010002"] is attack.rogue


class TestTheInventoryIsTheInstalledHardware:
    """A rogue active under a serial is not the operator's device: M4
    enrolls, placement uses and Figure 1 lists the installed hardware."""

    @pytest.fixture
    def impersonated(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=2)
        pon = deployment.olts[0].pon
        installed = pon.onus["GNIO010001"]
        attack = OnuImpersonationAttack(pon, "GNIO010001")
        assert attack.run().succeeded
        return deployment, installed, attack.rogue

    def test_m4_enrolls_the_installed_device_and_displaces_the_rogue(
            self, impersonated):
        deployment, installed, rogue = impersonated
        SecurityPipeline(deployment).apply()
        olt = deployment.olts[0].pon.olt
        assert deployment.onus["GNIO010001"] is installed
        assert installed.activated
        assert installed.identity_certificate is not None
        assert olt.expected_firmware["GNIO010001"] == installed.firmware_hash()
        assert not rogue.activated
        assert rogue.identity_certificate is None
        assert rogue not in olt.ports[0].onus.values()
        again = OnuImpersonationAttack(deployment.olts[0].pon, "GNIO010001")
        assert not again.run().succeeded
        assert deployment.onus["GNIO010001"] is installed

    def test_inventory_and_placement_skip_the_rogue(self, impersonated):
        deployment, installed, rogue = impersonated
        assert deployment.installed_onus["GNIO010001"] is installed
        assert deployment.deployment_inventory()["far-edge"]["devices"] == \
            ["GNIO010001", "GNIO010002"]
        placement = LayerPlacer(deployment).place(WorkloadRequirement(
            "cam", ml_inference_image(), "tenant-a", max_latency_ms=2.0))
        assert placement.node == "GNIO010002"
        assert rogue.compute_runtime().containers == {}


class TestTenantDirectory:
    def test_registration_and_lease(self):
        directory = TenantDirectory()
        directory.register_business_user(BusinessUser("acme", "tenant-acme"))
        lease = directory.lease("acme", cpu_cores=4, memory_mb=8192,
                                storage_gb=100, isolation="hard")
        assert lease in directory.business_user("acme").leases

    def test_lease_capacity_check(self):
        directory = TenantDirectory()
        directory.register_business_user(BusinessUser("acme", "t"))
        with pytest.raises(CapacityError):
            directory.lease("acme", cpu_cores=64, memory_mb=1, storage_gb=1,
                            available_cpu=16)

    def test_invalid_lease(self):
        with pytest.raises(ValueError):
            ResourceLease("t", cpu_cores=0, memory_mb=1, storage_gb=1)
        with pytest.raises(ValueError):
            ResourceLease("t", cpu_cores=1, memory_mb=1, storage_gb=1,
                          isolation="medium")

    def test_duplicate_registration(self):
        directory = TenantDirectory()
        directory.register_end_user(EndUser("u", "SER1"))
        with pytest.raises(ValueError):
            directory.register_end_user(EndUser("u", "SER1"))


class TestSecurityPipeline:
    def test_all_steps_complete(self, secured):
        _, posture = secured
        assert len(posture.steps_completed) == 7

    def test_hosts_hardened(self, secured):
        deployment, posture = secured
        for host in deployment.all_hosts():
            summary = posture.hardening[host.hostname]
            assert summary.pass_rate_after["onl-scap"] == 1.0

    def test_pon_encrypted_and_certificate_gated(self, secured):
        deployment, _ = secured
        for olt_node in deployment.olts:
            assert olt_node.pon.olt.encryption_enabled
            assert olt_node.pon.olt.auth_mode == "certificate"
        assert all(onu.activated for onu in deployment.onus.values())

    def test_secure_boot_attests(self, secured):
        deployment, posture = secured
        for host in deployment.all_hosts():
            host.boot()
            assert posture.boot.attest_host(host).trusted

    def test_lesson3_storage_split(self, secured):
        deployment, posture = secured
        assert posture.storage["cloud-ctl-1"].unlock_mode == "auto"
        for olt_node in deployment.olts:
            assert posture.storage[olt_node.name].unlock_mode == \
                "manual-passphrase"

    def test_patching_reduced_findings(self, secured):
        deployment, posture = secured
        for olt_node in deployment.olts:
            assert posture.patches_applied[olt_node.name] > 0
            report = posture.host_scanner.scan(olt_node.host)
            assert len(report.critical_or_exploitable) <= 3

    def test_cluster_tightened(self, secured):
        deployment, _ = secured
        assert deployment.cloud_cluster.api.config.authorization_mode == "RBAC"
        assert not deployment.cloud_cluster.api.config.anonymous_auth

    def test_malicious_image_cannot_schedule(self, secured):
        deployment, _ = secured
        with pytest.raises(QuarantineError):
            deployment.cloud_cluster.schedule(PodSpec(
                name="miner", namespace="tenant-a",
                image=malicious_miner_image(), tenant="tenant-a"))

    def test_clean_image_schedules_and_runs_under_watch(self, secured):
        deployment, posture = secured
        pod = deployment.cloud_cluster.schedule(PodSpec(
            name="ml", namespace="tenant-a", image=ml_inference_image(),
            tenant="tenant-a"))
        runtime = deployment.cloud_cluster.nodes[pod.node].runtime
        record = runtime.syscall(pod.container_id, "execve", path="/bin/sh")
        assert not record.allowed     # M17 blocks
        assert posture.falco.alerts_by_rule().get("shell_in_container")  # M18 sees

    def test_compliance_after_pipeline(self, secured):
        _, posture = secured
        reports = posture.compliance.run()
        assert reports["kube-bench"].pass_rate == 1.0
        assert reports["kube-hunter"].pass_rate == 1.0


class TestTenantNamespaces:
    """The deployment, its tokens and M10 all name the same tenants."""

    def test_deployment_tokens_and_business_users_name_the_tenants(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=1)
        cluster = deployment.cloud_cluster
        assert set(TENANT_NAMESPACES) <= set(cluster.namespaces)
        accounts = [subject.name.split(":")
                    for subject in cluster.api._tokens.values()
                    if subject.kind == "ServiceAccount"]
        assert {ns for ns, account in accounts if account == "default"} \
            == set(TENANT_NAMESPACES)
        assert {ns for ns, account in accounts if account == "deployer"} \
            == set(TENANT_NAMESPACES)
        assert sorted(user.namespace for user
                      in deployment.tenants.business_users.values()) \
            == sorted(TENANT_NAMESPACES)

    def test_m10_gives_every_tenant_its_workload_and_deployer_roles(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=1)
        SecurityPipeline(deployment).apply(only=["M10"])
        rbac = deployment.cloud_cluster.api.rbac
        for namespace in TENANT_NAMESPACES:
            assert (namespace, "workload") in rbac.roles
            assert (namespace, "deployer") in rbac.roles
            workload = Subject("ServiceAccount", f"{namespace}:default")
            deployer = Subject("ServiceAccount", f"{namespace}:deployer")
            assert rbac.authorize(workload, "get", "configmaps", namespace)
            assert rbac.authorize(deployer, "create", "pods", namespace)
            for other in TENANT_NAMESPACES:
                if other != namespace:
                    assert not rbac.authorize(deployer, "create", "pods",
                                              other)


class TestCommsUseTheDeploymentClock:
    """M3/M4 enroll devices and secure links at the deployment's time."""

    def test_comms_after_a_year_of_operation(self):
        deployment = build_genio_deployment(n_olts=2, onus_per_olt=1)
        deployment.scheduler.run_for(400 * 86400.0)
        now = deployment.clock.now
        posture = SecurityPipeline(deployment).apply(only=["M3"])
        manager = posture.channels
        assert len(manager.secured_links) == 3
        for endpoint in manager.endpoints.values():
            assert endpoint.certificate.not_before == now
        for olt_node in deployment.olts:
            assert olt_node.pon.olt.auth_mode == "certificate"
        assert all(onu.activated for onu in deployment.onus.values())

    def test_certificates_issued_at_time_zero_expire_within_the_year(self):
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=1)
        posture = SecurityPipeline(deployment).apply(only=["M3"])
        ca = posture.channels.ca
        certificate = posture.channels.endpoints["cloud-ctl-1"].certificate
        assert certificate.not_before == 0.0
        with pytest.raises(AuthenticationError):
            ca.validate(certificate, now=400 * 86400.0)
