"""Tests for ONU firmware attestation, the SDN provisioning service,
the security report generator, and the CLI."""

import pytest

from repro.common.errors import AuthenticationError, AuthorizationError, NotFoundError
from repro.pon.attacks import FirmwareTamperAttack
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.sdn.controller import ApiCapability, SdnController
from repro.sdn.integration import SdnProvisioningService
from repro.sdn.voltha import VolthaCore
from repro.security.access.leastprivilege import (
    harden_sdn_controller, harden_voltha,
)
from repro.security.comms import SecureChannelManager


class TestFirmwareAttestationAtActivation:
    @pytest.fixture
    def secured(self):
        manager = SecureChannelManager()
        network = PonNetwork.build()
        manager.secure_pon(network)
        onu = Onu("ONU-A", firmware=b"vendor-firmware-v2.1")
        manager.enroll_onu(onu)
        manager.activate_onu_securely(network, onu)
        return manager, network, onu

    def test_tampered_firmware_blocked_on_secured_pon(self, secured):
        manager, network, _ = secured
        attack = FirmwareTamperAttack(network, "ONU-A")
        result = attack.run(activate=manager.activate_onu_securely)
        assert not result.succeeded
        assert "firmware measurement mismatch" in result.detail

    def test_tampered_firmware_rejoins_legacy_pon(self):
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        result = FirmwareTamperAttack(network, "ONU-A").run()
        assert result.succeeded

    def test_untampered_reactivation_still_works(self, secured):
        manager, network, onu = secured
        onu.activated = False
        manager.activate_onu_securely(network, onu)
        assert onu.activated

    def test_legitimate_firmware_update_needs_reenrollment(self, secured):
        manager, network, onu = secured
        onu.flash_firmware(b"vendor-firmware-v2.2")   # legitimate update
        onu.activated = False
        with pytest.raises(AuthenticationError):
            manager.activate_onu_securely(network, onu)
        manager.enroll_onu(onu)                        # operator re-measures
        manager.activate_onu_securely(network, onu)
        assert onu.activated


class TestSdnProvisioningService:
    @pytest.fixture
    def hardened_service(self):
        controller = SdnController()
        harden_sdn_controller(controller)
        voltha = VolthaCore()
        harden_voltha(voltha)
        voltha.accounts["genio-mgmt"] = voltha.accounts.pop("genio-voltha-admin")
        voltha.accounts["genio-mgmt"].name = "genio-mgmt"
        voltha.accounts["genio-mgmt"].tls_certificate_fp = "fp-genio-mgmt"
        service = SdnProvisioningService(
            controller, voltha, account="genio-mgmt",
            credential={"tls_certificate_fp": "fp-genio-mgmt"})
        return controller, voltha, service

    def test_bring_up_and_provision_subscriber(self, hardened_service):
        controller, voltha, service = hardened_service
        network = PonNetwork.build("olt-edge-1")
        record = service.bring_up_olt(network)
        assert record.controller_registered
        assert record.voltha_state == "ENABLED"

        gem_port = service.provision_subscriber(network, "GNIO010001", vlan=100)
        assert network.olt.provisioned_serials["GNIO010001"] == gem_port
        assert controller.devices["olt-edge-1"].flows
        assert record.subscribers_provisioned == ["GNIO010001"]

    def test_subscriber_requires_enabled_olt(self, hardened_service):
        _, _, service = hardened_service
        network = PonNetwork.build("olt-unregistered")
        with pytest.raises(NotFoundError):
            service.provision_subscriber(network, "X", vlan=1)

    def test_wrong_credential_rejected_at_first_hop(self, hardened_service):
        controller, voltha, _ = hardened_service
        impostor = SdnProvisioningService(
            controller, voltha, account="genio-mgmt",
            credential={"tls_certificate_fp": "stolen"})
        with pytest.raises(AuthenticationError):
            impostor.bring_up_olt(PonNetwork.build("olt-x"))

    def test_default_setup_works_unauthenticated_which_is_the_problem(self):
        controller = SdnController()   # stock: onos/rocks
        voltha = VolthaCore()
        from repro.sdn.voltha import ServiceAccount
        voltha.add_account(ServiceAccount("onos", "", admin=True))
        service = SdnProvisioningService(controller, voltha, account="onos",
                                         credential={"password": "rocks"})
        record = service.bring_up_olt(PonNetwork.build("olt-y"))
        assert record.controller_registered   # insecure defaults in action


class TestSecurityReport:
    @pytest.fixture(scope="class")
    def posture(self):
        from repro.platform import build_genio_deployment
        from repro.security.pipeline import SecurityPipeline
        return SecurityPipeline(
            build_genio_deployment(n_olts=1, onus_per_olt=2)).apply()

    def test_secured_platform_reports_ready(self, posture):
        from repro.security.report import generate_report
        report = generate_report(posture)
        assert report.ready
        rendered = report.render()
        assert "READY" in rendered
        assert rendered.count("[OK ]") == len(report.sections)

    def test_unhardened_area_reports_gap(self, posture):
        from repro.security.report import generate_report
        # Simulate a regression: someone disables the kube-bench controls.
        config = posture.deployment.cloud_cluster.api.config
        original = config.anonymous_auth
        config.anonymous_auth = True
        try:
            report = generate_report(posture)
            assert not report.ready
            assert "[GAP]" in report.render()
        finally:
            config.anonymous_auth = original

    def test_a_partial_pipeline_is_scored_on_the_mitigations_that_ran(self):
        from repro.platform import build_genio_deployment
        from repro.security.pipeline import SecurityPipeline
        from repro.security.report import generate_report
        from repro.security.threatmodel.regulatory import (
            assess_cra_readiness,
        )
        from repro.security.threatmodel.risk import (
            assess_residual_risk, portfolio_risk,
        )
        posture = SecurityPipeline(
            build_genio_deployment(n_olts=1, onus_per_olt=2)).apply(
                skip=["M18"])
        ran = [f"M{i}" for i in range(1, 16)]
        assert sorted(posture.mitigations_applied) == sorted(ran)
        portfolio = portfolio_risk(assess_residual_risk(ran))
        cra = assess_cra_readiness(ran).counts()
        sections = {s.title: s for s in generate_report(posture).sections}
        assert sections["Residual risk posture"].lines[0] == (
            f"portfolio risk {portfolio['inherent_total']:.0f} -> "
            f"{portfolio['residual_total']:.1f} "
            f"({portfolio['overall_reduction']:.0%} reduction)")
        assert sections["Cyber Resilience Act alignment"].lines[0] == (
            f"{cra['satisfied']}/12 essential requirements satisfied, "
            f"{cra['partial']} partial, {cra['unsatisfied']} unsatisfied")
        assert cra["satisfied"] > 0

    def test_a_custom_steps_own_id_is_not_scored(self):
        from repro.platform import build_genio_deployment
        from repro.security.pipeline import PipelineStep, SecurityPipeline
        from repro.security.report import generate_report
        pipeline = SecurityPipeline(
            build_genio_deployment(n_olts=1, onus_per_olt=2))
        pipeline.register_step(PipelineStep("audit hook", ("X9",),
                                            lambda p, s: None))
        posture = pipeline.apply(only=["M1", "X9"])
        assert posture.mitigations_applied == ["M1", "M2", "X9"]
        sections = {s.title: s for s in generate_report(posture).sections}
        assert sections["Cyber Resilience Act alignment"].lines[0] == (
            "0/12 essential requirements satisfied, 3 partial, "
            "9 unsatisfied")


class TestCli:
    def test_inventory(self, capsys):
        from repro.__main__ import main
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "[far-edge]" in out and "[cloud]" in out

    def test_threats(self, capsys):
        from repro.__main__ import main
        assert main(["threats"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "M18" in out

    def test_attack(self, capsys):
        from repro.__main__ import main
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert out.count("blocked") == 4

    def test_secure_small(self, capsys):
        from repro.__main__ import main
        assert main(["secure", "--olts", "1"]) == 0
        assert "READY" in capsys.readouterr().out
