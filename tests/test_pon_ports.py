"""A two-port PON plant: an ONU's port is decided when it activates.

Sends, re-activation after tampering and on-path injection all find the
port from the serial, so an ONU behind port 1's splitter is reached on
port 1's span and nowhere else. The OLT's activation table is the one
record of which device holds each serial: a rogue that takes a serial
displaces the device there, and a device taken off the PON is reached
by no send until it activates again.
"""

import pytest

from repro.common import telemetry
from repro.common.errors import NotFoundError
from repro.pon.attacks import (
    DownstreamHijackAttack, FirmwareTamperAttack, OnuImpersonationAttack,
)
from repro.pon.fiber import FiberTap
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.security.comms.channels import SecureChannelManager
from repro.security.comms.keyrotation import KeyRotationService


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test counts frames in a registry of its own."""
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()


def _two_ports(encrypted: bool = False) -> PonNetwork:
    net = PonNetwork.build("olt-x", n_ports=2)
    if encrypted:
        net.olt.enable_encryption()
    net.attach_onu(Onu("ONU-A"), 0)
    net.attach_onu(Onu("ONU-B"), 1)
    return net


def _splitters(net: PonNetwork):
    return {index: sorted(port.onus) for index, port in net.olt.ports.items()}


class TestRoutingBySerial:
    def test_send_reaches_the_onu_on_port_1_over_port_1_only(self):
        net = _two_ports()
        net.send_downstream("ONU-B", b"for B")
        assert [f.payload for f in net.delivered_to("ONU-B")] == [b"for B"]
        assert net.span(1).frames_carried == 1
        assert net.span(0).frames_carried == 0
        assert net.olt.port_of("ONU-B").index == 1

    def test_send_to_a_serial_that_never_activated_is_refused_by_name(self):
        net = _two_ports()
        net.provision_only("ONU-IDLE")
        with pytest.raises(NotFoundError, match="ONU-IDLE"):
            net.send_downstream("ONU-IDLE", b"x")
        assert net.span(0).frames_carried == net.span(1).frames_carried == 0
        assert telemetry.default_registry().total("pon_frames_total") == 0

    def test_reactivation_on_another_port_leaves_the_first_splitter(self):
        net = _two_ports()
        onu = net.onus["ONU-A"]
        net.olt.activate_onu(1, onu)
        assert _splitters(net) == {0: [], 1: ["ONU-A", "ONU-B"]}
        net.send_downstream("ONU-A", b"moved")
        assert net.span(1).frames_carried == 1
        assert net.delivered_to("ONU-A")[-1].payload == b"moved"


class TestAttacksFindTheVictimsPort:
    def test_hijack_reaches_the_victim_on_port_1(self):
        assert DownstreamHijackAttack(_two_ports(), "ONU-B").run().succeeded

    def test_hijack_on_port_1_rejected_when_encrypted(self):
        net = _two_ports(encrypted=True)
        result = DownstreamHijackAttack(net, "ONU-B").run()
        assert not result.succeeded
        assert net.onus["ONU-B"].rejected == 1

    def test_tampered_onu_reactivates_on_its_own_port_only(self):
        net = _two_ports()
        assert FirmwareTamperAttack(net, "ONU-B").run().succeeded
        assert _splitters(net) == {0: ["ONU-A"], 1: ["ONU-B"]}

    def test_tamper_hands_the_victims_port_to_the_activation_flow(self):
        net = _two_ports()
        calls = []
        FirmwareTamperAttack(net, "ONU-B").run(
            activate=lambda network, onu, port_index: calls.append(
                (onu.serial, port_index)))
        assert calls == [("ONU-B", 1)]


class TestSecureActivationPlaces:
    def test_certificate_activation_on_port_1_receives_encrypted_frames(self):
        manager = SecureChannelManager()
        net = PonNetwork.build("olt-sec", n_ports=2)
        manager.secure_pon(net)
        for serial, port_index, seed in (("ONU-A", 0, 11), ("ONU-B", 1, 12)):
            onu = Onu(serial)
            manager.enroll_onu(onu, seed=seed)
            manager.activate_onu_securely(net, onu, port_index)
        tap = FiberTap(name="port-1-tap")
        net.span(1).attach_tap(tap)
        net.send_downstream("ONU-B", b"meter reading")
        assert net.delivered_to("ONU-B")[-1].payload == b"meter reading"
        assert [gem.encrypted for gem in tap.captured] == [True]
        assert _splitters(net) == {0: ["ONU-A"], 1: ["ONU-B"]}
        assert net.onus["ONU-B"] is net.olt.ports[1].onus["ONU-B"]


def _one_port(encrypted: bool = False) -> PonNetwork:
    net = PonNetwork.build("olt-y")
    if encrypted:
        net.olt.enable_encryption()
    net.attach_onu(Onu("ONU-A"))
    net.attach_onu(Onu("ONU-B"))
    return net


# (plant, victim serial, port the rogue's hardware sits on): the rogue
# joins the victim's own splitter on one port, another splitter on two.
IMPERSONATIONS = [
    pytest.param(_one_port, "ONU-B", 0, id="one-port"),
    pytest.param(_two_ports, "ONU-B", 0, id="two-ports"),
]


class TestImpersonationDisplacesTheVictim:
    @pytest.mark.parametrize("plant, serial, rogue_port", IMPERSONATIONS)
    def test_the_rogue_is_the_device_under_the_serial(
            self, plant, serial, rogue_port):
        net = plant()
        victim = net.onus[serial]
        attack = OnuImpersonationAttack(net, serial)
        assert attack.run(rogue_port).succeeded
        assert net.onus[serial] is attack.rogue
        assert attack.rogue.activated
        assert not victim.activated
        assert all(victim not in port.onus.values()
                   for port in net.olt.ports.values())
        assert net.olt.port_of(serial).onus[serial] is attack.rogue

    @pytest.mark.parametrize("plant, serial, rogue_port", IMPERSONATIONS)
    def test_delivered_to_reads_the_rogues_ring(
            self, plant, serial, rogue_port):
        net = plant()
        victim = net.onus[serial]
        attack = OnuImpersonationAttack(net, serial)
        attack.run(rogue_port)
        net.send_downstream(serial, b"for the subscriber")
        assert [f.payload for f in net.delivered_to(serial)] == \
            [b"for the subscriber"]
        assert list(attack.rogue.received) == net.delivered_to(serial)
        assert len(victim.received) == 0

    @pytest.mark.parametrize("plant, serial, rogue_port", IMPERSONATIONS)
    def test_key_rotation_keys_the_rogue(self, plant, serial, rogue_port):
        net = plant(encrypted=True)
        victim = net.onus[serial]
        attack = OnuImpersonationAttack(net, serial)
        attack.run(rogue_port)
        record = KeyRotationService(net).rotate_now()
        gem_port = net.olt.provisioned_serials[serial]
        assert record.new_indexes[gem_port] == 1
        net.send_downstream(serial, b"after rotation")
        assert attack.rogue.received[-1].payload == b"after rotation"
        assert attack.rogue.rejected == 0
        assert len(victim.received) == 0


def _secured_two_ports():
    manager = SecureChannelManager()
    net = PonNetwork.build("olt-sec", n_ports=2)
    manager.secure_pon(net)
    for serial, port_index, seed in (("ONU-A", 0, 11), ("ONU-B", 1, 12)):
        onu = Onu(serial)
        manager.enroll_onu(onu, seed=seed)
        manager.activate_onu_securely(net, onu, port_index)
    return manager, net


class TestRefusedReactivation:
    @pytest.fixture
    def tampered(self):
        manager, net = _secured_two_ports()
        victim = net.onus["ONU-B"]
        gem_port = net.olt.provisioned_serials["ONU-B"]
        result = FirmwareTamperAttack(net, "ONU-B").run(
            activate=manager.activate_onu_securely)
        assert not result.succeeded
        return manager, net, victim, gem_port

    def test_the_serial_is_behind_no_splitter(self, tampered):
        _, net, victim, _ = tampered
        assert _splitters(net) == {0: ["ONU-A"], 1: []}
        assert "ONU-B" not in net.onus
        assert not victim.activated

    def test_neither_direction_reaches_the_tampered_device(self, tampered):
        _, net, victim, _ = tampered
        with pytest.raises(NotFoundError, match="ONU-B"):
            net.send_downstream("ONU-B", b"x")
        with pytest.raises(ValueError, match="ONU-B is not activated"):
            net.send_upstream("ONU-B", b"x")
        assert telemetry.default_registry().total("pon_frames_total") == 0
        assert net.span(0).frames_carried == net.span(1).frames_carried == 0
        assert len(victim.received) == 0
        assert net.delivered_to("ONU-B") == []

    def test_key_rotation_skips_the_serial(self, tampered):
        _, net, _, gem_port = tampered
        record = KeyRotationService(net).rotate_now()
        assert record.gem_ports == [net.olt.provisioned_serials["ONU-A"]]
        assert gem_port not in record.new_indexes

    def test_reenrolled_device_returns_to_its_own_port_and_gem_port(
            self, tampered):
        manager, net, victim, gem_port = tampered
        manager.enroll_onu(victim, seed=13)      # operator re-measures
        assert manager.activate_onu_securely(net, victim, 1) == gem_port
        assert victim.activated
        assert net.onus["ONU-B"] is victim
        assert _splitters(net) == {0: ["ONU-A"], 1: ["ONU-B"]}
        net.send_downstream("ONU-B", b"welcome back")
        assert net.delivered_to("ONU-B")[-1].payload == b"welcome back"


class TestDeactivation:
    def test_deactivation_takes_the_device_off_and_keeps_its_gem_port(self):
        net = _two_ports()
        onu = net.onus["ONU-B"]
        gem_port = net.olt.provisioned_serials["ONU-B"]
        assert net.olt.deactivate_onu("ONU-B") is onu
        assert not onu.activated
        assert list(net.onus) == ["ONU-A"]
        assert _splitters(net) == {0: ["ONU-A"], 1: []}
        assert net.olt.activate_onu(1, onu) == gem_port
        assert list(net.onus) == ["ONU-A", "ONU-B"]

    def test_deactivating_a_serial_that_never_activated_changes_nothing(
            self):
        net = _two_ports()
        net.provision_only("ONU-IDLE")
        provisioned = dict(net.olt.provisioned_serials)
        with pytest.raises(NotFoundError, match="ONU-IDLE"):
            net.olt.deactivate_onu("ONU-IDLE")
        assert dict(net.onus) == {"ONU-A": net.olt.ports[0].onus["ONU-A"],
                                  "ONU-B": net.olt.ports[1].onus["ONU-B"]}
        assert _splitters(net) == {0: ["ONU-A"], 1: ["ONU-B"]}
        assert net.olt.provisioned_serials == provisioned
        assert all(onu.activated for onu in net.onus.values())

    def test_the_registry_is_read_only_and_live(self):
        net = _two_ports()
        onus = net.onus
        with pytest.raises(TypeError):
            onus["ONU-C"] = Onu("ONU-C")
        net.attach_onu(Onu("ONU-C"), 0)
        assert list(onus) == ["ONU-A", "ONU-B", "ONU-C"]
        assert "ONU-C" in onus and len(onus) == 3
