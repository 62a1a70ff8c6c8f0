"""A two-port PON plant: an ONU's port is decided when it activates.

Sends, re-activation after tampering and on-path injection all find the
port from the serial, so an ONU behind port 1's splitter is reached on
port 1's span and nowhere else.
"""

import pytest

from repro.common.errors import NotFoundError
from repro.pon.attacks import DownstreamHijackAttack, FirmwareTamperAttack
from repro.pon.fiber import FiberTap
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.security.comms.channels import SecureChannelManager


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
        assert net.stats.frames_sent == 0
        assert net.span(0).frames_carried == net.span(1).frames_carried == 0

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
