"""Unit tests for M3/M4: PKI, handshake, secured channels, DNSSEC."""

import pytest

from repro.common import crypto
from repro.common.errors import AuthenticationError, IntegrityError
from repro.pon.attacks import (
    DownstreamHijackAttack, FiberTapAttack, OnuImpersonationAttack, ReplayAttack,
)
from repro.pon.frames import Frame
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.security.comms import (
    CertificateAuthority, SecureChannelManager, SignedZone, mutual_handshake,
)
from repro.security.comms.dnssec import validate_record
from repro.security.comms.handshake import Endpoint, handshake_with_impostor


@pytest.fixture
def ca():
    return CertificateAuthority()


@pytest.fixture
def endpoints(ca):
    def make(name, seed):
        keypair, cert = ca.enroll_device(name, seed=seed)
        return Endpoint(name=name, keypair=keypair, certificate=cert)
    return make("olt-1", 101), make("cloud-ctl", 102)


class TestPki:
    def test_issue_and_validate(self, ca):
        keypair, cert = ca.enroll_device("ONU-A", now=100.0)
        ca.validate(cert, now=200.0)

    def test_expired_certificate_rejected(self, ca):
        _, cert = ca.enroll_device("ONU-A", now=0.0)
        with pytest.raises(AuthenticationError):
            ca.validate(cert, now=cert.not_after + 1)

    def test_revoked_certificate_rejected(self, ca):
        _, cert = ca.enroll_device("ONU-A")
        ca.revoke(cert.serial, "device stolen")
        with pytest.raises(AuthenticationError):
            ca.validate(cert)

    def test_foreign_issuer_rejected(self, ca):
        other = CertificateAuthority("Rogue-CA",
                                     keypair=crypto.RsaKeyPair.generate(512, seed=9))
        _, cert = other.enroll_device("ONU-A")
        with pytest.raises(AuthenticationError):
            ca.validate(cert)

    def test_forged_signature_rejected(self, ca):
        from repro.security.comms.pki import Certificate
        _, cert = ca.enroll_device("ONU-A")
        forged = Certificate(
            subject="ONU-EVIL", public_key=cert.public_key, issuer=cert.issuer,
            serial=cert.serial, not_before=cert.not_before,
            not_after=cert.not_after, signature=cert.signature)
        with pytest.raises(AuthenticationError):
            ca.validate(forged)

    def test_onu_verifier_checks_possession(self, ca):
        keypair, cert = ca.enroll_device("ONU-A")
        verify = ca.make_onu_verifier()
        challenge = b"nonce-123"
        assert verify(cert, challenge, keypair.sign(challenge)) == "ONU-A"
        thief = crypto.RsaKeyPair.generate(512, seed=77)
        with pytest.raises(AuthenticationError):
            verify(cert, challenge, thief.sign(challenge))

    def test_verifier_rejects_non_certificate(self, ca):
        with pytest.raises(AuthenticationError):
            ca.make_onu_verifier()("not a cert", b"c", b"s")


class TestHandshake:
    def test_mutual_handshake_agrees_secret(self, ca, endpoints):
        client, server = endpoints
        result = mutual_handshake(client, server, ca)
        assert len(result.shared_secret) == 32
        assert result.cost_units >= 6  # 2 sigs + 4 verifications minimum

    def test_impostor_without_victim_cert_fails(self, ca, endpoints):
        client, server = endpoints
        impostor_kp, impostor_cert = ca.enroll_device("attacker-box", seed=666)
        impostor = Endpoint("attacker-box", impostor_kp, impostor_cert)
        ok, reason = handshake_with_impostor("olt-1", impostor, server, ca)
        assert not ok
        assert "olt-1" not in reason or "attacker-box" in reason

    def test_revoked_party_cannot_handshake(self, ca, endpoints):
        client, server = endpoints
        ca.revoke(client.certificate.serial)
        with pytest.raises(AuthenticationError):
            mutual_handshake(client, server, ca)


class TestSecuredPon:
    """Integration: M3+M4 defeat the T1 attacks on a live PON."""

    @pytest.fixture
    def secured(self):
        manager = SecureChannelManager()
        network = PonNetwork.build("olt-sec")
        manager.secure_pon(network)
        onu = Onu("ONU-A")
        manager.enroll_onu(onu, seed=11)
        manager.activate_onu_securely(network, onu)
        return manager, network, onu

    def test_secure_activation_works(self, secured):
        _, network, onu = secured
        assert onu.activated
        network.send_downstream("ONU-A", b"hello secure world")
        assert network.delivered_to("ONU-A")[0].payload == b"hello secure world"

    def test_fiber_tap_defeated(self, secured):
        _, network, _ = secured
        attack = FiberTapAttack(network)
        network.send_downstream("ONU-A", b"secret meter data")
        result = attack.run()
        assert not result.succeeded

    def test_fiber_tap_succeeds_without_m3(self):
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        attack = FiberTapAttack(network)
        network.send_downstream("ONU-A", b"secret meter data")
        assert attack.run().succeeded

    def test_impersonation_defeated(self, secured):
        _, network, _ = secured
        result = OnuImpersonationAttack(network, "ONU-A").run()
        assert not result.succeeded

    def test_impersonation_succeeds_without_m4(self):
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        assert OnuImpersonationAttack(network, "ONU-A").run().succeeded

    def test_downstream_hijack_defeated(self, secured):
        _, network, _ = secured
        result = DownstreamHijackAttack(network, "ONU-A").run()
        assert not result.succeeded
        assert network.onus["ONU-A"].rejected >= 1

    def test_downstream_hijack_succeeds_without_m3(self):
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        assert DownstreamHijackAttack(network, "ONU-A").run().succeeded

    def test_unenrolled_onu_cannot_activate(self, secured):
        manager, network, _ = secured
        stranger = Onu("ONU-B")
        with pytest.raises(ValueError):
            manager.activate_onu_securely(network, stranger)


class TestSecuredEthernet:
    def test_secure_link_establishes_working_macsec(self):
        from repro.pon.macsec import MacsecChannel, derive_sak
        manager = SecureChannelManager()
        manager.enroll("olt-1", seed=1)
        manager.enroll("cloud-ctl", seed=2)
        secured = manager.secure_link("uplink-1", "olt-1", "cloud-ctl")
        assert secured.handshake.cost_units > 0

        # The peer derives the same SAK from the handshake secret and can
        # validate what the sender protects.
        sender = secured.macsec.a_to_b
        peer = MacsecChannel(derive_sak(secured.handshake.shared_secret,
                                        "uplink-1"))
        frame = sender.protect(Frame("olt-1", "cloud-ctl",
                                     payload=b"telemetry"))
        assert peer.validate(frame).payload == b"telemetry"

    def test_link_names_produce_distinct_saks(self):
        manager = SecureChannelManager()
        manager.enroll("olt-1", seed=1)
        manager.enroll("olt-2", seed=2)
        manager.enroll("cloud-ctl", seed=3)
        first = manager.secure_link("uplink-1", "olt-1", "cloud-ctl")
        second = manager.secure_link("interolt-1", "olt-1", "olt-2")
        frame = first.macsec.a_to_b.protect(Frame("olt-1", "cloud-ctl",
                                                  payload=b"x"))
        from repro.common.errors import IntegrityError as IE
        with pytest.raises(IE):
            second.macsec.a_to_b.validate(frame)

    def test_each_link_draws_its_own_nonces_and_secret(self, monkeypatch):
        drawn = []
        random_key = crypto.random_key

        def recording(*args, **kwargs):
            key = random_key(*args, **kwargs)
            drawn.append(key)
            return key
        monkeypatch.setattr(crypto, "random_key", recording)
        manager = SecureChannelManager()
        for name, seed in (("olt-1", 1), ("olt-2", 2), ("cloud-ctl", 3)):
            manager.enroll(name, seed=seed)
        manager.secure_link("uplink-1", "olt-1", "cloud-ctl")
        manager.secure_link("uplink-2", "olt-2", "cloud-ctl")
        # Client nonce, server nonce and pre-master secret per handshake.
        assert len(drawn) == 6
        first, second = drawn[:3], drawn[3:]
        assert all(a != b for a, b in zip(first, second))

    def test_replay_attack_via_attack_module(self):
        from repro.common.clock import SimClock
        from repro.pon.fiber import EthernetLink
        from repro.pon.macsec import MacsecChannel, derive_sak

        manager = SecureChannelManager()
        manager.enroll("olt-1", seed=1)
        manager.enroll("cloud-ctl", seed=2)
        secured = manager.secure_link("uplink-1", "olt-1", "cloud-ctl")
        link = EthernetLink("uplink-1", SimClock())
        attack = ReplayAttack(link)

        sender = secured.macsec.a_to_b
        receiver = secured.macsec.b_to_a  # unused; construct true receiver below
        sak = derive_sak(secured.handshake.shared_secret, "uplink-1")
        true_receiver = MacsecChannel(sak)

        protected = sender.protect(Frame("olt-1", "cloud-ctl", payload=b"cmd"))
        link.transmit(protected, protected.size)
        true_receiver.validate(protected)          # legitimate delivery
        result = attack.run(receiver=true_receiver)
        assert not result.succeeded                 # replay rejected

    def test_replay_succeeds_on_plaintext_link(self):
        from repro.common.clock import SimClock
        from repro.pon.fiber import EthernetLink
        link = EthernetLink("plain", SimClock())
        attack = ReplayAttack(link)
        frame = Frame("a", "b", payload=b"unprotected command")
        link.transmit(frame, frame.size)
        assert attack.run(receiver=None).succeeded


class TestDnssec:
    def test_signed_resolution(self):
        zone = SignedZone("genio.example")
        zone.add("onboarding.genio.example", "10.0.0.10")
        record = zone.lookup("onboarding.genio.example")
        assert validate_record(record, zone.public_key) == "10.0.0.10"

    def test_spoofed_record_detected(self):
        zone = SignedZone("genio.example")
        zone.add("onboarding.genio.example", "10.0.0.10")
        zone.spoof("onboarding.genio.example", "203.0.113.66")
        with pytest.raises(IntegrityError):
            validate_record(zone.lookup("onboarding.genio.example"),
                            zone.public_key)
