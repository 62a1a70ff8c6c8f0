"""Channel provisioning: wiring M3+M4 into the live plant.

``SecureChannelManager`` is the operational layer: it enrolls devices in
the PKI, switches OLT activation to certificate mode, turns on G.987.3
downstream encryption, and establishes MACsec on point-to-point Ethernet
segments with SAKs derived from authenticated handshakes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.pon.macsec import MacsecPair, derive_sak
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.security.comms.handshake import (
    HANDSHAKE_SEED, Endpoint, HandshakeResult, mutual_handshake,
)
from repro.security.comms.pki import CertificateAuthority


@dataclass
class SecuredLink:
    """A MACsec-protected Ethernet segment."""

    name: str
    macsec: MacsecPair
    handshake: HandshakeResult


class SecureChannelManager:
    """Applies M3+M4 across a GENIO deployment."""

    def __init__(self) -> None:
        self.ca = CertificateAuthority()
        # One stream for all of the manager's handshakes, so each link
        # draws its own nonces and pre-master secret.
        self._rng = random.Random(HANDSHAKE_SEED)
        self.endpoints: Dict[str, Endpoint] = {}
        self.secured_links: Dict[str, SecuredLink] = {}
        self.known_firmware: Dict[str, str] = {}   # serial -> golden hash

    # -- enrollment (M4) ---------------------------------------------------------

    def enroll(self, name: str, now: float = 0.0,
               seed: Optional[int] = None) -> Endpoint:
        """Enroll a node (ONU serial, OLT hostname, cloud endpoint)."""
        keypair, certificate = self.ca.enroll_device(name, now=now, seed=seed)
        endpoint = Endpoint(name=name, keypair=keypair, certificate=certificate)
        self.endpoints[name] = endpoint
        return endpoint

    def enroll_onu(self, onu: Onu, now: float = 0.0,
                   seed: Optional[int] = None) -> Endpoint:
        """Enroll an ONU: install its identity credential on-device and
        record its known-good firmware measurement for activation-time
        attestation."""
        endpoint = self.enroll(onu.serial, now=now, seed=seed)
        onu.provision_identity(endpoint.keypair, endpoint.certificate)
        self.known_firmware[onu.serial] = onu.firmware_hash()
        return endpoint

    # -- PON protection (M3 + M4 on the optical side) --------------------------------

    def secure_pon(self, network: PonNetwork) -> None:
        """Switch a PON to certificate-gated activation + encrypted GEM."""
        network.olt.set_certificate_verifier(
            self.ca.make_onu_verifier(now_fn=lambda: network.clock.now))
        network.olt.enable_encryption()

    def activate_onu_securely(self, network: PonNetwork, onu: Onu,
                              port_index: int = 0) -> int:
        """Run the certificate-mode activation flow for an enrolled ONU."""
        if onu.identity_keypair is None or onu.identity_certificate is None:
            raise ValueError(f"ONU {onu.serial} has no enrolled identity")
        challenge = network.olt.make_challenge()
        signature = onu.identity_keypair.sign(challenge)
        golden = self.known_firmware.get(onu.serial)
        if golden is not None:
            network.olt.expected_firmware[onu.serial] = golden
        return network.attach_onu(
            onu, port_index,
            certificate=onu.identity_certificate,
            challenge=challenge,
            challenge_signature=signature,
        )

    # -- Ethernet protection (M3 on the electrical side) -------------------------------

    def secure_link(self, link_name: str, a: str, b: str,
                    now: float = 0.0) -> SecuredLink:
        """Authenticate two enrolled nodes and stand up MACsec between them."""
        endpoint_a = self._endpoint(a)
        endpoint_b = self._endpoint(b)
        handshake = mutual_handshake(endpoint_a, endpoint_b, self.ca, now=now,
                                     rng=self._rng)
        sak = derive_sak(handshake.shared_secret, link_name)
        secured = SecuredLink(name=link_name, macsec=MacsecPair(sak),
                              handshake=handshake)
        self.secured_links[link_name] = secured
        return secured

    def _endpoint(self, name: str) -> Endpoint:
        endpoint = self.endpoints.get(name)
        if endpoint is None:
            raise ValueError(f"{name} is not enrolled; call enroll() first")
        return endpoint
