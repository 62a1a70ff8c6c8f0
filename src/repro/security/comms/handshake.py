"""TLS-1.3-style mutual authentication and key agreement (M4).

Models the onboarding handshake between heterogeneous GENIO nodes (ONU to
OLT, OLT to cloud): both sides present operator-issued certificates,
prove key possession by signing the session transcript, and agree on a
shared secret via RSA key transport (standing in for the (EC)DHE
exchange). The result feeds :func:`repro.pon.macsec.derive_sak` and the
GPON key server.

The handshake also accounts its *cost* — signatures, verifications and
round trips — which the E6 experiment uses to quantify Lesson 2's
"additional engineering efforts and computational resources".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common import crypto
from repro.common.errors import AuthenticationError
from repro.security.comms.pki import Certificate, CertificateAuthority

# Seed of the nonce and pre-master stream a handshake draws when it is
# handed none.
HANDSHAKE_SEED = 0x7157


@dataclass
class Endpoint:
    """One handshake participant."""

    name: str
    keypair: crypto.RsaKeyPair
    certificate: Certificate


@dataclass
class HandshakeResult:
    """Agreed state after a successful mutual handshake."""

    client: str
    server: str
    shared_secret: bytes
    round_trips: int
    signatures_made: int
    verifications_made: int

    @property
    def cost_units(self) -> int:
        """Abstract compute cost (1 unit per asymmetric operation)."""
        return self.signatures_made + self.verifications_made


def mutual_handshake(client: Endpoint, server: Endpoint,
                     ca: CertificateAuthority, now: float = 0.0,
                     rng: Optional[random.Random] = None) -> HandshakeResult:
    """Run a mutual-authentication handshake.

    :raises AuthenticationError: either certificate fails validation, a
        transcript signature does not verify, or an identity mismatches.
    """
    rng = rng or random.Random(HANDSHAKE_SEED)
    signatures = 0
    verifications = 0

    # -- 1. hello + certificate exchange ------------------------------------
    client_nonce = crypto.random_key(rng, length=16)
    server_nonce = crypto.random_key(rng, length=16)
    transcript = (client.name.encode() + client_nonce +
                  server.name.encode() + server_nonce)

    ca.validate(client.certificate, now=now)
    ca.validate(server.certificate, now=now)
    verifications += 2
    if client.certificate.subject != client.name:
        raise AuthenticationError(
            f"client presented certificate for {client.certificate.subject!r}"
        )
    if server.certificate.subject != server.name:
        raise AuthenticationError(
            f"server presented certificate for {server.certificate.subject!r}"
        )

    # -- 2. key transport: client wraps a fresh secret to the server key ------
    pre_master = crypto.random_key(rng)
    wrapped, check = crypto.wrap_key(server.certificate.public_key, pre_master)
    recovered = crypto.unwrap_key(server.keypair, wrapped, check,
                                  key_len=len(pre_master))

    # -- 3. certificate-verify: both sides sign the transcript ----------------
    client_cv = client.keypair.sign(transcript + b"client")
    server_cv = server.keypair.sign(transcript + b"server")
    signatures += 2
    if not client.certificate.public_key.verify(transcript + b"client", client_cv):
        raise AuthenticationError("client transcript signature invalid")
    if not server.certificate.public_key.verify(transcript + b"server", server_cv):
        raise AuthenticationError("server transcript signature invalid")
    verifications += 2

    # -- 4. key schedule -------------------------------------------------------
    shared_secret = crypto.hmac_sha256(recovered, transcript)
    return HandshakeResult(
        client=client.name, server=server.name,
        shared_secret=shared_secret,
        round_trips=2,   # 1-RTT handshake + the activation exchange
        signatures_made=signatures,
        verifications_made=verifications,
    )


def handshake_with_impostor(victim_name: str, impostor: Endpoint,
                            server: Endpoint, ca: CertificateAuthority,
                            now: float = 0.0) -> Tuple[bool, str]:
    """Attempt a handshake claiming ``victim_name`` with an impostor's keys.

    Returns ``(succeeded, reason)`` — used by the T1 experiments to show
    the PKI defeats man-in-the-middle and impersonation during onboarding.
    """
    claimed = Endpoint(name=victim_name, keypair=impostor.keypair,
                       certificate=impostor.certificate)
    try:
        mutual_handshake(claimed, server, ca, now=now)
    except AuthenticationError as exc:
        return False, str(exc)
    return True, "handshake completed under a false identity"
