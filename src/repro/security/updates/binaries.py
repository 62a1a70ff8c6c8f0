"""Signed distribution of GENIO's own daemons and tools (M9).

Beyond kernels and APT packages, GENIO ships specialized daemons and
custom tools. Each is signed with GENIO's certificates and verified on
every target node before installation; unverifiable artifacts never touch
the filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import IntegrityError
from repro.osmodel.host import Host
from repro.security.comms.pki import Certificate, CertificateAuthority
from repro.security.updates.onie import RELEASE_SIGNER


@dataclass
class SignedBinary:
    """One distributable artifact."""

    name: str
    version: str
    payload: bytes
    install_path: str
    signature: bytes = b""
    signer_certificate: Optional[Certificate] = None


class BinaryDistributor:
    """GENIO release side: signs and publishes binaries."""

    def __init__(self, ca: CertificateAuthority) -> None:
        self.ca = ca
        self.keypair, self.certificate = ca.enroll_device(RELEASE_SIGNER,
                                                          seed=0xB15)
        self.published: Dict[str, SignedBinary] = {}

    def publish(self, name: str, version: str, payload: bytes,
                install_path: str) -> SignedBinary:
        binary = SignedBinary(
            name=name, version=version, payload=payload,
            install_path=install_path,
            signature=self.keypair.sign(payload),
            signer_certificate=self.certificate,
        )
        self.published[name] = binary
        return binary


def verify_and_install(host: Host, binary: SignedBinary,
                       ca: CertificateAuthority) -> None:
    """Node-side gate: verify the chain at the host's current time, then
    install.

    :raises IntegrityError: unsigned, tampered, or untrusted-signer binary.
    """
    certificate = binary.signer_certificate
    if certificate is None or not binary.signature:
        raise IntegrityError(f"{binary.name} is unsigned")
    try:
        ca.validate(certificate, now=host.clock.now)
    except Exception as exc:
        raise IntegrityError(f"{binary.name}: signer invalid: {exc}") from exc
    if not certificate.public_key.verify(binary.payload, binary.signature):
        raise IntegrityError(
            f"{binary.name}: signature does not match payload (tampered?)")
    host.fs.write(binary.install_path, binary.payload, mode=0o755,
                  actor="genio-updater")
