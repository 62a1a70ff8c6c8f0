"""Operator PKI: certificate issuance, validation, revocation (M4).

Certificate-based methods validate device identities before service
provisioning, preventing rogue devices from impersonating legitimate
infrastructure. Certificates bind a subject name (an ONU serial, an OLT
hostname, a cloud endpoint) to a public key, signed by the GENIO
operator CA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common import crypto
from repro.common.errors import AuthenticationError

# Every certificate the CA issues is valid for one year from issuance.
CERT_VALIDITY_S = 365 * 86400.0


@dataclass(frozen=True)
class Certificate:
    """An X.509-like certificate."""

    subject: str
    public_key: crypto.RsaPublicKey
    issuer: str
    serial: int
    not_before: float
    not_after: float
    signature: bytes

    def canonical_bytes(self) -> bytes:
        return (
            f"{self.subject}|{self.public_key.n}|{self.public_key.e}|"
            f"{self.issuer}|{self.serial}|{self.not_before}|{self.not_after}"
        ).encode()


class CertificateAuthority:
    """The GENIO operator CA."""

    def __init__(self, name: str = "GENIO-Operator-CA",
                 keypair: Optional[crypto.RsaKeyPair] = None) -> None:
        self.name = name
        self.keypair = keypair or crypto.RsaKeyPair.generate(bits=512, seed=0xCA)
        self._next_serial = 1
        self._revoked: Dict[int, str] = {}       # serial -> reason

    @property
    def public_key(self) -> crypto.RsaPublicKey:
        return self.keypair.public

    def issue(self, subject: str, public_key: crypto.RsaPublicKey,
              now: float = 0.0) -> Certificate:
        """Issue a certificate for ``subject``, valid from ``now``."""
        serial = self._next_serial
        self._next_serial += 1
        unsigned = Certificate(
            subject=subject, public_key=public_key, issuer=self.name,
            serial=serial, not_before=now, not_after=now + CERT_VALIDITY_S,
            signature=b"",
        )
        signed = Certificate(
            subject=unsigned.subject, public_key=unsigned.public_key,
            issuer=unsigned.issuer, serial=unsigned.serial,
            not_before=unsigned.not_before, not_after=unsigned.not_after,
            signature=self.keypair.sign(unsigned.canonical_bytes()),
        )
        return signed

    def enroll_device(self, subject: str, now: float = 0.0,
                      seed: Optional[int] = None) -> Tuple[crypto.RsaKeyPair, Certificate]:
        """Generate a device keypair and issue its certificate in one step."""
        keypair = crypto.RsaKeyPair.generate(bits=512, seed=seed)
        return keypair, self.issue(subject, keypair.public, now=now)

    def revoke(self, serial: int, reason: str = "compromised") -> None:
        self._revoked[serial] = reason

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    def validate(self, certificate: Certificate, now: float = 0.0) -> None:
        """Full validation: issuer, signature, validity window, revocation.

        :raises AuthenticationError: on any failure.
        """
        if certificate.issuer != self.name:
            raise AuthenticationError(
                f"certificate for {certificate.subject} issued by "
                f"{certificate.issuer!r}, not {self.name!r}"
            )
        unsigned = Certificate(
            subject=certificate.subject, public_key=certificate.public_key,
            issuer=certificate.issuer, serial=certificate.serial,
            not_before=certificate.not_before, not_after=certificate.not_after,
            signature=b"",
        )
        if not self.public_key.verify(unsigned.canonical_bytes(),
                                      certificate.signature):
            raise AuthenticationError(
                f"certificate signature for {certificate.subject} is invalid"
            )
        if not certificate.not_before <= now <= certificate.not_after:
            raise AuthenticationError(
                f"certificate for {certificate.subject} outside validity window"
            )
        if self.is_revoked(certificate.serial):
            raise AuthenticationError(
                f"certificate serial {certificate.serial} is revoked: "
                f"{self._revoked[certificate.serial]}"
            )

    def make_onu_verifier(self, now_fn=lambda: 0.0):
        """Build the verifier the OLT plugs in for certificate-mode activation.

        Returns a callable ``(certificate, challenge, signature) -> subject``
        that validates the certificate chain and the proof-of-possession
        signature over the activation challenge.
        """
        def verify(certificate: object, challenge: bytes,
                   signature: bytes) -> str:
            if not isinstance(certificate, Certificate):
                raise AuthenticationError("not a certificate")
            self.validate(certificate, now=now_fn())
            if not certificate.public_key.verify(challenge, signature):
                raise AuthenticationError(
                    f"{certificate.subject}: challenge signature invalid "
                    "(no proof of key possession)"
                )
            return certificate.subject

        return verify
