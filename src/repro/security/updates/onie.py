"""ONIE-style signed ONL kernel updates (M9, NIST SP 800-193 aligned).

The flow mirrors the paper: images are signed with an X.509 certificate
and shipped with a *detached* signature file; the node validates the
signature against a locally trusted public key whose trust is anchored in
the TPM; ONIE then reboots into a minimal, Secure-Boot-verified
environment to apply the update, so a compromised running OS cannot
interfere with its own replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common import crypto
from repro.osmodel.boot import BootStage, sign_component
from repro.osmodel.host import Host
from repro.security.comms.pki import Certificate, CertificateAuthority

# The certificate subject of GENIO's release signer: the one signer ONIE
# trusts, and the subject the binary distributor signs as.
RELEASE_SIGNER = "genio-release-engineering"


@dataclass
class OnieImage:
    """An ONL installer image plus its detached signature."""

    name: str
    version: str
    payload: bytes
    detached_signature: bytes = b""
    signer_certificate: Optional[Certificate] = None

    def digest(self) -> bytes:
        return crypto.sha256(self.payload)


@dataclass
class OnieUpdateResult:
    """Outcome of one update attempt."""

    host: str
    image: str
    applied: bool
    stage_reached: str
    detail: str


def sign_onie_image(image: OnieImage, signer: crypto.RsaKeyPair,
                    certificate: Certificate) -> OnieImage:
    """Produce the detached signature over the image payload."""
    image.detached_signature = signer.sign(image.payload)
    image.signer_certificate = certificate
    return image


class OnieInstaller:
    """The node-side ONIE environment."""

    def __init__(self, ca: CertificateAuthority) -> None:
        self.ca = ca

    def _verify(self, image: OnieImage, host: Host) -> Optional[str]:
        """Return a rejection reason or None. Verification steps mirror
        NIST SP 800-193: authenticate the signer, at the host's current
        time, then the payload."""
        certificate = image.signer_certificate
        if certificate is None or not image.detached_signature:
            return "image is unsigned"
        try:
            self.ca.validate(certificate, now=host.clock.now)
        except Exception as exc:
            return f"signer certificate invalid: {exc}"
        if certificate.subject != RELEASE_SIGNER:
            return f"signer {certificate.subject!r} is not release engineering"
        if not certificate.public_key.verify(image.payload,
                                             image.detached_signature):
            return "detached signature does not match payload"
        if host.tpm is None:
            return "no TPM to anchor the trusted key"
        return None

    def apply_update(self, host: Host, image: OnieImage,
                     mok_signer: Optional[crypto.RsaKeyPair] = None
                     ) -> OnieUpdateResult:
        """Run the full staged update.

        Stages: verify -> reboot into minimal env (Secure Boot) -> install
        kernel -> reboot into updated chain. Fails closed at each stage.
        """
        reason = self._verify(image, host)
        if reason is not None:
            return OnieUpdateResult(host.hostname, image.name, False,
                                    "verification", reason)

        # Minimal environment boot: if Secure Boot is enabled, the current
        # chain must itself verify before ONIE will run from it.
        if host.firmware.secure_boot:
            outcome = host.boot()
            if not outcome.booted:
                return OnieUpdateResult(
                    host.hostname, image.name, False, "minimal-environment",
                    f"pre-update boot failed: {outcome.failure}")

        # Install: write the kernel image and (re)sign the boot component.
        host.fs.write(f"/boot/vmlinuz-{image.version}", image.payload,
                      mode=0o600, actor="onie")
        host.kernel.version = image.version
        if mok_signer is not None:
            host.boot_chain.install(
                sign_component(BootStage.KERNEL, image.payload, mok_signer))
        return OnieUpdateResult(host.hostname, image.name, True,
                                "installed", "update applied")
