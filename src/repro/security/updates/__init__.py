"""M9: signed updates (Section IV-D of the paper).

Three update channels, each with its own signing scheme:

* **APT** — user-space packages with GPG-signed repository metadata; the
  enforcement point lives in :meth:`repro.osmodel.host.Host.apt_install`.
* **ONIE** — ONL kernel images signed with X.509 certificates plus a
  detached signature, validated against a locally trusted public key
  backed by the TPM, applied from a Secure-Boot-verified minimal
  environment (:mod:`repro.security.updates.onie`).
* **Custom binaries** — GENIO's own daemons and tools, signed with
  GENIO certificates and verified on each node before installation
  (:mod:`repro.security.updates.binaries`).
"""

from repro.security.updates.onie import (
    RELEASE_SIGNER, OnieImage, OnieInstaller, OnieUpdateResult,
    sign_onie_image,
)
from repro.security.updates.binaries import (
    BinaryDistributor, SignedBinary, verify_and_install,
)

__all__ = [
    "RELEASE_SIGNER",
    "OnieImage",
    "OnieInstaller",
    "OnieUpdateResult",
    "sign_onie_image",
    "BinaryDistributor",
    "SignedBinary",
    "verify_and_install",
]
