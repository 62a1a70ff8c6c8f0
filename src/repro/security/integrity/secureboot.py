"""Secure Boot + Measured Boot provisioning and attestation (M5).

Provisioning mirrors the paper's chain: Shim signed by a recognized CA,
operator (MOK) keys enrolled through Shim for GRUB and the
distribution-specific ONL kernel, and golden PCR values recorded so later
boots can be attested against the known-good state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common import crypto
from repro.osmodel.boot import (
    BootStage, PCR_BOOTLOADER, PCR_FIRMWARE, PCR_KERNEL, sign_component,
)
from repro.osmodel.host import Host

ATTESTED_PCRS = (PCR_FIRMWARE, PCR_BOOTLOADER, PCR_KERNEL)

# The signed images of the chain; the kernel image is named after the
# host's kernel version.
SHIM_IMAGE = b"shim-15.7"
GRUB_IMAGE = b"grub-2.06"


@dataclass
class AttestationResult:
    """Outcome of comparing a boot's PCRs to the golden values."""

    host: str
    trusted: bool
    mismatched_pcrs: List[int] = field(default_factory=list)
    detail: str = ""


class SecureBootProvisioner:
    """Provisions the M5 chain on hosts and attests their boots."""

    def __init__(self) -> None:
        # "Microsoft"-style CA that signs Shim, and GENIO's own MOK.
        self.vendor_ca = crypto.RsaKeyPair.generate(bits=512, seed=0x5B1)
        self.operator_mok = crypto.RsaKeyPair.generate(bits=512, seed=0x5B2)
        self.golden_pcrs: Dict[str, Dict[int, bytes]] = {}

    def provision(self, host: Host) -> None:
        """Install a fully signed chain and enable Secure Boot."""
        kernel_image = f"vmlinuz-{host.kernel.version}".encode()
        rom = host.firmware
        rom.enroll_ca(self.vendor_ca.public)
        rom.enroll_mok(self.operator_mok.public)
        rom.secure_boot = True
        chain = host.boot_chain
        chain.install(sign_component(BootStage.SHIM, SHIM_IMAGE, self.vendor_ca))
        chain.install(sign_component(BootStage.GRUB, GRUB_IMAGE, self.operator_mok))
        chain.install(sign_component(BootStage.KERNEL, kernel_image,
                                     self.operator_mok))

    def record_golden_state(self, host: Host) -> Dict[int, bytes]:
        """Boot once and capture the known-good PCR values."""
        outcome = host.boot()
        if not outcome.booted:
            raise ValueError(
                f"cannot record golden state: boot failed ({outcome.failure})"
            )
        if host.tpm is None:
            raise ValueError(f"{host.hostname} has no TPM")
        golden = {index: host.tpm.read_pcr(index) for index in ATTESTED_PCRS}
        self.golden_pcrs[host.hostname] = golden
        return golden

    def sign_kernel_update(self, image: bytes):
        """Sign a new kernel so a legitimate update still boots (and
        deliberately changes the golden PCRs, requiring re-measurement)."""
        return sign_component(BootStage.KERNEL, image, self.operator_mok)

    def attest_host(self, host: Host) -> AttestationResult:
        """Compare the host's current PCRs to its recorded golden state."""
        golden = self.golden_pcrs.get(host.hostname)
        if golden is None:
            return AttestationResult(host=host.hostname, trusted=False,
                                     detail="no golden state recorded")
        return attest(host, golden)


def attest(host: Host, golden: Dict[int, bytes]) -> AttestationResult:
    """Pure attestation check against explicit golden PCR values."""
    if host.tpm is None:
        return AttestationResult(host=host.hostname, trusted=False,
                                 detail="host has no TPM")
    mismatched = [index for index, expected in sorted(golden.items())
                  if host.tpm.read_pcr(index) != expected]
    trusted = not mismatched
    detail = ("platform state matches golden measurements" if trusted
              else f"PCR mismatch at {mismatched}")
    return AttestationResult(host=host.hostname, trusted=trusted,
                             mismatched_pcrs=mismatched, detail=detail)
