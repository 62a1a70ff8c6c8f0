"""Boot chain: firmware ROM -> Shim -> GRUB -> kernel, with Secure Boot
signature verification and Measured Boot PCR extension (M5).

The chain mirrors the paper's description: the Shim bootloader is signed
by a recognized CA (Microsoft in reality); Shim then carries the
operator's own keys (GENIO's MOK-like keys) used to validate GRUB and the
distribution kernel. Each stage is also *measured* into TPM PCRs before
execution, so even a boot that slips past verification leaves evidence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common import crypto
from repro.osmodel.tpm import Tpm

# Conventional PCR allocation (matches TCG usage closely enough).
PCR_FIRMWARE = 0
PCR_BOOTLOADER = 4
PCR_KERNEL = 8


class BootStage(enum.Enum):
    SHIM = "shim"
    GRUB = "grub"
    KERNEL = "kernel"

_STAGE_ORDER = [BootStage.SHIM, BootStage.GRUB, BootStage.KERNEL]
_STAGE_PCR = {BootStage.SHIM: PCR_BOOTLOADER, BootStage.GRUB: PCR_BOOTLOADER,
              BootStage.KERNEL: PCR_KERNEL}


@dataclass
class BootComponent:
    """One stage image plus its signature."""

    stage: BootStage
    image: bytes
    signature: bytes = b""
    signer_fingerprint: str = ""

    def measurement(self) -> bytes:
        return crypto.sha256(self.image)


@dataclass
class BootOutcome:
    """Result of one boot attempt."""

    booted: bool
    verified_stages: List[str] = field(default_factory=list)
    failure: Optional[str] = None


class FirmwareRom:
    """Platform firmware: owns the Secure Boot key databases.

    ``db`` holds CA keys trusted to sign Shim (the 'Microsoft' CA);
    ``mok`` holds the operator's machine-owner keys Shim uses for GRUB and
    kernels; ``dbx`` is the revocation list.
    """

    def __init__(self, secure_boot: bool = True) -> None:
        self.secure_boot = secure_boot
        self.db: List[crypto.RsaPublicKey] = []
        self.mok: List[crypto.RsaPublicKey] = []
        self.dbx: List[str] = []  # revoked image hashes (hex)
        self.firmware_image = b"genio-uefi-firmware-2.4"

    def enroll_ca(self, key: crypto.RsaPublicKey) -> None:
        self.db.append(key)

    def enroll_mok(self, key: crypto.RsaPublicKey) -> None:
        self.mok.append(key)

    def revoke_image(self, image: bytes) -> None:
        self.dbx.append(crypto.sha256_hex(image))

    def _verify(self, component: BootComponent,
                keyring: List[crypto.RsaPublicKey]) -> bool:
        if crypto.sha256_hex(component.image) in self.dbx:
            return False
        return any(key.verify(component.image, component.signature)
                   for key in keyring)

    def verify_component(self, component: BootComponent) -> bool:
        """Shim is checked against db; later stages against db + MOK."""
        if component.stage is BootStage.SHIM:
            return self._verify(component, self.db)
        return self._verify(component, self.db + self.mok)


class BootChain:
    """Executes (simulated) boots of a host's component stack."""

    def __init__(self, rom: FirmwareRom, tpm: Optional[Tpm] = None) -> None:
        self.rom = rom
        self.tpm = tpm
        self.components: Dict[BootStage, BootComponent] = {}

    def install(self, component: BootComponent) -> None:
        self.components[component.stage] = component

    def boot(self) -> BootOutcome:
        """Run one boot: reset + measure + (if enabled) verify each stage.

        Measurement happens for every stage *reached*, even when Secure
        Boot is disabled — Measured Boot and Secure Boot are independent,
        as in real platforms.
        """
        if self.tpm is not None:
            self.tpm.reset()
            self.tpm.extend(PCR_FIRMWARE, crypto.sha256(self.rom.firmware_image),
                            description="platform firmware")
        verified: List[str] = []
        for stage in _STAGE_ORDER:
            component = self.components.get(stage)
            if component is None:
                return BootOutcome(False, verified,
                                   f"missing {stage.value} image")
            if self.tpm is not None:
                self.tpm.extend(_STAGE_PCR[stage], component.measurement(),
                                description=stage.value)
            if self.rom.secure_boot and not self.rom.verify_component(component):
                return BootOutcome(
                    False, verified,
                    f"{stage.value} failed Secure Boot verification",
                )
            verified.append(stage.value)
        return BootOutcome(True, verified)


def sign_component(stage: BootStage, image: bytes,
                   signer: crypto.RsaKeyPair) -> BootComponent:
    """Produce a signed boot component."""
    return BootComponent(
        stage=stage,
        image=image,
        signature=signer.sign(image),
        signer_fingerprint=signer.public.fingerprint(),
    )
