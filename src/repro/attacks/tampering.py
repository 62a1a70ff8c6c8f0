"""T2: code-tampering attacks against boot chain, binaries and updates."""

from __future__ import annotations

from typing import Optional

from repro.common.errors import AuthorizationError
from repro.osmodel.boot import BootComponent, BootStage
from repro.osmodel.host import Host
from repro.pon.attacks import AttackResult
from repro.security.integrity.fim import FileIntegrityMonitor
from repro.security.integrity.secureboot import SecureBootProvisioner
from repro.security.updates.onie import OnieImage, OnieInstaller

# The setuid binary the persistence implant overwrites.
IMPLANT_TARGET = "/usr/bin/sudo"


class BootKitAttack:
    """Replace the kernel image with a bootkit and try to boot it.

    Defeated by M5 (Secure Boot blocks the boot; Measured Boot leaves
    evidence even if verification is off).
    """

    def __init__(self, host: Host,
                 provisioner: Optional[SecureBootProvisioner] = None) -> None:
        self.host = host
        self.provisioner = provisioner

    def run(self) -> AttackResult:
        chain = self.host.boot_chain
        original = chain.components.get(BootStage.KERNEL)
        stolen_signature = original.signature if original else b""
        chain.install(BootComponent(BootStage.KERNEL, b"vmlinuz-bootkit-1.0",
                                    signature=stolen_signature))
        outcome = self.host.boot()
        if not outcome.booted:
            return AttackResult("bootkit", False,
                                f"Secure Boot blocked: {outcome.failure}")
        if self.provisioner is not None:
            attestation = self.provisioner.attest_host(self.host)
            if not attestation.trusted:
                return AttackResult(
                    "bootkit", False,
                    "bootkit ran but Measured Boot attestation flagged the "
                    f"platform ({attestation.detail}); node quarantined")
        return AttackResult("bootkit", True,
                            "bootkit booted with no verification or attestation",
                            evidence=["kernel image replaced"])


class BinaryImplantAttack:
    """Overwrite a system binary post-boot (persistence implant).

    Defeated by M7: the FIM check alerts on the modification. Immutable
    bits can block it outright.
    """

    def __init__(self, host: Host,
                 fim: Optional[FileIntegrityMonitor] = None) -> None:
        self.host = host
        self.fim = fim

    def run(self) -> AttackResult:
        try:
            self.host.fs.write(IMPLANT_TARGET, b"IMPLANTED-BINARY",
                               actor="attacker")
        except AuthorizationError as exc:
            return AttackResult("binary-implant", False,
                                f"write blocked: {exc}")
        if self.fim is not None:
            report = self.fim.check()
            hit = [f for f in report.alerts if f.path == IMPLANT_TARGET]
            if hit:
                return AttackResult(
                    "binary-implant", False,
                    f"implant written but FIM alerted on {IMPLANT_TARGET} "
                    f"({hit[0].change}); incident response triggered")
        return AttackResult("binary-implant", True,
                            f"{IMPLANT_TARGET} replaced, nobody noticed",
                            evidence=[IMPLANT_TARGET])


class MaliciousUpdateAttack:
    """Push a tampered ONL image through the update channel.

    Defeated by M9: ONIE rejects images whose detached signature fails.
    """

    def __init__(self, host: Host, installer: Optional[OnieInstaller],
                 legitimate_image: OnieImage) -> None:
        self.host = host
        self.installer = installer
        self.legitimate_image = legitimate_image

    def run(self) -> AttackResult:
        tampered = OnieImage(
            name=self.legitimate_image.name,
            version=self.legitimate_image.version + "-trojan",
            payload=self.legitimate_image.payload + b"<TROJAN>",
            detached_signature=self.legitimate_image.detached_signature,
            signer_certificate=self.legitimate_image.signer_certificate,
        )
        if self.installer is None:
            # No verification channel: the node just applies what it gets.
            self.host.fs.write(f"/boot/vmlinuz-{tampered.version}",
                               tampered.payload, actor="attacker")
            self.host.kernel.version = tampered.version
            return AttackResult("malicious-update", True,
                                "unverified update channel applied trojan image",
                                evidence=[tampered.version])
        result = self.installer.apply_update(self.host, tampered)
        if result.applied:
            return AttackResult("malicious-update", True,
                                "signed-update path accepted a tampered image!")
        return AttackResult("malicious-update", False,
                            f"ONIE rejected the image: {result.detail}")
