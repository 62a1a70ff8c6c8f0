"""Secure storage provisioning: LUKS + Clevis-style TPM binding (M6).

Encodes Lesson 3 directly: the Clevis/TPM auto-unlock stack needs
packages (``clevis``, ``tpm2-tools``) that the old ONL (Debian 10) base
does not carry. Provisioning therefore has three outcomes:

* **auto-unlock** — modern host (or forced install): volume bound to the
  TPM, unattended boot works;
* **manual passphrase** — legacy host without forced installs: encryption
  still deployed, but an operator must type the passphrase at boot
  (impractical for in-field OLT nodes, as the paper notes);
* **forced install** — packages forced onto the legacy base: auto-unlock
  works but a dependency-conflict risk is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.osmodel.boot import PCR_KERNEL
from repro.osmodel.host import Host
from repro.osmodel.packages import AptRepository, Package
from repro.osmodel.storage import LuksVolume

CLEVIS_STACK = ("tpm2-tools", "clevis")

# The PCRs a volume's TPM slot is sealed against: the measured kernel.
UNLOCK_PCRS = (PCR_KERNEL,)

# The encrypted volume M6 creates on each host, and the recovery
# passphrase in its first key slot.
VOLUME_NAME = "data"
RECOVERY_PASSPHRASE = "genio-recovery-passphrase"


@dataclass
class StorageProvisioningResult:
    """How secure storage ended up configured on one host."""

    host: str
    volume: str
    encrypted: bool
    tpm_bound: bool
    unlock_mode: str               # "auto" | "manual-passphrase"
    conflict_risk: bool = False
    notes: List[str] = field(default_factory=list)


def clevis_repository() -> AptRepository:
    """The backports repository carrying the Clevis TPM stack."""
    repo = AptRepository("clevis-backports")
    repo.publish(Package("tpm2-tools", "5.5", "TPM 2.0 utilities",
                         min_distro_release=11))
    repo.publish(Package("clevis", "19", "policy-based decryption",
                         depends=("tpm2-tools",), min_distro_release=11))
    return repo


def provision_secure_storage(
    host: Host,
    force_install: bool = False,
) -> StorageProvisioningResult:
    """Deploy M6 on a host, honoring the Lesson 3 constraints."""
    volume = LuksVolume(VOLUME_NAME, RECOVERY_PASSPHRASE)
    host.add_volume(volume)
    result = StorageProvisioningResult(
        host=host.hostname, volume=VOLUME_NAME,
        encrypted=True, tpm_bound=False, unlock_mode="manual-passphrase",
    )

    if host.tpm is None:
        result.notes.append("host has no TPM; PCR binding impossible")
        return result

    missing = [name for name in CLEVIS_STACK if name not in host.packages]
    if not missing:
        volume.bind_to_tpm(host.tpm, UNLOCK_PCRS)
        result.tpm_bound = True
        result.unlock_mode = "auto"
        return result

    repo = clevis_repository()
    signature_policy_suspended = False
    if host.apt_verify_signatures and not repo.signed:
        # Backports repos for the legacy base are often unsigned; the
        # operator must make an explicit trust decision.
        if not force_install:
            result.notes.append(
                "clevis backports repo unsigned and signature policy active")
            return result
        host.apt_verify_signatures = False
        signature_policy_suspended = True
        result.notes.append("signature policy temporarily suspended (forced)")

    try:
        for package_name in CLEVIS_STACK:
            if package_name not in host.packages:
                host.apt_install(repo, package_name, force=force_install)
    except ConfigurationError as exc:
        result.notes.append(
            f"Clevis stack unavailable on {host.distro.version}: {exc}")
        result.notes.append(
            "falling back to manual passphrase entry at boot (Lesson 3)")
        return result
    finally:
        if signature_policy_suspended:
            host.require_signed_apt()

    volume.bind_to_tpm(host.tpm, UNLOCK_PCRS)
    result.tpm_bound = True
    result.unlock_mode = "auto"
    result.conflict_risk = any(r.conflict_risk for r in host.install_log
                               if r.package in CLEVIS_STACK)
    if result.conflict_risk:
        result.notes.append(
            "packages forced onto legacy base: dependency-conflict risk recorded")
    return result


def boot_and_unlock(host: Host, volume_name: str,
                    passphrase: Optional[str] = None) -> str:
    """Simulate the boot-time unlock path for a provisioned volume.

    Returns the unlock mode that actually succeeded ("auto" or
    "manual-passphrase").

    :raises repro.common.errors.AuthorizationError: TPM policy unsatisfied
        and no passphrase supplied.
    """
    volume = host.volumes[volume_name]
    if host.tpm is not None and any(s.slot_type == "tpm" for s in volume.slots):
        try:
            volume.unlock_with_tpm(host.tpm)
            return "auto"
        except Exception:
            if passphrase is None:
                raise
    if passphrase is None:
        raise ConfigurationError(
            f"volume {volume_name} requires a passphrase and none was supplied")
    volume.unlock_with_passphrase(passphrase)
    return "manual-passphrase"
