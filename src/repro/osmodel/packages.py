"""Package database and APT-like repositories with signed metadata.

Three concerns from the paper live here:

* the installed-package inventory that the Vuls/Lynis-like scanners (M8)
  match against CVE data;
* APT repositories whose metadata is GPG-signed (M9): hosts configured
  with signature verification reject unsigned or tampered repositories;
* the Debian-10 *package availability* constraint behind Lesson 3 — ONL's
  old base lacks recent packages (Clevis's TPM libraries), so installs of
  too-new dependencies fail unless forced manually, with a conflict risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import crypto
from repro.common.errors import IntegrityError, NotFoundError


def compare_versions(a: str, b: str) -> int:
    """dpkg-style-ish version comparison: -1 if a<b, 0 if equal, 1 if a>b.

    Handles dotted numeric segments with optional alphanumeric suffixes,
    which covers every version string the simulation generates.
    """
    def split(version: str) -> List[Tuple[int, str]]:
        parts = []
        for chunk in version.replace("-", ".").replace("+", ".").split("."):
            digits = ""
            rest = chunk
            while rest and rest[0].isdigit():
                digits += rest[0]
                rest = rest[1:]
            parts.append((int(digits) if digits else 0, rest))
        return parts

    pa, pb = split(a), split(b)
    length = max(len(pa), len(pb))
    pa += [(0, "")] * (length - len(pa))
    pb += [(0, "")] * (length - len(pb))
    for (na, sa), (nb, sb) in zip(pa, pb):
        if na != nb:
            return -1 if na < nb else 1
        if sa != sb:
            return -1 if sa < sb else 1
    return 0


def version_in_range(version: str, introduced: Optional[str], fixed: Optional[str]) -> bool:
    """True if ``version`` falls in [introduced, fixed) — the CVE-affected test."""
    if introduced is not None and compare_versions(version, introduced) < 0:
        return False
    if fixed is not None and compare_versions(version, fixed) >= 0:
        return False
    return True


@dataclass(frozen=True)
class Package:
    """An installable software package."""

    name: str
    version: str
    description: str = ""
    depends: Tuple[str, ...] = ()
    min_distro_release: int = 0  # Debian release needed (Lesson 3 gate)

    @property
    def key(self) -> str:
        return f"{self.name}={self.version}"


class PackageDatabase:
    """Installed packages on one host."""

    def __init__(self) -> None:
        self._installed: Dict[str, Package] = {}

    def install(self, package: Package) -> None:
        self._installed[package.name] = package

    def remove(self, name: str) -> None:
        if name not in self._installed:
            raise NotFoundError(f"package {name} is not installed")
        del self._installed[name]

    def get(self, name: str) -> Optional[Package]:
        return self._installed.get(name)

    def installed(self) -> List[Package]:
        return sorted(self._installed.values(), key=lambda p: p.name)

    def __contains__(self, name: str) -> bool:
        return name in self._installed

    def __len__(self) -> int:
        return len(self._installed)


@dataclass
class RepositoryMetadata:
    """The signed index of an APT-like repository (a Release file)."""

    name: str
    package_index: Dict[str, str]  # name -> version
    signature: bytes = b""

    def canonical_bytes(self) -> bytes:
        entries = ";".join(f"{n}={v}" for n, v in sorted(self.package_index.items()))
        return f"{self.name}|{entries}".encode()


class AptRepository:
    """A package repository whose metadata may be GPG-signed (M9).

    ``signing_keypair`` plays the role of the repository's GPG key; hosts
    hold the corresponding public key in their trusted keyring.
    """

    def __init__(self, name: str,
                 signing_keypair: Optional[crypto.RsaKeyPair] = None) -> None:
        self.name = name
        self._packages: Dict[str, Package] = {}
        self._signing_keypair = signing_keypair

    @property
    def signed(self) -> bool:
        return self._signing_keypair is not None

    @property
    def public_key(self) -> Optional[crypto.RsaPublicKey]:
        return self._signing_keypair.public if self._signing_keypair else None

    def publish(self, package: Package) -> None:
        self._packages[package.name] = package

    def find(self, name: str) -> Optional[Package]:
        return self._packages.get(name)

    def metadata(self) -> RepositoryMetadata:
        """Current signed (or unsigned) repository index."""
        meta = RepositoryMetadata(
            name=self.name,
            package_index={p.name: p.version for p in self._packages.values()},
        )
        if self._signing_keypair is not None:
            meta.signature = self._signing_keypair.sign(meta.canonical_bytes())
        return meta

    @staticmethod
    def verify_metadata(meta: RepositoryMetadata,
                        trusted_keys: List[crypto.RsaPublicKey]) -> None:
        """Verify a repository index against a trusted keyring.

        :raises IntegrityError: unsigned metadata or no trusted key verifies.
        """
        if not meta.signature:
            raise IntegrityError(f"repository {meta.name} metadata is unsigned")
        for key in trusted_keys:
            if key.verify(meta.canonical_bytes(), meta.signature):
                return
        raise IntegrityError(
            f"repository {meta.name} metadata signature does not verify "
            "against any trusted key"
        )
