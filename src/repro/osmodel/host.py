"""The host aggregate: one OLT/cloud node's full software state.

A :class:`Host` glues together the kernel model, filesystem, package
database, services, users, TPM, boot chain and encrypted volumes, and
emits the event streams (``host.syscall``, ``host.file``, ``host.login``)
that runtime security components consume.

The paper's Lesson 3 constraint is first-class: ONL hosts report an old
Debian base release, and :meth:`Host.apt_install` refuses packages whose
``min_distro_release`` exceeds it unless forced — forcing records a
dependency-conflict risk, exactly the trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, NotFoundError
from repro.common.events import EventBus
from repro.common import crypto
from repro.osmodel.boot import BootChain, FirmwareRom
from repro.osmodel.filesystem import FileSystem
from repro.osmodel.kernel import KernelConfig, stock_onl_kernel
from repro.osmodel.packages import AptRepository, Package, PackageDatabase
from repro.osmodel.services import ServiceRegistry
from repro.osmodel.storage import LuksVolume
from repro.osmodel.tpm import Tpm
from repro.osmodel.users import UserDatabase


@dataclass(frozen=True)
class DistroInfo:
    """Operating-system distribution identity."""

    name: str
    version: str
    debian_release: int  # ONL is Debian 10; current Debian would be 12+

    @property
    def is_legacy(self) -> bool:
        return self.debian_release < 12


ONL_DISTRO = DistroInfo(name="Open Networking Linux", version="ONL-2.x (Debian 10)",
                        debian_release=10)
CLOUD_DISTRO = DistroInfo(name="Debian", version="12 (bookworm)", debian_release=12)


@dataclass
class InstallRecord:
    """Audit entry for one package installation attempt."""

    package: str
    version: str
    repo: str
    verified: bool
    forced: bool
    conflict_risk: bool


class Host:
    """A single machine in the GENIO deployment."""

    def __init__(
        self,
        hostname: str,
        distro: DistroInfo = ONL_DISTRO,
        kernel: Optional[KernelConfig] = None,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
        with_tpm: bool = True,
    ) -> None:
        self.hostname = hostname
        self.distro = distro
        self.kernel = kernel or stock_onl_kernel()
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self.fs = FileSystem()
        self.packages = PackageDatabase()
        self.services = ServiceRegistry()
        self.users = UserDatabase()
        self.tpm: Optional[Tpm] = Tpm(f"tpm-{hostname}") if with_tpm else None
        self.firmware = FirmwareRom(secure_boot=False)
        self.boot_chain = BootChain(self.firmware, tpm=self.tpm)
        self.volumes: Dict[str, LuksVolume] = {}
        self.trusted_apt_keys: List[crypto.RsaPublicKey] = []
        self.apt_verify_signatures = False
        self.install_log: List[InstallRecord] = []
        self.fs.observe(self._on_file_event)

    # -- event plumbing -----------------------------------------------------------

    def _on_file_event(self, op: str, path: str, actor: str) -> None:
        self.bus.emit("host.file", self.hostname, self.clock.now,
                      op=op, path=path, actor=actor)

    def syscall(self, process: str, name: str, **args: object) -> None:
        """Record a syscall from a workload (feeds the Falco-like monitor)."""
        self.bus.emit("host.syscall", self.hostname, self.clock.now,
                      process=process, syscall=name, **args)

    def login(self, user: str, method: str = "ssh", success: bool = True) -> None:
        self.bus.emit("host.login", self.hostname, self.clock.now,
                      user=user, method=method, success=success)

    # -- package management (M9 enforcement point) ------------------------------------

    def trust_apt_key(self, key: crypto.RsaPublicKey) -> None:
        self.trusted_apt_keys.append(key)

    def require_signed_apt(self) -> None:
        self.apt_verify_signatures = True

    def apt_install(self, repo: AptRepository, package_name: str,
                    force: bool = False) -> Package:
        """Install a package from a repository, enforcing M9 and Lesson 3.

        :raises IntegrityError: signature policy is on and the repository
            metadata is unsigned or signed by an untrusted key.
        :raises ConfigurationError: the package needs a newer distro base
            than this host has, and ``force`` was not given.
        """
        verified = False
        if self.apt_verify_signatures:
            AptRepository.verify_metadata(repo.metadata(), self.trusted_apt_keys)
            verified = True

        package = repo.find(package_name)
        if package is None:
            raise NotFoundError(f"{package_name} not found in repo {repo.name}")

        conflict_risk = False
        if package.min_distro_release > self.distro.debian_release:
            if not force:
                raise ConfigurationError(
                    f"{package.key} needs Debian release "
                    f">={package.min_distro_release}, host has "
                    f"{self.distro.debian_release} (Lesson 3: manual install required)"
                )
            conflict_risk = True  # manually forced onto an old base

        missing = [dep for dep in package.depends if dep not in self.packages]
        if missing and not force:
            raise ConfigurationError(
                f"{package.key} has unmet dependencies: {', '.join(missing)}"
            )
        if missing:
            conflict_risk = True

        self.packages.install(package)
        self.install_log.append(InstallRecord(
            package=package.name, version=package.version, repo=repo.name,
            verified=verified, forced=force, conflict_risk=conflict_risk,
        ))
        return package

    # -- storage ---------------------------------------------------------------------

    def add_volume(self, volume: LuksVolume) -> None:
        self.volumes[volume.name] = volume

    # -- boot ------------------------------------------------------------------------

    def boot(self):
        """Boot the host through its chain; returns the BootOutcome."""
        outcome = self.boot_chain.boot()
        self.bus.emit("host.boot", self.hostname, self.clock.now,
                      booted=outcome.booted, failure=outcome.failure)
        return outcome

    def __repr__(self) -> str:
        return (f"Host({self.hostname!r}, distro={self.distro.name!r}, "
                f"pkgs={len(self.packages)})")
