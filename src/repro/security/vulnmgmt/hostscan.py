"""Vuls/Lynis/OpenSCAP-style host vulnerability scanning (M8).

Matches a host's installed packages and kernel version against the CVE
database, prioritises findings by severity and exploitability, and can
apply patches (upgrading the package to the fixed version) in priority
order — the paper's "critical patches applied as soon as feasible".

Lesson 4's "occasional manual tuning for non-standard paths" is modelled:
ONL's platform packages (``onlp``, ``openvswitch-switch`` under a vendor
prefix) are missed unless the scanner is configured with the ONL package
aliases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import telemetry
from repro.osmodel.host import Host
from repro.osmodel.packages import Package
from repro.security.vulnmgmt.cvedb import (
    CveDatabase, CveRecord, Severity, severity_counts,
)

# Non-standard ONL package naming the default scanner config does not know.
ONL_PACKAGE_ALIASES: Dict[str, str] = {
    "openvswitch-switch": "openvswitch-switch",
    "onlp": "onlp",
}

# The kernel version matched against the CVE database when a host's
# kernel version string has no upstream part before its first "-".
FALLBACK_KERNEL_VERSION = "4.19.0"


@dataclass
class ScanFinding:
    """One vulnerable (package, CVE) pair on a host."""

    cve: CveRecord
    package: str
    installed_version: str

    @property
    def priority(self) -> float:
        return self.cve.priority


@dataclass
class ScanReport:
    """One scan run."""

    host: str
    findings: List[ScanFinding] = field(default_factory=list)
    packages_scanned: int = 0
    packages_skipped: List[str] = field(default_factory=list)

    def prioritized(self) -> List[ScanFinding]:
        return sorted(self.findings, key=lambda f: -f.priority)

    def by_severity(self) -> Dict[Severity, int]:
        return severity_counts(finding.cve for finding in self.findings)

    @property
    def critical_or_exploitable(self) -> List[ScanFinding]:
        return [f for f in self.findings
                if f.cve.severity is Severity.CRITICAL or f.cve.exploit_available]


class HostScanner:
    """The M8 scanner."""

    def __init__(self, cvedb: CveDatabase,
                 package_aliases: Optional[Dict[str, str]] = None) -> None:
        self.cvedb = cvedb
        # alias map: installed name -> CVE-database name. Without the ONL
        # aliases, platform packages are skipped (Lesson 4's manual tuning).
        self.package_aliases = dict(package_aliases or {})
        metrics = telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._scans_counter = metrics.counter(
                "vuln_scans_total", "Host vulnerability scans performed.")
            self._packages_counter = metrics.counter(
                "vuln_packages_scanned_total",
                "Packages matched against the CVE database.")
            self._findings_counter = metrics.counter(
                "vuln_findings_total", "CVE findings reported, by severity.",
                ("severity",))
            self._patches_counter = metrics.counter(
                "vuln_patches_applied_total", "Patches successfully applied.")
            self._scan_duration = metrics.histogram(
                "vuln_scan_duration_seconds",
                "Wall-clock duration of one host scan.")

    def scan(self, host: Host, now: Optional[float] = None) -> ScanReport:
        """Scan packages + kernel; ``now`` limits to already-published CVEs."""
        started = time.perf_counter()
        report = ScanReport(host=host.hostname)
        for package in host.packages.installed():
            name = self._resolve_name(package)
            if name is None:
                report.packages_skipped.append(package.name)
                continue
            report.packages_scanned += 1
            for cve in self.cvedb.matching(name, package.version, "debian"):
                if now is not None and cve.published_at > now:
                    continue
                report.findings.append(ScanFinding(
                    cve=cve, package=package.name,
                    installed_version=package.version))
        kernel_version = host.kernel.version.split("-")[0] or FALLBACK_KERNEL_VERSION
        for cve in self.cvedb.matching("linux-kernel", kernel_version, "kernel"):
            if now is not None and cve.published_at > now:
                continue
            report.findings.append(ScanFinding(
                cve=cve, package="linux-kernel",
                installed_version=host.kernel.version))
        if self._metrics is not None:
            self._scans_counter.inc()
            self._packages_counter.inc(report.packages_scanned)
            for finding in report.findings:
                self._findings_counter.inc(
                    severity=finding.cve.severity.name.lower())
            self._scan_duration.observe(time.perf_counter() - started)
        return report

    def _resolve_name(self, package: Package) -> Optional[str]:
        """Map an installed package to its CVE-database name.

        Standard Debian names resolve directly; ONL vendor packages need
        an explicit alias or they are skipped.
        """
        if package.name in self.package_aliases:
            return self.package_aliases[package.name]
        if package.name in ("onlp", "openvswitch-switch"):
            return None   # non-standard ONL path: needs manual tuning
        return package.name

    # -- patching ------------------------------------------------------------------

    def patch(self, host: Host, finding: ScanFinding) -> bool:
        """Upgrade the affected package to its fixed version.

        Returns False for unfixed CVEs (no patch exists) and for the
        kernel (kernel updates go through ONIE, M9).
        """
        if finding.cve.fixed is None or finding.package == "linux-kernel":
            return False
        current = host.packages.get(finding.package)
        if current is None:
            return False
        from repro.osmodel.packages import compare_versions
        if compare_versions(finding.cve.fixed, current.version) <= 0:
            # Another patch already moved the package past this fix;
            # never downgrade.
            return False
        host.packages.install(Package(
            name=current.name, version=finding.cve.fixed,
            description=current.description))
        if self._metrics is not None:
            self._patches_counter.inc()
        return True

    def patch_prioritized(self, host: Host, budget: int,
                          now: Optional[float] = None) -> Tuple[int, ScanReport]:
        """Apply up to ``budget`` patches in priority order; rescan."""
        report = self.scan(host, now=now)
        applied = 0
        for finding in report.prioritized():
            if applied >= budget:
                break
            if self.patch(host, finding):
                applied += 1
        return applied, self.scan(host, now=now)
