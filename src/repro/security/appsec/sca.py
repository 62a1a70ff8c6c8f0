"""Software Composition Analysis (M13): Trivy/Dependency-Check style.

Scans a container image's package manifest against the CVE database.
Lesson 7 is modeled faithfully:

* SCA "often flags unused or misidentified dependencies" — packages whose
  manifest entry says ``imported=False`` still produce findings, marked
  ``reachable=False`` so experiments can quantify the noise rate;
* SCA "analyzes entire dependencies without linking vulnerabilities to
  specific functions used" — there is deliberately no function-level
  reachability: the ``reachable`` flag only captures import-level truth,
  which is exactly the visibility gap the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.security.vulnmgmt.cvedb import (
    CveDatabase, CveRecord, Severity, severity_counts,
)
from repro.virt.image import ContainerImage, ImagePackage

# The registry gate refuses an image with any finding at or above this.
GATE_SEVERITY = Severity.HIGH


@dataclass
class ScaFinding:
    """One vulnerable dependency in one image."""

    cve: CveRecord
    package: ImagePackage
    reachable: bool        # is the dependency even imported by the app?
    misidentified: bool = False   # matched by fuzzy stem, not exact name

    @property
    def severity(self) -> Severity:
        return self.cve.severity


@dataclass
class ScaReport:
    """One image scan."""

    image: str
    findings: List[ScaFinding] = field(default_factory=list)
    packages_scanned: int = 0

    @property
    def actionable(self) -> List[ScaFinding]:
        """Correctly-identified findings on imported dependencies."""
        return [f for f in self.findings
                if f.reachable and not f.misidentified]

    @property
    def noise(self) -> List[ScaFinding]:
        """Lesson 7 noise: unused dependencies or misidentified matches."""
        return [f for f in self.findings
                if not f.reachable or f.misidentified]

    @property
    def noise_rate(self) -> float:
        if not self.findings:
            return 0.0
        return len(self.noise) / len(self.findings)

    def by_severity(self) -> Dict[Severity, int]:
        return severity_counts(finding.cve for finding in self.findings)


def _normalize_name(name: str) -> str:
    """The fuzzy identification heuristic real SCA tools use on unlabeled
    artifacts: strip distro/runtime prefixes and suffixes before matching.

    This is exactly where Lesson 7's "misidentified dependencies" come
    from — ``python3-urllib``, ``urllib3`` and ``urllib3-mirror`` all
    normalize to the same stem, so advisories attach to the wrong thing.
    """
    stem = name.lower()
    for prefix in ("python3-", "python-", "node-", "lib", "golang-"):
        if stem.startswith(prefix):
            stem = stem[len(prefix):]
    for suffix in ("-py", "-python", "-bin", "-mirror", "-fork", "-dev"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    return stem.rstrip("0123456789")


class ScaScanner:
    """The M13 SCA engine.

    ``fuzzy_identification`` reproduces the evidence-based matching real
    tools fall back to when manifests are incomplete: packages are
    matched by normalized name stem, which finds renamed/vendored copies
    but also *misidentifies* lookalikes (forks, mirrors, distro rebuilds)
    — findings gain ``misidentified=True`` when only the fuzzy stem, not
    the exact name, matched.
    """

    def __init__(self, cvedb: CveDatabase,
                 fuzzy_identification: bool = False) -> None:
        self.cvedb = cvedb
        self.fuzzy_identification = fuzzy_identification
        if fuzzy_identification:
            self._stems: Dict[str, List[str]] = {}
            for record in cvedb.all():
                self._stems.setdefault(_normalize_name(record.package),
                                       []).append(record.package)

    def scan(self, image: ContainerImage) -> ScaReport:
        """Match every manifest package against the CVE database.

        Like its real counterparts, the scanner reports on everything in
        the image — it cannot tell which dependencies the application
        uses, so unused ones generate the same findings.
        """
        report = ScaReport(image=image.reference)
        for package in image.packages:
            report.packages_scanned += 1
            exact_hits = set()
            for cve in self.cvedb.matching(package.name, package.version,
                                           package.ecosystem):
                exact_hits.add(cve.cve_id)
                report.findings.append(ScaFinding(
                    cve=cve, package=package, reachable=package.imported))
            if self.fuzzy_identification:
                self._fuzzy_scan(package, exact_hits, report)
        return report

    def _fuzzy_scan(self, package: ImagePackage, exact_hits: set,
                    report: ScaReport) -> None:
        """Stem-based matching: finds renames, invents misidentifications."""
        stem = _normalize_name(package.name)
        for candidate in self._stems.get(stem, []):
            if candidate == package.name:
                continue   # exact matching already handled it
            for cve in self.cvedb.matching(candidate, package.version,
                                           package.ecosystem):
                if cve.cve_id in exact_hits:
                    continue
                report.findings.append(ScaFinding(
                    cve=cve, package=package, reachable=package.imported,
                    misidentified=True))

    @staticmethod
    def gate(report: ScaReport) -> bool:
        """Registry admission gate: False if any finding at/above the bar.

        Note the gate cannot use reachability (the tool does not know it),
        so noisy findings block publishes too — the Lesson 7 pain.
        """
        order = [Severity.LOW, Severity.MEDIUM, Severity.HIGH, Severity.CRITICAL]
        bar = order.index(GATE_SEVERITY)
        return not any(order.index(f.severity) >= bar for f in report.findings)
