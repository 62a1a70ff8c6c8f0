"""CVE records and the queryable database.

Each record names an affected package (in some ecosystem: debian, k8s
component, pypi...), an affected version range ``[introduced, fixed)``,
a CVSS score, exploitability, and the publication timestamp used by the
feed-latency experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.osmodel.packages import version_in_range


class Severity(enum.Enum):
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"
    CRITICAL = "CRITICAL"

    @staticmethod
    def from_cvss(score: float) -> "Severity":
        if score >= 9.0:
            return Severity.CRITICAL
        if score >= 7.0:
            return Severity.HIGH
        if score >= 4.0:
            return Severity.MEDIUM
        return Severity.LOW


def severity_counts(records: Iterable["CveRecord"]) -> Dict[Severity, int]:
    """How many of ``records`` fall in each severity, every level listed."""
    counts = {severity: 0 for severity in Severity}
    for record in records:
        counts[record.severity] += 1
    return counts


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability."""

    cve_id: str
    package: str
    ecosystem: str                 # debian | kernel | k8s | pypi | middleware
    introduced: Optional[str]      # inclusive, None = forever
    fixed: Optional[str]           # exclusive, None = unfixed
    cvss: float
    summary: str = ""
    exploit_available: bool = False
    published_at: float = 0.0      # simulated seconds since epoch

    @property
    def severity(self) -> Severity:
        return Severity.from_cvss(self.cvss)

    def affects(self, package: str, version: str,
                ecosystem: Optional[str] = None) -> bool:
        if package != self.package:
            return False
        if ecosystem is not None and ecosystem != self.ecosystem:
            return False
        return version_in_range(version, self.introduced, self.fixed)

    @property
    def priority(self) -> float:
        """The M8 prioritisation metric: severity weighted by exploitability."""
        return self.cvss * (1.5 if self.exploit_available else 1.0)


class CveDatabase:
    """Queryable collection of CVE records."""

    def __init__(self, records: Optional[Iterable[CveRecord]] = None) -> None:
        self._records: List[CveRecord] = list(records or [])
        self._by_package: Dict[Tuple[str, str], List[CveRecord]] = {}
        for record in self._records:
            self._index(record)

    def _index(self, record: CveRecord) -> None:
        self._by_package.setdefault((record.ecosystem, record.package),
                                    []).append(record)

    def add(self, record: CveRecord) -> None:
        self._records.append(record)
        self._index(record)

    def __len__(self) -> int:
        return len(self._records)

    def all(self) -> List[CveRecord]:
        return list(self._records)

    def get(self, cve_id: str) -> Optional[CveRecord]:
        for record in self._records:
            if record.cve_id == cve_id:
                return record
        return None

    def matching(self, package: str, version: str,
                 ecosystem: str) -> List[CveRecord]:
        """CVEs affecting one (package, version) in an ecosystem."""
        candidates = self._by_package.get((ecosystem, package), [])
        return [r for r in candidates if r.affects(package, version, ecosystem)]

    def published_before(self, when: float) -> List[CveRecord]:
        return [r for r in self._records if r.published_at <= when]
