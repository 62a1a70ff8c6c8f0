"""Regulatory alignment: Cyber Resilience Act readiness mapping.

Section I of the paper: "One of the main objectives of the GENIO project
is to align the platform with security regulations, such as the European
Cyber Resilience Act and CE marking certification. This objective shaped
the platform by guiding threat mitigations."

This module encodes the CRA Annex I essential requirements (paraphrased,
at the granularity relevant to the platform) and maps each onto the
mitigations that substantiate it, so a readiness assessment can be
generated from the applied-mitigation set — the artifact a conformity
assessor actually asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.security.threatmodel.catalog import require_known_mitigations


@dataclass(frozen=True)
class CraRequirement:
    """One CRA Annex I essential requirement (paraphrased)."""

    req_id: str
    text: str
    satisfied_by: Tuple[str, ...]    # mitigation ids that substantiate it


CRA_REQUIREMENTS: Tuple[CraRequirement, ...] = (
    CraRequirement(
        "CRA-1", "made available without known exploitable vulnerabilities",
        ("M8", "M12", "M13")),
    CraRequirement(
        "CRA-2", "secure-by-default configuration",
        ("M1", "M2", "M10", "M11")),
    CraRequirement(
        "CRA-3", "protection from unauthorized access (authentication, "
        "identity and access management)",
        ("M4", "M10")),
    CraRequirement(
        "CRA-4", "confidentiality of stored and transmitted data "
        "(state-of-the-art encryption)",
        ("M3", "M6")),
    CraRequirement(
        "CRA-5", "integrity of data, commands, programs and configuration "
        "against unauthorized manipulation",
        ("M5", "M7", "M9")),
    CraRequirement(
        "CRA-6", "data minimisation and isolation between users",
        ("M17",)),
    CraRequirement(
        "CRA-7", "limit attack surfaces, including external interfaces",
        ("M1", "M2", "M15")),
    CraRequirement(
        "CRA-8", "reduce the impact of incidents (exploitation mitigation "
        "mechanisms)",
        ("M2", "M17")),
    CraRequirement(
        "CRA-9", "record and monitor relevant internal activity",
        ("M18", "M7")),
    CraRequirement(
        "CRA-10", "address vulnerabilities through security updates",
        ("M9", "M12")),
    CraRequirement(
        "CRA-11", "identify and document components (software bill of "
        "materials)",
        ("M12", "M13")),
    CraRequirement(
        "CRA-12", "handle and scrutinize third-party components",
        ("M13", "M14", "M16")),
)


@dataclass
class RequirementStatus:
    """Assessment of one requirement against the applied mitigations."""

    requirement: CraRequirement
    applied: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def state(self) -> str:
        if not self.missing:
            return "satisfied"
        if self.applied:
            return "partial"
        return "unsatisfied"


@dataclass
class CraAssessment:
    """The full readiness picture."""

    statuses: List[RequirementStatus] = field(default_factory=list)

    @property
    def ready(self) -> bool:
        return all(s.state == "satisfied" for s in self.statuses)

    def counts(self) -> Dict[str, int]:
        result = {"satisfied": 0, "partial": 0, "unsatisfied": 0}
        for status in self.statuses:
            result[status.state] += 1
        return result

    def render(self) -> str:
        lines = ["CRA Annex I readiness assessment", "-" * 48]
        for status in self.statuses:
            req = status.requirement
            marker = {"satisfied": "OK ", "partial": "PART",
                      "unsatisfied": "MISS"}[status.state]
            lines.append(f"[{marker:<4}] {req.req_id:<7} {req.text}")
            if status.missing:
                lines.append(f"         missing: {', '.join(status.missing)}")
        counts = self.counts()
        lines.append("")
        lines.append(f"{counts['satisfied']}/{len(self.statuses)} satisfied, "
                     f"{counts['partial']} partial, "
                     f"{counts['unsatisfied']} unsatisfied")
        return "\n".join(lines)


def assess_cra_readiness(applied_mitigations: Iterable[str]) -> CraAssessment:
    """Map the applied mitigations onto the CRA requirements.

    :raises ValueError: an id is not in the mitigation catalog.
    """
    applied = require_known_mitigations(applied_mitigations)
    assessment = CraAssessment()
    for requirement in CRA_REQUIREMENTS:
        have = [m for m in requirement.satisfied_by if m in applied]
        lack = [m for m in requirement.satisfied_by if m not in applied]
        assessment.statuses.append(RequirementStatus(
            requirement=requirement, applied=have, missing=lack))
    return assessment
