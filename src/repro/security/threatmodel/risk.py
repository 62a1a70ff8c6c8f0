"""Residual-risk assessment: what remains after mitigations are applied.

Threat modeling (Section III) scores inherent risk as likelihood x impact;
deploying mitigations (Sections IV-VI) reduces *likelihood* — physical
interception is still attempted against an encrypted PON, it just stops
working. Each applied mitigation contributes a likelihood reduction; the
residual score drives the prioritisation the platform owner reviews, and
the security report uses it to show risk posture before/after the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.security.threatmodel.catalog import (
    GENIO_MITIGATIONS, GENIO_THREATS, require_known_mitigations,
)
from repro.security.threatmodel.stride import RiskLevel

# How strongly one applied mitigation suppresses its threat's likelihood.
# Several mitigations on the same threat compound multiplicatively.
_REDUCTION_PER_MITIGATION = 0.55


@dataclass
class ResidualRisk:
    """One threat's risk before and after mitigation."""

    threat_id: str
    name: str
    inherent_score: float
    residual_score: float
    applied: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def reduction(self) -> float:
        if self.inherent_score == 0:
            return 0.0
        return 1.0 - self.residual_score / self.inherent_score

    @property
    def residual_level(self) -> RiskLevel:
        return RiskLevel.for_score(self.residual_score)


def assess_residual_risk(
        applied_mitigations: Iterable[str]) -> List[ResidualRisk]:
    """Score every GENIO threat given the set of applied mitigation ids."""
    applied = require_known_mitigations(applied_mitigations)

    results: List[ResidualRisk] = []
    for threat in GENIO_THREATS:
        linked = list(threat.mitigation_ids)
        active = [m for m in linked if m in applied]
        missing = [m for m in linked if m not in applied]
        factor = (1.0 - _REDUCTION_PER_MITIGATION) ** len(active)
        residual = threat.likelihood * factor * threat.impact
        results.append(ResidualRisk(
            threat_id=threat.threat_id, name=threat.name,
            inherent_score=float(threat.risk_score),
            residual_score=round(residual, 2),
            applied=active, missing=missing))
    return sorted(results, key=lambda r: -r.residual_score)


def portfolio_risk(assessments: Sequence[ResidualRisk]) -> Dict[str, float]:
    """Aggregate posture numbers for the report."""
    inherent = sum(a.inherent_score for a in assessments)
    residual = sum(a.residual_score for a in assessments)
    return {
        "inherent_total": inherent,
        "residual_total": round(residual, 2),
        "overall_reduction": round(1.0 - residual / inherent, 4) if inherent else 0.0,
        "threats_above_medium": sum(
            1 for a in assessments
            if a.residual_level in (RiskLevel.HIGH, RiskLevel.CRITICAL)),
    }


ALL_MITIGATIONS: List[str] = [m.mitigation_id for m in GENIO_MITIGATIONS]
