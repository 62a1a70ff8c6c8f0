"""STRIDE methodology engine.

The paper applied STRIDE systematically across the cloud, edge and
far-edge layers to derive threats T1-T8. This module provides the
machinery: assets with layers and trust boundaries, threats classified by
STRIDE category, likelihood x impact risk scoring, and mitigation links —
so the Figure 3 matrix is *generated from the model*, not hard-coded
prose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import NotFoundError


class Stride(enum.Enum):
    """The six STRIDE threat categories."""

    SPOOFING = "Spoofing"
    TAMPERING = "Tampering"
    REPUDIATION = "Repudiation"
    INFORMATION_DISCLOSURE = "Information disclosure"
    DENIAL_OF_SERVICE = "Denial of service"
    ELEVATION_OF_PRIVILEGE = "Elevation of privilege"


class Layer(enum.Enum):
    """The paper's three risk layers."""

    INFRASTRUCTURE = "Infrastructure"
    MIDDLEWARE = "Middleware"
    APPLICATION = "Application"


class RiskLevel(enum.Enum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4

    @classmethod
    def for_score(cls, score: float) -> "RiskLevel":
        """The band of a likelihood x impact score (1..16)."""
        if score >= 12:
            return cls.CRITICAL
        if score >= 8:
            return cls.HIGH
        if score >= 4:
            return cls.MEDIUM
        return cls.LOW


@dataclass(frozen=True)
class Asset:
    """Something worth attacking: hardware, software, or data."""

    name: str
    layer: Layer
    description: str = ""
    exposed_physically: bool = False   # ONUs/OLTs in uncontrolled locations


@dataclass
class Threat:
    """One modeled threat (the paper's T1..T8 granularity)."""

    threat_id: str                 # "T1"
    name: str
    layer: Layer
    stride: Tuple[Stride, ...]
    description: str
    assets: Tuple[str, ...] = ()
    attack_techniques: Tuple[str, ...] = ()
    likelihood: int = 2            # 1..4
    impact: int = 2                # 1..4
    mitigation_ids: Tuple[str, ...] = ()

    @property
    def risk_score(self) -> int:
        return self.likelihood * self.impact

    @property
    def risk_level(self) -> RiskLevel:
        return RiskLevel.for_score(self.risk_score)


class ThreatModel:
    """A queryable collection of assets and threats."""

    def __init__(self, name: str = "threat-model") -> None:
        self.name = name
        self._assets: Dict[str, Asset] = {}
        self._threats: Dict[str, Threat] = {}

    # -- population -----------------------------------------------------------

    def add_asset(self, asset: Asset) -> None:
        self._assets[asset.name] = asset

    def add_threat(self, threat: Threat) -> None:
        unknown = [a for a in threat.assets if a not in self._assets]
        if unknown:
            raise NotFoundError(
                f"threat {threat.threat_id} references unknown assets: {unknown}"
            )
        self._threats[threat.threat_id] = threat

    # -- queries ----------------------------------------------------------------

    def threat(self, threat_id: str) -> Threat:
        threat = self._threats.get(threat_id)
        if threat is None:
            raise NotFoundError(f"no threat {threat_id} in model {self.name}")
        return threat

    def asset(self, name: str) -> Asset:
        asset = self._assets.get(name)
        if asset is None:
            raise NotFoundError(f"no asset {name} in model {self.name}")
        return asset

    def threats(self, layer: Optional[Layer] = None,
                stride: Optional[Stride] = None) -> List[Threat]:
        found = list(self._threats.values())
        if layer is not None:
            found = [t for t in found if t.layer == layer]
        if stride is not None:
            found = [t for t in found if stride in t.stride]
        return sorted(found, key=lambda t: t.threat_id)

    def assets(self, layer: Optional[Layer] = None) -> List[Asset]:
        found = list(self._assets.values())
        if layer is not None:
            found = [a for a in found if a.layer == layer]
        return sorted(found, key=lambda a: a.name)

    def threats_against(self, asset_name: str) -> List[Threat]:
        self.asset(asset_name)  # validate
        return [t for t in self.threats() if asset_name in t.assets]

    def ranked_by_risk(self) -> List[Threat]:
        return sorted(self.threats(), key=lambda t: (-t.risk_score, t.threat_id))

    def unmitigated(self) -> List[Threat]:
        """Threats with no linked mitigation — the model's gap report."""
        return [t for t in self.threats() if not t.mitigation_ids]

    def stride_coverage(self) -> Dict[Stride, int]:
        """How many threats fall in each STRIDE category."""
        counts = {category: 0 for category in Stride}
        for threat in self.threats():
            for category in threat.stride:
                counts[category] += 1
        return counts
