"""Regenerating Figure 3: the threat x mitigation x OSS-tool matrix.

Figure 3 of the paper summarizes, per architectural layer, which OSS
security solutions and standards address which threats. These functions
derive that matrix from the catalog so the E3 benchmark can print it and
tests can assert its completeness (every mitigation linked to a real
module; ``ThreatModel.unmitigated`` reports threats with none).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.security.threatmodel.catalog import (
    GENIO_MITIGATIONS, GENIO_THREATS, mitigations_by_id,
)


@dataclass(frozen=True)
class MatrixRow:
    """One row of the Figure 3 matrix."""

    layer: str
    threat_id: str
    threat_name: str
    mitigation_id: str
    mitigation_name: str
    oss_tools: Tuple[str, ...]
    standards: Tuple[str, ...]
    lesson: int
    module: str


def coverage_matrix() -> List[MatrixRow]:
    """Every (threat, mitigation) pair, ordered as the paper presents them."""
    by_id = mitigations_by_id()
    rows: List[MatrixRow] = []
    for threat in GENIO_THREATS:
        for mitigation_id in threat.mitigation_ids:
            mitigation = by_id[mitigation_id]
            rows.append(MatrixRow(
                layer=threat.layer.value,
                threat_id=threat.threat_id,
                threat_name=threat.name,
                mitigation_id=mitigation.mitigation_id,
                mitigation_name=mitigation.name,
                oss_tools=mitigation.oss_tools,
                standards=mitigation.standards,
                lesson=mitigation.lesson,
                module=mitigation.module,
            ))
    return rows


def render_matrix() -> str:
    """Human-readable Figure 3 reproduction (one line per pairing)."""
    lines = ["Layer            Threat  Mitigation  OSS tools / standards"]
    lines.append("-" * 96)
    for row in coverage_matrix():
        tools = ", ".join(row.oss_tools + row.standards)
        lines.append(
            f"{row.layer:<16} {row.threat_id:<7} "
            f"{row.mitigation_id:<4} {row.mitigation_name:<38} {tools}"
        )
    return "\n".join(lines)


def tools_per_layer() -> Dict[str, List[str]]:
    """The per-layer OSS-tool inventory Figure 3 groups by."""
    layers: Dict[str, List[str]] = {}
    for mitigation in GENIO_MITIGATIONS:
        bucket = layers.setdefault(mitigation.layer.value, [])
        for tool in mitigation.oss_tools:
            if tool not in bucket:
                bucket.append(tool)
    return layers
