"""E3 — Figure 3: OSS security solutions and standards in GENIO.

Regenerates the threat x mitigation x tool matrix from the threat-model
catalog and benchmarks matrix derivation.
"""

from repro.security.threatmodel import (
    GENIO_MITIGATIONS, GENIO_THREATS, build_genio_threat_model,
    coverage_matrix, render_matrix,
)
from repro.security.threatmodel.matrix import tools_per_layer


def test_fig3_matrix(benchmark, report):
    rows = benchmark(coverage_matrix)

    lines = [render_matrix(), "", "Per-layer OSS tool inventory:"]
    for layer, tools in tools_per_layer().items():
        lines.append(f"  {layer}: {', '.join(tools)}")
    model = build_genio_threat_model()
    lines.append("")
    lines.append("Risk ranking (likelihood x impact):")
    for threat in model.ranked_by_risk():
        lines.append(f"  {threat.threat_id:<4} {threat.name:<42} "
                     f"score={threat.risk_score:<3} {threat.risk_level.name}")
    report("E3_fig3_matrix", "\n".join(lines))

    # The matrix's structural claims:
    assert len(GENIO_THREATS) == 8 and len(GENIO_MITIGATIONS) == 18
    assert model.unmitigated() == []                  # every threat mitigated
    assert len(rows) == sum(len(t.mitigation_ids) for t in GENIO_THREATS)
    assert len({r.mitigation_id for r in rows}) == 18  # every mitigation used
