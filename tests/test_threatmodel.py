"""Unit tests for the STRIDE threat-model engine and GENIO catalog."""

import pytest

from repro.common.errors import NotFoundError
from repro.security.threatmodel import (
    Asset, GENIO_MITIGATIONS, GENIO_THREATS, Layer, RiskLevel, Stride, Threat,
    ThreatModel, build_genio_threat_model, coverage_matrix, render_matrix,
)
from repro.security.threatmodel.catalog import mitigations_by_id
from repro.security.threatmodel.matrix import tools_per_layer


class TestStrideEngine:
    def test_add_and_query_threats(self):
        model = ThreatModel()
        model.add_asset(Asset("db", Layer.APPLICATION))
        model.add_threat(Threat(
            "X1", "test", Layer.APPLICATION,
            stride=(Stride.TAMPERING,), description="d", assets=("db",)))
        assert model.threat("X1").name == "test"
        assert model.threats(layer=Layer.APPLICATION)
        assert model.threats(stride=Stride.TAMPERING)
        assert model.threats(stride=Stride.SPOOFING) == []

    def test_unknown_asset_rejected(self):
        model = ThreatModel()
        with pytest.raises(NotFoundError):
            model.add_threat(Threat("X1", "t", Layer.APPLICATION,
                                    stride=(), description="", assets=("ghost",)))

    def test_missing_lookups(self):
        model = ThreatModel()
        with pytest.raises(NotFoundError):
            model.threat("T99")
        with pytest.raises(NotFoundError):
            model.asset("ghost")

    def test_risk_scoring(self):
        low = Threat("A", "a", Layer.APPLICATION, (), "", likelihood=1, impact=1)
        critical = Threat("B", "b", Layer.APPLICATION, (), "",
                          likelihood=4, impact=4)
        assert low.risk_level is RiskLevel.LOW
        assert critical.risk_level is RiskLevel.CRITICAL
        assert critical.risk_score == 16

    def test_one_ladder_for_inherent_and_residual_scores(self):
        bands = [(3.99, RiskLevel.LOW), (4, RiskLevel.MEDIUM),
                 (7.99, RiskLevel.MEDIUM), (8, RiskLevel.HIGH),
                 (11.99, RiskLevel.HIGH), (12, RiskLevel.CRITICAL)]
        assert [RiskLevel.for_score(score) for score, _ in bands] == [
            level for _, level in bands]

    def test_ranked_by_risk_deterministic(self):
        model = build_genio_threat_model()
        ranked = model.ranked_by_risk()
        scores = [t.risk_score for t in ranked]
        assert scores == sorted(scores, reverse=True)


class TestGenioCatalog:
    def test_eight_threats_and_eighteen_mitigations(self):
        assert len(GENIO_THREATS) == 8
        assert len(GENIO_MITIGATIONS) == 18
        assert [t.threat_id for t in GENIO_THREATS] == [f"T{i}" for i in range(1, 9)]
        assert [m.mitigation_id for m in GENIO_MITIGATIONS] == [
            f"M{i}" for i in range(1, 19)]

    def test_every_threat_is_mitigated(self):
        assert build_genio_threat_model().unmitigated() == []

    def test_every_mitigation_references_a_real_threat(self):
        threat_ids = {t.threat_id for t in GENIO_THREATS}
        for mitigation in GENIO_MITIGATIONS:
            assert set(mitigation.threat_ids) <= threat_ids

    def test_mitigation_links_are_bidirectional(self):
        by_id = mitigations_by_id()
        for threat in GENIO_THREATS:
            for mitigation_id in threat.mitigation_ids:
                assert threat.threat_id in by_id[mitigation_id].threat_ids

    def test_every_mitigation_module_imports(self):
        import importlib
        for mitigation in GENIO_MITIGATIONS:
            importlib.import_module(mitigation.module)

    def test_layers_cover_the_three_paper_levels(self):
        model = build_genio_threat_model()
        for layer in Layer:
            assert model.threats(layer=layer), f"no threats at {layer}"
            assert model.assets(layer=layer), f"no assets at {layer}"

    def test_threats_against_asset(self):
        model = build_genio_threat_model()
        kube_threats = {t.threat_id for t in model.threats_against("Kubernetes")}
        assert {"T5", "T6"} <= kube_threats

    def test_stride_coverage_nonzero_for_core_categories(self):
        coverage = build_genio_threat_model().stride_coverage()
        assert coverage[Stride.ELEVATION_OF_PRIVILEGE] >= 4
        assert coverage[Stride.TAMPERING] >= 4


class TestFigure3Matrix:
    def test_matrix_rows_cover_all_pairs(self):
        rows = coverage_matrix()
        pairs = {(r.threat_id, r.mitigation_id) for r in rows}
        expected = {(t.threat_id, m) for t in GENIO_THREATS
                    for m in t.mitigation_ids}
        assert pairs == expected

    def test_rendered_matrix_mentions_key_tools(self):
        rendered = render_matrix()
        for tool in ("OpenSCAP", "MACsec", "Tripwire", "kube-bench",
                     "Trivy", "Falco", "KubeArmor"):
            assert tool in rendered

    def test_tools_per_layer_structure(self):
        per_layer = tools_per_layer()
        assert set(per_layer) == {"Infrastructure", "Middleware", "Application"}
        assert "ONIE" in per_layer["Infrastructure"]
        assert "kube-hunter" in per_layer["Middleware"]
        assert "CATS" in per_layer["Application"]
