"""Tests for the public SecurityPipeline step registry and its telemetry.

Covers the API-redesign acceptance criteria: ``apply()`` stays
backward compatible, ``skip=``/``only=`` selectors work by step name or
mitigation id, custom steps can be registered/removed, and a full run
leaves one tracing span per registered step plus a non-empty Prometheus
snapshot in the active registry.
"""

import pytest

from repro.common import telemetry
from repro.platform import build_genio_deployment
from repro.security.pipeline import (
    PipelineStep, SecurityPipeline, default_steps,
)

EXPECTED_STEP_NAMES = [
    "M1/M2 hardening",
    "M3/M4 communication security",
    "M5/M6/M7 integrity",
    "M8/M9/M12 vulnerability management",
    "M10/M11 access control & compliance",
    "M13/M14/M15 application security",
    "M16/M17/M18 runtime security",
]


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()


def small_pipeline(**kwargs) -> SecurityPipeline:
    deployment = build_genio_deployment(n_olts=1, onus_per_olt=2)
    return SecurityPipeline(deployment, **kwargs)


class TestRegistryApi:
    def test_default_steps_in_dependency_order(self):
        pipeline = small_pipeline()
        assert pipeline.step_names() == EXPECTED_STEP_NAMES

    def test_lookup_by_name_and_mitigation_id(self):
        pipeline = small_pipeline()
        by_name = pipeline.step("M16/M17/M18 runtime security")
        by_id = pipeline.step("M18")
        assert by_name is by_id
        assert by_name.mitigations == ("M16", "M17", "M18")

    def test_unknown_selector_raises_keyerror(self):
        pipeline = small_pipeline()
        with pytest.raises(KeyError):
            pipeline.step("M99")
        with pytest.raises(KeyError):
            pipeline.apply(skip=["no-such-step"])

    def test_register_step_before_and_after(self):
        pipeline = small_pipeline()
        noop = PipelineStep("custom A", ("X1",), lambda p, s: None)
        pipeline.register_step(noop, before="M1")
        assert pipeline.step_names()[0] == "custom A"
        noop2 = PipelineStep("custom B", ("X2",), lambda p, s: None)
        pipeline.register_step(noop2, after="M18")
        assert pipeline.step_names()[-1] == "custom B"

    def test_register_duplicate_or_both_anchors_rejected(self):
        pipeline = small_pipeline()
        noop = PipelineStep("M1/M2 hardening", ("X",), lambda p, s: None)
        with pytest.raises(ValueError):
            pipeline.register_step(noop)
        fresh = PipelineStep("fresh", ("X",), lambda p, s: None)
        with pytest.raises(ValueError):
            pipeline.register_step(fresh, before="M1", after="M2")

    def test_remove_step(self):
        pipeline = small_pipeline()
        removed = pipeline.remove_step("M13")
        assert removed.name == "M13/M14/M15 application security"
        assert removed.name not in pipeline.step_names()

    def test_skip_and_only_are_exclusive(self):
        pipeline = small_pipeline()
        with pytest.raises(ValueError):
            pipeline.apply(skip=["M1"], only=["M2"])

    def test_default_steps_returns_fresh_list(self):
        first, second = default_steps(), default_steps()
        assert first == second
        first.pop()
        assert len(default_steps()) == len(EXPECTED_STEP_NAMES)


class TestApplyBehaviour:
    def test_backward_compatible_full_apply(self):
        posture = small_pipeline().apply()
        assert posture.steps_completed == EXPECTED_STEP_NAMES
        assert posture.steps_skipped == []
        assert posture.channels is not None
        assert posture.boot is not None
        assert posture.falco is not None
        assert posture.compliance is not None
        assert posture.hardening      # every host hardened

    def test_skip_runtime_security_omits_falco(self):
        """Acceptance criterion: skipping M16/M17/M18 leaves no engine."""
        posture = small_pipeline().apply(
            skip=["M16/M17/M18 runtime security"])
        assert posture.falco is None
        assert posture.steps_skipped == ["M16/M17/M18 runtime security"]
        assert "M16/M17/M18 runtime security" not in posture.steps_completed
        # the other six steps still ran
        assert posture.steps_completed == EXPECTED_STEP_NAMES[:-1]

    def test_skip_by_mitigation_id(self):
        posture = small_pipeline().apply(skip=["M18"])
        assert posture.falco is None

    def test_only_selector(self):
        posture = small_pipeline().apply(only=["M1", "M8"])
        assert posture.steps_completed == [
            "M1/M2 hardening", "M8/M9/M12 vulnerability management"]
        assert len(posture.steps_skipped) == 5
        assert posture.falco is None and posture.channels is None

    def test_custom_step_runs_and_is_timed(self):
        pipeline = small_pipeline()
        seen = []
        pipeline.register_step(
            PipelineStep("audit hook", ("X9",),
                         lambda p, s: seen.append(p.deployment)))
        posture = pipeline.apply(only=["X9"])
        assert seen == [pipeline.deployment]
        assert posture.steps_completed == ["audit hook"]
        durations = telemetry.default_registry().get(
            "pipeline_step_duration_seconds")
        assert list(durations.samples) == [("audit hook",)]


class TestPipelineTelemetry:
    def test_one_duration_sample_per_step(self):
        pipeline = small_pipeline()
        pipeline.apply()
        durations = telemetry.default_registry().get(
            "pipeline_step_duration_seconds")
        assert [key for (key,) in durations.samples] == EXPECTED_STEP_NAMES
        assert all(child.count == 1 and child.sum >= 0
                   for child in durations.samples.values())

    def test_full_run_snapshot_contains_key_series(self):
        """Acceptance criterion: a full run exports the headline metrics."""
        registry = telemetry.default_registry()
        pipeline = small_pipeline()
        posture = pipeline.apply()
        # Drive some syscall traffic through the attached Falco engine so
        # falco_alerts_total has at least one sample.
        host = posture.deployment.all_hosts()[0]
        posture.deployment.bus.emit(
            "host.syscall", host.hostname, 1.0,
            syscall="execve", path="/usr/bin/xmrig", tenant="tenant-evil")
        text = registry.render()
        for series in ("bus_events_total", "pon_frames_total",
                       "pipeline_step_duration_seconds",
                       "falco_alerts_total"):
            assert series in text, f"{series} missing from snapshot"
        assert registry.total("falco_alerts_total") >= 1
        assert registry.total("pipeline_steps_total") == len(
            EXPECTED_STEP_NAMES)

    def test_explicit_metrics_registry_overrides_default(self):
        private = telemetry.MetricsRegistry()
        pipeline = small_pipeline(metrics=private)
        pipeline.apply(only=["M1"])
        assert private.total("pipeline_steps_total") == 1

    def test_disabled_telemetry_still_applies(self):
        telemetry.set_telemetry_enabled(False)
        try:
            posture = small_pipeline().apply(only=["M1"])
        finally:
            telemetry.set_telemetry_enabled(True)
        assert posture.steps_completed == ["M1/M2 hardening"]
        assert "pipeline_steps_total" not in telemetry.default_registry()

    def test_failing_step_counted_as_error(self):
        registry = telemetry.default_registry()

        def boom(pipeline, posture):
            raise RuntimeError("step exploded")

        pipeline = small_pipeline()
        pipeline.register_step(PipelineStep("bad step", ("X0",), boom))
        with pytest.raises(RuntimeError):
            pipeline.apply(only=["X0"])
        counter = registry.get("pipeline_steps_total")
        assert counter.labels(step="bad step", outcome="error").value == 1
        # the duration is still observed despite the exception
        durations = registry.get("pipeline_step_duration_seconds")
        assert durations.labels(step="bad step").count == 1
