"""Unit tests for M16 malware scanning, M17 sandboxing, M18 monitoring."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QuarantineError
from repro.common.events import Event, EventBus
from repro.platform.workloads import (
    malicious_miner_image, ml_inference_image, vulnerable_webapp_image,
)
from repro.security.malware import (
    YaraRule, YaraScanner, default_ruleset, make_admission_hook,
)
from repro.security.monitor import (
    FalcoEngine, FalcoRule, Priority, ResourceAbuseDetector, compile_rule,
    default_rules,
)
from repro.security.sandbox import (
    KubeArmorPolicy, PolicyAction, TenancyConfig, default_tenant_policy,
    install_policy, peach_score,
)
from repro.security.sandbox.peach import genio_hard_isolation, genio_soft_isolation
from repro.virt.container import ContainerSpec, ResourceLimits
from repro.virt.runtime import ContainerRuntime


class TestYara:
    def test_rule_conditions(self):
        any_rule = YaraRule("r", strings=(b"a", b"b"), condition="any")
        all_rule = YaraRule("r", strings=(b"a", b"b"), condition="all")
        threshold = YaraRule("r", strings=(b"a", b"b", b"c"), condition=2)
        assert any_rule.matches(b"xxaxx")
        assert not all_rule.matches(b"xxaxx")
        assert all_rule.matches(b"ab")
        assert threshold.matches(b"a..b")
        assert not threshold.matches(b"a only")

    def test_miner_image_detected(self):
        report = YaraScanner().scan_image(malicious_miner_image())
        assert not report.clean
        fired = report.rules_fired()
        assert "cryptominer" in fired
        assert "reverse_shell" in fired
        assert "obfuscated_loader" in fired

    def test_clean_image_passes(self):
        assert YaraScanner().scan_image(ml_inference_image()).clean

    def test_vulnerable_but_not_malicious_passes(self):
        # T7 apps are buggy, not malware: signatures must not fire.
        assert YaraScanner().scan_image(vulnerable_webapp_image()).clean

    def test_admission_hook_quarantines(self):
        runtime = ContainerRuntime("node")
        runtime.add_admission_hook(make_admission_hook())
        runtime.run(ContainerSpec(image=ml_inference_image()))
        with pytest.raises(QuarantineError) as excinfo:
            runtime.run(ContainerSpec(image=malicious_miner_image()))
        assert "cryptominer" in str(excinfo.value)


class TestKubeArmorPolicies:
    @pytest.fixture
    def runtime(self):
        runtime = ContainerRuntime("node")
        install_policy(runtime, default_tenant_policy("tenant-*"))
        return runtime

    def test_policy_blocks_shell_exec(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        record = runtime.syscall(container.id, "execve", path="/bin/sh")
        assert not record.allowed
        assert "process /bin/sh blocked" in record.blocked_by

    def test_policy_blocks_docker_socket(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        record = runtime.syscall(container.id, "open",
                                 path="/var/run/docker.sock", mode="r")
        assert not record.allowed

    def test_readonly_paths_allow_reads_block_writes(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        read = runtime.syscall(container.id, "open", path="/etc/hosts", mode="r")
        write = runtime.syscall(container.id, "open", path="/etc/hosts", mode="w")
        assert read.allowed and not write.allowed

    def test_network_allowlist(self, runtime):
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        internal = runtime.syscall(container.id, "connect", dst="10.1.2.3")
        external = runtime.syscall(container.id, "connect",
                                   dst="pool.evil.example:3333")
        assert internal.allowed and not external.allowed

    def test_selector_scopes_policy(self, runtime):
        platform_ctr = runtime.run(ContainerSpec(image=ml_inference_image(),
                                                 tenant="platform"))
        record = runtime.syscall(platform_ctr.id, "execve", path="/bin/sh")
        assert record.allowed   # policy selects tenant-*, not platform

    def test_audit_mode_observes_without_blocking(self):
        runtime = ContainerRuntime("node")
        policy = default_tenant_policy("tenant-*")
        policy.action = PolicyAction.AUDIT
        install_policy(runtime, policy)
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        assert runtime.syscall(container.id, "execve", path="/bin/sh").allowed


class TestPeach:
    def test_hard_isolation_beats_soft(self):
        hard = peach_score(genio_hard_isolation())
        soft = peach_score(genio_soft_isolation(hardened=True))
        stock = peach_score(genio_soft_isolation(hardened=False))
        assert hard.overall > soft.overall > stock.overall
        assert hard.verdict == "adequate isolation"
        assert stock.verdict == "insufficient isolation for multi-tenancy"

    def test_dimensions_present(self):
        assessment = peach_score(genio_hard_isolation())
        assert set(assessment.dimension_scores) == {
            "privilege", "encryption", "authentication", "connectivity",
            "hygiene"}

    def test_findings_explain_score(self):
        stock = peach_score(genio_soft_isolation(hardened=False))
        assert any("seccomp" in f for f in stock.findings)
        assert any("flat network" in f for f in stock.findings)

    def test_privileged_workloads_tank_privilege_score(self):
        config = genio_hard_isolation()
        config.runs_privileged_workloads = True
        assessment = peach_score(config)
        assert assessment.dimension_scores["privilege"] <= 0.5


class TestFalco:
    @pytest.fixture
    def monitored_runtime(self):
        runtime = ContainerRuntime("node")
        engine = FalcoEngine()
        engine.attach(runtime.bus)
        return runtime, engine

    def test_shell_detection(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 1

    def test_miner_and_outbound_detection(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "execve", path="/opt/.hidden/xmrig")
        runtime.syscall(container.id, "connect", dst="pool.evil.example:3333")
        fired = engine.alerts_by_rule()
        assert fired.get("cryptominer_exec") == 1
        assert fired.get("unexpected_outbound") == 1

    def test_monitoring_observes_blocked_and_allowed(self, monitored_runtime):
        """Falco sees attempts even when the LSM layer blocks them."""
        runtime, engine = monitored_runtime
        install_policy(runtime, default_tenant_policy())
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        record = runtime.syscall(container.id, "mount",
                                 path="/sys/fs/cgroup", mode="rw")
        assert not record.allowed                       # M17 blocked it
        assert engine.alerts_by_rule().get("privileged_syscall_attempt") == 1

    def test_tuning_exceptions_reduce_false_positives(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="ops-debug"))
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 1
        engine.rule("shell_in_container").add_exception(
            {"field": "tenant", "equals": "ops-debug"})
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 1  # no new
        other = runtime.run(ContainerSpec(image=ml_inference_image(),
                                          tenant="tenant-a"))
        runtime.syscall(other.id, "execve", path="/bin/sh")
        assert engine.alerts_by_rule().get("shell_in_container") == 2

    def test_priority_filtering(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "execve", path="/bin/sh")     # WARNING
        runtime.syscall(container.id, "open", path="/etc/shadow")   # CRITICAL
        critical = engine.alerts_at_least(Priority.CRITICAL)
        assert len(critical) == 1
        assert critical[0].rule == "sensitive_file_read"

    def test_overhead_counters(self, monitored_runtime):
        runtime, engine = monitored_runtime
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        for _ in range(100):
            runtime.syscall(container.id, "read", path="/data/file")
        assert engine.events_processed >= 100
        assert engine.overhead_estimate() > 0

    def test_detach_stops_processing(self, monitored_runtime):
        runtime, engine = monitored_runtime
        engine.detach()
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "execve", path="/bin/sh")
        assert engine.alerts == []

    def test_double_attach_rejected(self, monitored_runtime):
        runtime, engine = monitored_runtime
        with pytest.raises(ValueError):
            engine.attach(runtime.bus)


# Topics chosen so prefixes nest ("host" / "host.file" / "host.file.write")
# and near-miss ("runtime.syscall" vs "runtime.syscallx").
_TOPICS = ("runtime", "runtime.syscall", "runtime.syscallx", "host",
           "host.file", "host.file.write", "pon.frame", "qos.drop")
# Event values: small numbers, and strings a broken rule cannot compare.
_VALUES = st.one_of(st.integers(min_value=0, max_value=20),
                    st.sampled_from(["a", "b"]))


def _generated_rule(index, topics, modulus, broken):
    """Fires on the multiples of ``modulus``; a broken rule also compares
    every other value with a number, which raises on a string value."""
    multiple = {"field": "value", "in": list(range(0, 21, modulus))}
    condition = ({"any": [multiple, {"field": "value", "gt": 20}]}
                 if broken else multiple)
    return FalcoRule(name=f"rule-{index}", description="generated",
                     topics=tuple(topics), condition=condition)


def _reference_scan(rules, events):
    """Every rule's applies_to on every event: the unindexed semantics."""
    alerts, evaluations, errors = [], 0, {}
    for event in events:
        for rule in rules:
            if not rule.applies_to(event.topic):
                continue
            evaluations += 1
            try:
                fired = rule.evaluate(event)
            except TypeError:
                errors[rule.name] = errors.get(rule.name, 0) + 1
                continue
            if fired:
                alerts.append((rule.name, event.timestamp))
    return alerts, evaluations, errors


class TestFalcoRulePlan:
    """Topic-indexed dispatch must match scanning every rule."""

    @given(
        rule_specs=st.lists(st.tuples(
            st.lists(st.sampled_from(_TOPICS), min_size=1, max_size=3),
            st.integers(min_value=1, max_value=4),
            st.booleans()), max_size=6),
        event_specs=st.lists(st.tuples(st.sampled_from(_TOPICS), _VALUES),
                             max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_plan_matches_reference_scan(self, rule_specs, event_specs):
        rules = [_generated_rule(i, *spec) for i, spec in enumerate(rule_specs)]
        events = [Event(topic=topic, source="src", timestamp=float(i),
                        payload={"value": value})
                  for i, (topic, value) in enumerate(event_specs)]
        bus = EventBus()
        engine = FalcoEngine(rules=rules)
        engine.attach(bus)
        for event in events:
            bus.publish(event)
        alerts, evaluations, errors = _reference_scan(rules, events)
        assert [(a.rule, a.timestamp) for a in engine.alerts] == alerts
        assert engine.rule_evaluations == evaluations
        assert engine.rule_errors == errors
        assert engine.events_processed == len(events)

    def test_replacing_rules_takes_effect_on_the_next_event(self):
        bus = EventBus()
        engine = FalcoEngine()
        engine.attach(bus)
        bus.emit("runtime.syscall", "c1", 1.0, syscall="execve", path="/bin/sh")
        assert engine.alerts_by_rule() == {"shell_in_container": 1}
        engine.rules = [FalcoRule(
            name="any_pon_frame", description="d", topics=("pon",),
            condition={"all": []})]
        assert isinstance(engine.rules, tuple)
        bus.emit("runtime.syscall", "c1", 2.0, syscall="execve", path="/bin/sh")
        bus.emit("pon.frame", "olt", 3.0)
        assert engine.alerts_by_rule() == {"shell_in_container": 1,
                                           "any_pon_frame": 1}

    def test_records_only_rule_topics_and_counts_everything(self):
        bus = EventBus()
        rules = [FalcoRule(name=f"r{i}", description="d", topics=topics,
                           condition={"any": []})
                 for i, topics in enumerate([("host",), ("host.file",),
                                             ("kube.audit", "host")])]
        engine = FalcoEngine(rules=rules)
        engine.attach(bus)
        # "host.file" lies under "host": one subscription delivers both.
        assert bus.interest() == ("host", "kube.audit")
        bus.emit("host.file", "h", 0.0)
        assert engine.rule_evaluations == 3 and engine.alerts == []
        bus.publish_tally({"pon.upstream": 5, "monitor.stats": 2})
        assert engine.events_processed == 6
        engine.rules = [FalcoRule(name="up", description="d",
                                  topics=("pon.upstream",),
                                  condition={"any": []})]
        assert bus.interest() == ("pon.upstream",)
        engine.detach()
        assert bus.interest() == ()
        bus.publish_tally({"pon.upstream": 1})
        assert engine.events_processed == 6

    def test_catch_all_rule_evaluates_every_event(self):
        """A rule on topic ``""`` subscribes to everything, so it must
        also evaluate everything, as the bus's topic matching says."""
        rule = compile_rule({"rule": "any_write", "desc": "d",
                             "topics": [""], "priority": "NOTICE",
                             "condition": {"field": "path",
                                           "startswith": "/etc/"}})
        bus = EventBus()
        engine = FalcoEngine(rules=[rule])
        engine.attach(bus)
        assert bus.interest() == ("",)
        bus.emit("host.file", "h", 0.0, path="/etc/passwd")
        assert engine.rule_evaluations == 1
        assert engine.alerts_by_rule() == {"any_write": 1}

    def test_rules_are_frozen_but_tunable(self):
        rule = default_rules()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.topics = ("pon",)
        shell = Event("runtime.syscall", "c1", 0.0,
                      {"syscall": "execve", "path": "/bin/sh"})
        assert rule.evaluate(shell)
        rule.add_exception({"all": []})
        assert len(rule.exceptions) == 1
        assert not rule.evaluate(shell)


class TestResourceAbuseDetection:
    def test_greedy_container_flagged_and_evicted(self):
        runtime = ContainerRuntime("node", cpu_capacity=8.0,
                                   memory_capacity_mb=16384)
        greedy = runtime.run(ContainerSpec(image=ml_inference_image(),
                                           tenant="tenant-greedy"))
        victim = runtime.run(ContainerSpec(image=ml_inference_image(),
                                           tenant="tenant-victim",
                                           limits=ResourceLimits(
                                               cpu_shares=1024, memory_mb=512)))
        runtime.consume(greedy.id, cpu=7.0, memory_mb=14000)
        runtime.consume(victim.id, cpu=0.5, memory_mb=256)

        detector = ResourceAbuseDetector(runtime, tolerance=1.5)
        findings = detector.sample()
        assert [f.tenant for f in findings] == ["tenant-greedy"]
        evicted = detector.evict_offenders()
        assert greedy.id in evicted
        assert not greedy.running and victim.running

    def test_fair_usage_not_flagged(self):
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        a = runtime.run(ContainerSpec(image=ml_inference_image()))
        b = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.consume(a.id, cpu=2.0)
        runtime.consume(b.id, cpu=2.0)
        assert ResourceAbuseDetector(runtime, tolerance=1.5).sample() == []

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            ResourceAbuseDetector(ContainerRuntime("n"), tolerance=0.5)
        with pytest.raises(ValueError):
            ResourceAbuseDetector(ContainerRuntime("n"), absolute_cap=0.0)

    def test_single_container_saturation_flagged(self):
        # Regression: with one running container there are no peers to
        # define fair share, so the relative rule can never fire — the
        # absolute cap must catch a lone tenant saturating the node.
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        lone = runtime.run(ContainerSpec(image=ml_inference_image(),
                                         tenant="tenant-lone"))
        runtime.consume(lone.id, cpu=7.6)   # 95% of the node
        findings = ResourceAbuseDetector(runtime).sample()
        assert [f.tenant for f in findings] == ["tenant-lone"]
        assert "absolute cap" in findings[0].detail

    def test_single_container_below_cap_not_flagged(self):
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        lone = runtime.run(ContainerSpec(image=ml_inference_image(),
                                         tenant="tenant-lone"))
        runtime.consume(lone.id, cpu=6.0)   # 75%: heavy but unchallenged
        assert ResourceAbuseDetector(runtime).sample() == []
