"""Tests for the one Falco rule format: condition specs and rule specs."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.events import Event
from repro.platform.workloads import ml_inference_image, vulnerable_webapp_image
from repro.security.monitor import (
    FalcoEngine, FalcoRule, Priority, compile_rule, compile_ruleset,
    default_rules,
)
from repro.security.sandbox import default_tenant_policy, install_policy
from repro.virt.container import ContainerSpec
from repro.virt.runtime import ContainerRuntime
from tests import oracles


# E12's post-exploitation session (benchmarks/test_runtime_security_bench.py).
_BENIGN_OPS = [("read", {"path": "/data/input"}),
               ("write", {"path": "/data/output"}),
               ("connect", {"dst": "10.0.3.7"}),
               ("execve", {"path": "/app/main"})]
_ATTACK_OPS = [("execve", {"path": "/bin/sh"}),
               ("execve", {"path": "/opt/.hidden/xmrig"}),
               ("connect", {"dst": "pool.evil.example:3333"}),
               ("open", {"path": "/etc/shadow"}),
               ("mount", {"path": "/sys/fs/cgroup", "mode": "rw"})]


def event(topic="runtime.syscall", **payload):
    return Event(topic=topic, source="n", timestamp=0.0, payload=payload)


def holds(condition, **payload):
    rule = compile_rule({"rule": "r", "desc": "d",
                         "topics": ["runtime.syscall"],
                         "condition": condition})
    return rule.evaluate(event(**payload))


class TestConditionCompiler:
    def test_leaf_operators(self):
        assert holds({"field": "syscall", "equals": "execve"},
                     syscall="execve")
        assert not holds({"field": "syscall", "equals": "execve"},
                         syscall="open")
        assert holds({"field": "path", "startswith": "/tmp/"}, path="/tmp/x")
        assert not holds({"field": "path", "startswith": "/tmp/"},
                         path="/app/x")
        assert holds({"field": "path", "endswith": ".sh"}, path="/a/b.sh")
        assert not holds({"field": "path", "endswith": ".sh"}, path="/a/b.py")
        assert holds({"field": "dst", "contains": "evil"},
                     dst="pool.evil.example")
        assert not holds({"field": "dst", "contains": "evil"},
                         dst="10.0.0.1")
        assert holds({"field": "syscall", "in": ["a", "b"]}, syscall="b")
        assert not holds({"field": "syscall", "in": ["a", "b"]}, syscall="c")
        assert holds({"field": "count", "gt": 3}, count=5)
        assert not holds({"field": "count", "gt": 3}, count=3)
        assert holds({"field": "count", "lt": 3}, count=1)
        assert not holds({"field": "count", "lt": 3}, count=3)
        assert holds({"field": "path", "exists": True}, path="/x")
        assert not holds({"field": "path", "exists": True})
        assert holds({"field": "path", "exists": False})
        assert not holds({"field": "path", "exists": False}, path="/x")

    def test_missing_field_is_false(self):
        assert not holds({"field": "path", "startswith": "/"})
        assert not holds({"field": "path", "equals": None}, path=None)

    def test_boolean_combinators(self):
        condition = {"all": [
            {"field": "syscall", "equals": "execve"},
            {"not": {"field": "path", "startswith": "/app/"}},
        ]}
        assert holds(condition, syscall="execve", path="/tmp/x")
        assert not holds(condition, syscall="execve", path="/app/main")
        assert not holds(condition, syscall="open", path="/tmp/x")
        any_condition = {"any": [{"field": "a", "equals": 1},
                                 {"field": "b", "equals": 2}]}
        assert holds(any_condition, b=2)
        assert not holds(any_condition, a=9)
        assert holds({"all": []}) and not holds({"any": []})

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            holds({"field": "x"})                          # no operator
        with pytest.raises(ConfigurationError):
            holds({"field": "x", "equals": 1, "in": [1]})
        with pytest.raises(ConfigurationError):
            holds({"equals": 1})                           # no field
        with pytest.raises(ConfigurationError):
            holds({"field": "x", "startwith": "/"})        # typo
        with pytest.raises(ConfigurationError):
            holds({"all": [], "field": "x", "equals": 1})  # mixed forms
        with pytest.raises(ConfigurationError):
            holds({"field": "x", "exists": "yes"})
        with pytest.raises(ConfigurationError):
            holds({"field": "x", "startswith": 5})


class TestRuleCompiler:
    SPEC = {
        "rule": "tmp_exec",
        "desc": "execution from /tmp",
        "priority": "ERROR",
        "topics": ["runtime.syscall"],
        "condition": {"all": [
            {"field": "syscall", "in": ["execve", "execveat"]},
            {"field": "path", "startswith": "/tmp/"}]},
        "exceptions": [{"field": "tenant", "equals": "ops-debug"}],
    }

    def test_compiled_rule_fires_in_engine(self):
        engine = FalcoEngine(rules=compile_ruleset([self.SPEC]))
        runtime = ContainerRuntime("n")
        engine.attach(runtime.bus)
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        runtime.syscall(container.id, "execve", path="/tmp/dropper")
        runtime.syscall(container.id, "execve", path="/app/main")
        assert engine.alerts_by_rule() == {"tmp_exec": 1}
        assert engine.alerts[0].priority is Priority.ERROR

    def test_declarative_exception_suppresses(self):
        engine = FalcoEngine(rules=compile_ruleset([self.SPEC]))
        runtime = ContainerRuntime("n")
        engine.attach(runtime.bus)
        debug = runtime.run(ContainerSpec(image=ml_inference_image(),
                                          tenant="ops-debug"))
        runtime.syscall(debug.id, "execve", path="/tmp/profiler")
        assert engine.alerts == []

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_rule({"rule": "x", "desc": "d", "topics": []})

    def test_bad_priority_rejected(self):
        bad = dict(self.SPEC, priority="PANIC")
        with pytest.raises(ConfigurationError):
            compile_rule(bad)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_ruleset([self.SPEC, dict(self.SPEC)])

    def test_custom_rules_extend_defaults(self):
        engine = FalcoEngine(rules=default_rules()
                             + compile_ruleset([self.SPEC]))
        runtime = ContainerRuntime("n")
        engine.attach(runtime.bus)
        container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                              tenant="tenant-a"))
        runtime.syscall(container.id, "execve", path="/tmp/x")
        runtime.syscall(container.id, "execve", path="/bin/sh")
        fired = engine.alerts_by_rule()
        assert fired["tmp_exec"] == 1 and fired["shell_in_container"] == 1


class TestSpecsFromOutsideAreChecked:
    """Each malformed spec is refused with an error naming the rule."""

    SPEC = TestRuleCompiler.SPEC

    def refused(self, **overrides):
        with pytest.raises(ConfigurationError, match="tmp_exec"):
            compile_rule(dict(self.SPEC, **overrides))

    def test_string_topics_refused(self):
        # A string would become one topic per character.
        self.refused(topics="runtime.syscall")

    def test_empty_topics_refused(self):
        self.refused(topics=[])

    @pytest.mark.parametrize("combinator", ["all", "any"])
    def test_combinator_given_a_dict_refused(self, combinator):
        self.refused(condition={combinator: {"field": "path",
                                             "startswith": "/tmp/"}})

    def test_exceptions_given_a_dict_refused(self):
        self.refused(exceptions={"field": "tenant", "equals": "ops-debug"})

    def test_string_in_refused(self):
        # A string would match its substrings: "exec" in "execve".
        self.refused(condition={"field": "syscall", "in": "execve"})

    def test_unknown_rule_key_refused(self):
        self.refused(exception=[{"field": "tenant", "equals": "ops-debug"}])


class TestRulesAreData:
    def test_default_rules_round_trip_through_pickle(self):
        rules = default_rules()
        copies = pickle.loads(pickle.dumps(rules))
        assert copies == rules
        probes = [event(syscall="execve", path="/bin/sh"),
                  event(syscall="connect", dst="pool.evil.example:3333"),
                  event(syscall="connect", dst=""),
                  event("host.login", success=False),
                  event(syscall="execve", path="/app/main")]
        for rule, copy in zip(rules, copies):
            assert [copy.evaluate(probe) for probe in probes] == [
                rule.evaluate(probe) for probe in probes]

    def test_tuned_rule_round_trips_with_its_exceptions(self):
        rule = compile_rule(TestRuleCompiler.SPEC)
        rule.add_exception({"field": "path", "endswith": ".vetted"})
        copy = pickle.loads(pickle.dumps(rule))
        assert copy.exceptions == rule.exceptions and len(copy.exceptions) == 2
        assert not copy.evaluate(event(syscall="execve", path="/tmp/x.vetted"))
        assert copy.evaluate(event(syscall="execve", path="/tmp/x"))

    def test_engine_from_pickled_rules_matches_on_e12_session(self):
        """E12's post-exploitation session: 200 benign ops, 5 attacks."""
        def run(rules):
            runtime = ContainerRuntime("worker", cpu_capacity=8.0)
            install_policy(runtime, default_tenant_policy("tenant-*"))
            engine = FalcoEngine(rules=rules)
            engine.attach(runtime.bus)
            container = runtime.run(ContainerSpec(
                image=vulnerable_webapp_image(), tenant="tenant-a"))
            rng = random.Random(7)
            for _ in range(200):
                syscall, args = rng.choice(_BENIGN_OPS)
                runtime.syscall(container.id, syscall, **args)
            for syscall, args in _ATTACK_OPS:
                runtime.syscall(container.id, syscall, **args)
            return (engine.alerts, engine.rule_evaluations,
                    engine.rule_errors)

        original = run(default_rules())
        copied = run(pickle.loads(pickle.dumps(default_rules())))
        assert original == copied
        assert sorted({alert.rule for alert in original[0]}) == [
            "cryptominer_exec", "privileged_syscall_attempt",
            "sensitive_file_read", "shell_in_container",
            "unexpected_outbound"]

    def test_direct_construction_validates_too(self):
        with pytest.raises(ConfigurationError, match="adhoc"):
            FalcoRule(name="adhoc", description="d", topics=("host",),
                      condition=lambda e: True)
        with pytest.raises(ConfigurationError, match="adhoc"):
            FalcoRule(name="adhoc", description="d", topics="host",
                      condition={"all": []})


# Payload values the default rules read, edge cases included: a missing
# field, an explicit None, an empty destination and the prefixes,
# members and substrings each rule tests.
_VALUES = {
    "syscall": ["execve", "execveat", "open", "openat", "read", "connect",
                "sendto", "mount", "ptrace", "exec", "write"],
    "path": ["/bin/sh", "/bin/bash", "/bin/shx", "/etc/shadow",
             "/etc/passwd", "/etc/", "/root/.ssh/id_rsa.pub", "/opt/xmrig",
             "/usr/bin/minerd-x", "/app/main", "", "/etc/kubernetes/pki/ca"],
    "dst": ["", "10.0.3.7", "registry.genio.example:5000",
            "pool.evil.example:3333", "100.1.1.1", "1"],
    "op": ["write", "read"],
    "actor": ["root", "www-data", ""],
    "success": [True, False],
    "principal": ["system:anonymous", "alice", "anonymous-bot", ""],
    "verb": ["create", "get", "delete", "patch", "list"],
}
_RULE_TOPICS = ["runtime.syscall", "host.syscall", "host.file",
                "host.login", "kube.audit"]


@st.composite
def _payloads(draw):
    payload = {}
    for name, values in _VALUES.items():
        choice = draw(st.sampled_from(["missing", "none"] + values))
        if choice != "missing":
            payload[name] = None if choice == "none" else choice
    return payload


class TestDefaultRuleSemantics:
    @given(topic=st.sampled_from(_RULE_TOPICS), payload=_payloads())
    @settings(max_examples=400, deadline=None)
    def test_specs_give_the_lambda_verdicts(self, topic, payload):
        probe = event(topic, **payload)
        for rule in default_rules():
            expected = oracles.DEFAULT_RULE_CONDITIONS[rule.name](probe)
            assert rule.evaluate(probe) is expected, rule.name

    def test_every_default_rule_has_a_reference(self):
        assert [rule.name for rule in default_rules()] == list(
            oracles.DEFAULT_RULE_CONDITIONS)

    def test_edge_cases(self):
        rules = {rule.name: rule for rule in default_rules()}
        outbound = rules["unexpected_outbound"]
        assert not outbound.evaluate(event(syscall="connect", dst=""))
        assert not outbound.evaluate(event(syscall="connect"))
        assert outbound.evaluate(event(syscall="connect", dst="1.2.3.4"))
        failed = rules["failed_login"]
        assert failed.evaluate(event("host.login", success=False))
        assert not failed.evaluate(event("host.login", success=True))
        assert not failed.evaluate(event("host.login"))
