"""Robustness tests: broken monitoring rules, splitter capacity, CRA CLI."""

import pytest

from repro.common.errors import CapacityError
from repro.platform.workloads import ml_inference_image
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.security.monitor import FalcoEngine
from repro.security.monitor.falco import FalcoRule, Priority
from repro.virt.container import ContainerSpec
from repro.virt.runtime import ContainerRuntime


class TestBrokenRuleIsolation:
    def test_raising_rule_does_not_break_mediation(self):
        # Compares the string path with a number: raises on every event
        # that carries a path.
        broken = FalcoRule(
            name="operator_typo",
            description="a tuned rule with a bug",
            topics=("runtime.syscall",),
            condition={"field": "path", "gt": 0})
        shell = FalcoRule(
            name="shell",
            description="shell exec",
            topics=("runtime.syscall",),
            condition={"field": "path", "equals": "/bin/sh"},
            priority=Priority.WARNING)
        engine = FalcoEngine(rules=[broken, shell])
        runtime = ContainerRuntime("n")
        engine.attach(runtime.bus)
        container = runtime.run(ContainerSpec(image=ml_inference_image()))

        # Mediation keeps working, the healthy rule still fires...
        record = runtime.syscall(container.id, "execve", path="/bin/sh")
        assert record.allowed is True
        assert engine.alerts_by_rule().get("shell") == 1
        # ...and the broken rule's failures are accounted, not silent.
        assert engine.rule_errors["operator_typo"] >= 1

    def test_rule_errors_do_not_create_alerts(self):
        broken = FalcoRule("b", "d", ("runtime.syscall",),
                           condition={"field": "path", "lt": 0})  # TypeError
        engine = FalcoEngine(rules=[broken])
        runtime = ContainerRuntime("n")
        engine.attach(runtime.bus)
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "read", path="/x")
        assert engine.alerts == []
        assert engine.rule_errors.get("b")

    def test_reset_counters_clears_rule_errors(self):
        broken = FalcoRule("b", "d", ("runtime.syscall",),
                           condition={"field": "path", "gt": 0})  # TypeError
        engine = FalcoEngine(rules=[broken])
        runtime = ContainerRuntime("n")
        engine.attach(runtime.bus)
        container = runtime.run(ContainerSpec(image=ml_inference_image()))
        runtime.syscall(container.id, "read", path="/x")
        assert engine.rule_errors == {"b": 1}
        engine.reset_counters()
        assert (engine.events_processed, engine.rule_evaluations,
                engine.alerts, engine.rule_errors) == (0, 0, [], {})
        runtime.syscall(container.id, "read", path="/y")
        assert engine.rule_errors == {"b": 1}


class TestSplitterCapacity:
    def test_split_ratio_enforced(self):
        network = PonNetwork.build()
        network.olt.ports[0].split_ratio = 3
        for i in range(3):
            network.attach_onu(Onu(f"ONU-{i}"))
        with pytest.raises(CapacityError):
            network.attach_onu(Onu("ONU-overflow"))

    def test_reactivation_does_not_consume_capacity(self):
        network = PonNetwork.build()
        network.olt.ports[0].split_ratio = 1
        onu = Onu("ONU-A")
        network.attach_onu(onu)
        onu.activated = False
        network.olt.activate_onu(0, onu)     # same serial: rejoin is fine
        assert onu.activated

    def test_capacity_rejection_is_logged(self):
        network = PonNetwork.build()
        network.olt.ports[0].split_ratio = 1
        network.attach_onu(Onu("ONU-A"))
        with pytest.raises(CapacityError):
            network.attach_onu(Onu("ONU-B"))
        last = list(network.bus.history("pon.activation", limit=1))[0]
        assert not last.get("accepted") and "splitter" in last.get("reason")


class TestCraCli:
    def test_cra_all(self, capsys):
        from repro.__main__ import main
        assert main(["cra"]) == 0
        out = capsys.readouterr().out
        assert "12/12 satisfied" in out

    def test_cra_none_fails(self, capsys):
        from repro.__main__ import main
        assert main(["cra", "--mitigations", "none"]) == 1
        assert "MISS" in capsys.readouterr().out

    def test_cra_subset(self, capsys):
        from repro.__main__ import main
        exit_code = main(["cra", "--mitigations", "M3,M6"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "[OK  ] CRA-4" in out   # encryption requirement satisfied
