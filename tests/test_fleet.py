"""The multi-OLT fleet: tenant specs, fleet-normalized abuse detection
through the shard pool, warm shards that pickle and resume, and the fleet
CLI subcommand."""

import os
import pickle
import subprocess
import sys

import pytest

import repro

from repro.security.comms.keyrotation import KeyRotationService
from repro.traffic.fleet import (
    ParallelFleetDriver, ShardRunner, fleet_shard_configs, fleet_tenant_specs,
)
from repro.traffic.telemetry import OFFERED_SHARE_GAUGE


def run_small_fleet(seconds, subscribe=(), **overrides):
    """Run a two-OLT in-process fleet; returns ``(driver, report)``.

    ``subscribe`` names topics to hold record subscriptions on from
    before the run, so their shard events reach the bus history.
    """
    defaults = dict(n_olts=2, n_tenants=6, seed=3)
    defaults.update(overrides)
    driver = ParallelFleetDriver(**defaults)
    for topic in subscribe:
        driver.bus.subscribe(topic, lambda event: None)
    try:
        return driver, driver.run(seconds)
    finally:
        driver.pool.close()


class TestFleetTenantSpecs:
    def test_names_are_fleet_unique_and_profiles_rotate(self):
        one = fleet_tenant_specs(1, 4, hostile=False)
        two = fleet_tenant_specs(2, 4, hostile=False)
        names = [s.tenant for s in one + two]
        assert len(set(names)) == len(names)
        serials = [s.serial for s in one + two]
        assert len(set(serials)) == len(serials)
        assert [s.profile for s in one] == ["steady", "bursty", "diurnal",
                                           "steady"]

    def test_hostile_replaces_last_slot(self):
        specs = fleet_tenant_specs(1, 3, hostile=True)
        assert specs[-1].profile == "hostile"
        assert specs[-1].tenant == "olt1-tenant-hostile"
        assert specs[-1].priority == 3

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            fleet_tenant_specs(1, 0, hostile=False)


class TestFleetDriver:
    def test_tenants_split_across_shards_with_remainder_first(self):
        _, report = run_small_fleet(0.1, n_olts=4, n_tenants=10, seed=0)
        counts = [len(report.olts[olt].tenants) for olt in sorted(report.olts)]
        assert counts == [3, 3, 2, 2]

    def test_run_reports_every_shard_concurrently(self):
        driver, report = run_small_fleet(0.2, subscribe=["pon.dba.grant"])
        assert sorted(report.olts) == ["olt-1", "olt-2"]
        for olt_report in report.olts.values():
            assert all(row.throughput_bps > 0
                       for row in olt_report.tenants.values())
        # Both shards' first cycles land on the merged bus at t=0 —
        # concurrent in simulated time, not sequential runs.
        at_zero = {event.source for event in driver.bus.history()
                   if event.timestamp == 0.0
                   and event.topic == "pon.dba.grant"}
        assert at_zero == {"olt-1/dba", "olt-2/dba"}
        assert report.fleet_throughput_bps > 0
        assert 0.0 < report.jain_across_olts() <= 1.0

    def test_no_hostile_means_no_alerts(self):
        _, report = run_small_fleet(0.3, hostile=False)
        assert report.hostile_tenants == []
        assert report.alert_first_at == {}
        assert "NOT flagged" not in report.render()

    def test_same_seed_identical_render(self):
        first = run_small_fleet(0.3, seed=11)[1].render()
        second = run_small_fleet(0.3, seed=11)[1].render()
        assert first == second

    def test_fleet_registry_is_local(self):
        driver, _ = run_small_fleet(0.2)
        # Shares live in the fleet's own registry; the shard generators
        # are built with telemetry disabled.
        assert "traffic_tenant_offered_share" in driver.registry
        for config in driver.configs:
            assert not ShardRunner(config).generator.telemetry.enabled

    def test_offered_shares_are_fleet_wide_fractions(self):
        # The monitor pass writes one offered share per tenant of every
        # OLT through the traffic plane's TrafficTelemetry: the shares
        # sum to one across the fleet and the hostile tenant offers most.
        driver, report = run_small_fleet(0.3)
        gauge = driver.registry.get(OFFERED_SHARE_GAUGE)
        shares = {key[0]: child.value for key, child in gauge.samples.items()}
        assert set(shares) == {spec.tenant for config in driver.configs
                               for spec in config.specs}
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-4)
        assert max(shares, key=shares.get) in report.hostile_tenants

    def test_security_cadence_rides_the_fleet_scheduler(self):
        runner = ShardRunner(fleet_shard_configs(2, 6, seed=3)[0])
        rotation = KeyRotationService(runner.network, period_s=0.1)
        rotation.schedule(runner.scheduler, horizon_s=0.5)
        runner.start(0.5)
        runner.advance(0.5)
        assert len(rotation.history) == 5


# Loads pickled warm shards from stdin, advances each to the horizon and
# pickles back each shard's CycleResult and report.
_RESUME_PROBE = """
import pickle, sys
runners = pickle.loads(sys.stdin.buffer.read())
sys.stdout.buffer.write(pickle.dumps(
    [(runner.advance(2.0), runner.report()) for runner in runners]))
"""


class TestWarmShardPickles:
    """A warm shard is plain data: pickled at a mid-run boundary, the
    copy advances to the horizon exactly as the original does."""

    @staticmethod
    def _warm_shards():
        upstream, bidir = (
            ShardRunner(fleet_shard_configs(1, 8, seed=7,
                                            downstream=downstream)[0])
            for downstream in (False, True))
        for runner in (upstream, bidir):
            runner.start(2.0)
        # The upstream shard narrows what it records at the boundary, so
        # its restored bus must keep recording and tallying the same way.
        upstream.advance(0.5, interest=("pon.dba",))
        bidir.advance(0.5)
        return [upstream, bidir]

    def test_restored_shards_advance_identically(self):
        shards = self._warm_shards()
        restored = pickle.loads(pickle.dumps(shards))
        results = []
        for original, copy in zip(shards, restored):
            expected = original.advance(2.0)
            assert copy.advance(2.0) == expected
            assert copy.report() == original.report()
            assert expected.events_fired == 100
            results.append(expected)
        upstream, bidir = results
        assert {event.topic for event in upstream.events} == {"pon.dba.grant"}
        assert upstream.tally
        assert "pon.downstream.grant" in {event.topic
                                          for event in bidir.events}
        assert not bidir.tally

    @pytest.mark.parametrize("hash_seed", ["1", "77"])
    def test_restore_in_a_child_interpreter_matches(self, hash_seed):
        shards = self._warm_shards()
        blob = pickle.dumps(shards)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        out = subprocess.run([sys.executable, "-c", _RESUME_PROBE],
                             input=blob, env=env, capture_output=True,
                             check=True, timeout=60).stdout
        expected = [(runner.advance(2.0), runner.report())
                    for runner in shards]
        assert pickle.loads(out) == expected


class TestFleetCli:
    def test_fleet_command_prints_fleet_report(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "--olts", "2", "--tenants", "6",
                     "--seconds", "0.3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "fleet run: 2 OLTs x 6 tenants" in out
        assert "olt-1" in out and "olt-2" in out
        assert "Jain across OLTs" in out
        assert "abuse alert for olt1-tenant-hostile" in out

    def test_fleet_command_is_deterministic(self, capsys):
        from repro.__main__ import main
        argv = ["fleet", "--olts", "2", "--tenants", "6",
                "--seconds", "0.3", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_usage_errors_exit_2(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "--olts", "0"]) == 2
        assert main(["fleet", "--olts", "4", "--tenants", "2"]) == 2
        assert main(["fleet", "--seconds", "-1"]) == 2
        assert "error:" in capsys.readouterr().err
