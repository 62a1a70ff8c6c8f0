"""The multi-OLT fleet: tenant specs, fleet-normalized abuse detection
through the shard pool, and the fleet CLI subcommand."""

import pytest

from repro.security.comms.keyrotation import KeyRotationService
from repro.traffic.fleet import (
    ParallelFleetDriver, ShardRunner, fleet_shard_configs, fleet_tenant_specs,
)


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

    def test_security_cadence_rides_the_fleet_scheduler(self):
        runner = ShardRunner(fleet_shard_configs(2, 6, seed=3)[0])
        rotation = KeyRotationService(runner.network, period_s=0.1)
        rotation.schedule(runner.scheduler, horizon_s=0.5)
        runner.start(0.5)
        runner.advance(0.5)
        assert len(rotation.history) == 5


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
