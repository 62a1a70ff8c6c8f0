"""Tests for the parallel fleet path: shard configs, pool, merge, CLI.

The load-bearing property is worker-count invariance: a shard's entire
event stream is a function of its :class:`ShardConfig` alone, so the
rendered fleet report must be byte-identical no matter how many worker
processes host the shards.
"""

import multiprocessing as mp
import os
import pickle
import subprocess
import sys

import pytest

import repro

from repro.__main__ import main
from repro.common import telemetry
from repro.traffic.fleet import (
    CycleResult, ParallelFleetDriver, ShardConfig, ShardPool,
    ShardRunner, fleet_shard_configs, run_fleet_parallel,
)


@pytest.fixture(autouse=True)
def _fresh_defaults():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


class TestShardConfigs:
    def test_split_matches_the_legacy_driver(self):
        configs = fleet_shard_configs(4, 10)
        assert [len(c.specs) for c in configs] == [3, 3, 2, 2]

    def test_hostile_only_on_the_first_shard(self):
        profiles = [[s.profile for s in c.specs]
                    for c in fleet_shard_configs(3, 9, hostile=True)]
        assert profiles[0][-1] == "hostile"
        assert all("hostile" not in shard for shard in profiles[1:])

    def test_no_hostile_anywhere_when_disabled(self):
        for config in fleet_shard_configs(3, 9, hostile=False):
            assert all(s.profile != "hostile" for s in config.specs)

    def test_validation(self):
        with pytest.raises(ValueError):
            fleet_shard_configs(0, 5)
        with pytest.raises(ValueError):
            fleet_shard_configs(4, 2)
        for kwargs in ({"cycle_s": 0}, {"cycle_s": -0.02}, {"rate_bps": 0},
                       {"rate_bps": -1e6}):
            with pytest.raises(ValueError, match="must be positive"):
                fleet_shard_configs(2, 4, **kwargs)

    def test_split_beyond_the_splitter_is_refused(self):
        assert [len(c.specs) for c in fleet_shard_configs(2, 128)] == [64, 64]
        with pytest.raises(ValueError, match="1:64 splitters"):
            fleet_shard_configs(2, 129)

    def test_configs_are_picklable(self):
        configs = fleet_shard_configs(2, 4, seed=3)
        assert pickle.loads(pickle.dumps(configs)) == configs


class TestShardRunner:
    def test_advance_returns_captured_events_in_order(self):
        runner = ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        runner.start(0.1)
        result = runner.advance(0.1)
        assert isinstance(result, CycleResult)
        assert result.events
        assert [row[0] for row in result.events] \
            == sorted(row[0] for row in result.events)
        assert all(row[0] <= 0.1 for row in result.events)
        assert sum(result.offered.values()) > 0
        assert result.events_fired > 0

    def test_successive_advances_do_not_replay_events(self):
        runner = ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        runner.start(0.2)
        first = runner.advance(0.1)
        second = runner.advance(0.2)
        assert first.events and second.events
        assert max(row[0] for row in first.events) <= 0.1 \
            < min(row[0] for row in second.events)

    def test_advance_drains_the_bus_history(self):
        runner = ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        assert list(runner.bus.history()) == []
        runner.start(0.2)
        first = runner.advance(0.1)
        assert list(runner.bus.history()) == []
        # ONU activations happen while the shard is built: never forwarded.
        assert first.events
        assert not any(row[1] == "pon.activation" for row in first.events)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_the_telemetry_switch_as_it_found_it(self, enabled):
        telemetry.set_telemetry_enabled(enabled)
        ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        assert telemetry.telemetry_enabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_switch_restored_when_construction_raises(self, enabled):
        telemetry.set_telemetry_enabled(enabled)
        config = ShardConfig(index=1, name="olt-1",
                             specs=fleet_shard_configs(1, 2)[0].specs,
                             cycle_s=0, seed=0)
        with pytest.raises(ValueError, match="cycle"):
            ShardRunner(config)
        assert telemetry.telemetry_enabled() is enabled

    def test_same_config_same_stream(self):
        config = fleet_shard_configs(2, 6, seed=9)[1]
        streams = []
        for _ in range(2):
            runner = ShardRunner(config)
            runner.start(0.1)
            streams.append(runner.advance(0.1).events)
        assert streams[0] == streams[1]


class TestShardPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPool([], workers=1)
        with pytest.raises(ValueError):
            ShardPool(fleet_shard_configs(1, 2), workers=0)

    def test_workers_clamped_to_shard_count(self):
        pool = ShardPool(fleet_shard_configs(1, 2), workers=8)
        assert pool.workers == 1         # one shard -> in-process fallback
        assert pool._local
        pool.close()

    def test_in_process_pool_runs_without_multiprocessing(self):
        pool = ShardPool(fleet_shard_configs(2, 4, seed=2), workers=1)
        assert not pool._procs
        n_cycles = pool.start(0.1)
        assert n_cycles == 5
        results = pool.advance(0.1)
        assert [r.shard_index for r in results] == [1, 2]
        reports = pool.reports()
        assert list(reports) == ["olt-1", "olt-2"]
        pool.close()


class TestParallelDriver:
    def test_workers_do_not_change_the_rendered_report(self):
        kwargs = dict(n_olts=2, n_tenants=6, seconds=0.3, seed=5)
        single = run_fleet_parallel(workers=1, **kwargs).render()
        multi = run_fleet_parallel(workers=2, **kwargs).render()
        assert single == multi

    def test_downstream_run_is_worker_invariant_too(self):
        # The downstream cycle runs inside each shard; its per-tenant
        # profiles are string-seeded, so the full bidirectional report
        # must stay byte-identical across worker counts.
        kwargs = dict(n_olts=2, n_tenants=6, seconds=0.3, seed=5,
                      downstream=True)
        single = run_fleet_parallel(workers=1, **kwargs).render()
        multi = run_fleet_parallel(workers=2, **kwargs).render()
        assert single == multi
        assert "dn Mbps" in single
        assert "fleet downstream throughput:" in single

    def test_merged_events_land_on_the_parent_bus_in_time_order(self):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=0)
        try:
            report = driver.run(0.2)
        finally:
            driver.pool.close()
        timestamps = [e.timestamp for e in driver.bus.history()]
        assert timestamps == sorted(timestamps)
        assert any(e.topic == "pon.dba.grant"
                   for e in driver.bus.history())
        assert report.scheduler_events > 0
        assert report.monitor_passes == 2

    def test_process_registry_does_not_depend_on_workers(self):
        kwargs = dict(n_olts=2, n_tenants=6, seconds=0.3, seed=5)
        snapshots = []
        for workers in (1, 2):
            telemetry.reset_default_registry()
            run_fleet_parallel(workers=workers, **kwargs)
            snapshots.append(telemetry.default_registry().snapshot())
        assert snapshots[0] == snapshots[1]
        assert "bus_events_total" in snapshots[0]     # the parent bus
        assert "pon_frames_total" not in snapshots[0]  # no shard series

    def test_hostile_flagged_through_the_merged_bus(self):
        report = run_fleet_parallel(n_olts=2, n_tenants=6, seconds=0.5,
                                    seed=0, workers=1)
        assert report.hostile_tenants == ["olt1-tenant-hostile"]
        latency = report.alert_latency_s("olt1-tenant-hostile")
        assert latency is not None and 0 < latency <= 0.5
        benign = {tenant for olt in report.olts.values()
                  for tenant in olt.tenants} - set(report.hostile_tenants)
        assert not benign & set(report.alert_first_at)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=0)
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=4, n_tenants=2)
        with pytest.raises(ValueError):
            ParallelFleetDriver(monitor_interval_s=0)
        driver = ParallelFleetDriver(n_olts=1, n_tenants=2)
        try:
            with pytest.raises(ValueError):
                driver.run(0)
        finally:
            driver.pool.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_run_is_refused_before_touching_the_pool(self, workers):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=0,
                                     workers=workers)
        try:
            first = driver.run(0.2)
            with pytest.raises(RuntimeError, match="already run"):
                driver.run(0.2)
            # The pool is still healthy: the first run's reports stand.
            assert driver.pool.reports() == first.olts
        finally:
            driver.pool.close()


    @pytest.mark.parametrize("workers", [1, 2])
    def test_overfull_olt_refused_before_any_worker_spawns(self, workers):
        before = set(mp.active_children())
        with pytest.raises(ValueError, match="splitters"):
            ParallelFleetDriver(n_olts=2, n_tenants=130, workers=workers)
        assert set(mp.active_children()) <= before

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("field", ["cycle_s", "rate_bps"])
    def test_non_positive_cycle_or_rate_refused_before_any_worker_spawns(
            self, field, workers):
        before = set(mp.active_children())
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ParallelFleetDriver(n_olts=2, n_tenants=4, workers=workers,
                                **{field: 0})
        assert set(mp.active_children()) <= before


class TestFleetWorkersCli:
    def test_workers_flag_accepted(self, capsys):
        assert main(["fleet", "--olts", "2", "--tenants", "4",
                     "--seconds", "0.2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet run: 2 OLTs x 4 tenants" in out
        assert "Jain across OLTs" in out

    def test_invalid_workers_exit_2(self, capsys):
        assert main(["fleet", "--workers", "0"]) == 2
        assert "error: --workers" in capsys.readouterr().err

    def test_more_tenants_than_the_splitters_hold_exit_2(self, capsys):
        assert main(["fleet", "--olts", "1", "--tenants", "65"]) == 2
        assert main(["fleet", "--olts", "2", "--tenants", "130",
                     "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: --tenants must be at most 64 x --olts") == 2


class TestShardWorkerImports:
    """A spawned shard worker imports only the fleet's own stack."""

    def test_fleet_import_leaves_the_security_pipeline_unloaded(self):
        probe = ("import sys, repro.traffic.fleet; "
                 "print(sorted(m for m in sys.modules if "
                 "m.startswith(('repro.platform', 'repro.security.pipeline'))))")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout
        assert out.strip() == "[]"

    def test_lazy_top_level_names_resolve(self):
        from repro import (  # noqa: F401
            GenioDeployment, SecurityPipeline, SecurityPosture,
            build_genio_deployment,
        )
        from repro.platform.genio import GenioDeployment as genio_class
        assert GenioDeployment is genio_class
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
