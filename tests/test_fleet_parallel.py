"""Tests for the parallel fleet path: shard configs, pool, merge, CLI.

The load-bearing property is worker-count invariance: a shard's entire
event stream is a function of its :class:`ShardConfig` alone, so the
rendered fleet report must be byte-identical no matter how many worker
processes host the shards.
"""

import multiprocessing as mp
import os
from collections import Counter
import pickle
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import pytest

import repro

from repro.__main__ import main
from repro.common import telemetry
from repro.security.monitor.falco import FalcoRule
from repro.traffic.fleet import (
    CycleResult, ParallelFleetDriver, ShardConfig, ShardPool,
    ShardRunner, ShardWorkerError, fleet_shard_configs, run_fleet_parallel,
)
from repro.traffic.loadgen import CYCLE_S, TENANT_RATE_BPS

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.fixture(autouse=True)
def _fresh_defaults():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


@pytest.fixture(params=["fork", "spawn"])
def start_method(request):
    """Have multi-worker pools start their workers by ``request.param``.

    The pool forks on Linux when the caller runs one thread; a live
    non-daemon thread is what makes it fall back to spawning.
    """
    if request.param == "fork":
        if not sys.platform.startswith("linux"):
            pytest.skip("shard workers fork only on Linux")
        assert threading.active_count() == 1
        yield "fork"
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield "spawn"
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


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

    @pytest.mark.parametrize("hostile", [True, False])
    def test_every_shard_runs_at_the_fleet_cycle_and_tenant_rate(
            self, hostile):
        configs = fleet_shard_configs(3, 9, hostile=hostile)
        assert {config.cycle_s for config in configs} == {CYCLE_S}
        assert {spec.rate_bps for config in configs
                for spec in config.specs} == {TENANT_RATE_BPS}

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
        assert [event.timestamp for event in result.events] \
            == sorted(event.timestamp for event in result.events)
        assert all(event.timestamp <= 0.1 for event in result.events)
        assert sum(result.offered.values()) > 0
        assert result.events_fired > 0

    def test_successive_advances_do_not_replay_events(self):
        runner = ShardRunner(fleet_shard_configs(1, 3, seed=1)[0])
        runner.start(0.2)
        first = runner.advance(0.1)
        second = runner.advance(0.2)
        assert first.events and second.events
        assert max(event.timestamp for event in first.events) <= 0.1 \
            < min(event.timestamp for event in second.events)

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
        spec = fleet_shard_configs(1, 2)[0].specs[0]
        config = ShardConfig(index=1, name="olt-1", specs=(spec, spec),
                             seed=0)
        with pytest.raises(ValueError, match="tenant names must be unique"):
            ShardRunner(config)
        assert telemetry.telemetry_enabled() is enabled

    @pytest.mark.parametrize("value", [0, -1e6] + NON_FINITE, ids=str)
    def test_bad_tenant_rate_refused_with_the_switch_restored(self, value):
        # A hand-built config can still carry any TenantSpec rate; the
        # shard's generator refuses it before wiring anything.
        telemetry.set_telemetry_enabled(False)
        spec = replace(fleet_shard_configs(1, 2)[0].specs[0], rate_bps=value)
        config = ShardConfig(index=1, name="olt-1", specs=(spec,), seed=0)
        with pytest.raises(ValueError, match="^rate_bps must be positive "
                                             "and finite, got"):
            ShardRunner(config)
        assert telemetry.telemetry_enabled() is False

    def test_same_config_same_stream(self):
        config = fleet_shard_configs(2, 6, seed=9)[1]
        streams = []
        for _ in range(2):
            runner = ShardRunner(config)
            runner.start(0.1)
            streams.append(runner.advance(0.1).events)
        assert streams[0] == streams[1]

    def test_interest_splits_the_stream_into_records_and_counts(self):
        config = fleet_shard_configs(2, 6, seed=9, downstream=True)[1]
        full, lean = ShardRunner(config), ShardRunner(config)
        full.start(0.2)
        lean.start(0.2)
        full_results = [full.advance(0.1), full.advance(0.2)]
        # The interest sticks until the next one is sent.
        lean_results = [lean.advance(0.1, ("pon.upstream",)),
                        lean.advance(0.2)]
        everything = [event for result in full_results
                      for event in result.events]
        assert all(result.tally == {} for result in full_results)
        assert [event for result in lean_results
                for event in result.events] == [
            event for event in everything if event.topic == "pon.upstream"]
        counted = Counter()
        for result in lean_results:
            counted.update(result.tally)
        assert counted == Counter(event.topic for event in everything
                                  if event.topic != "pon.upstream")
        assert counted


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


class TestWorkerStartMethod:
    """Forked and spawned workers are interchangeable but for speed."""

    def test_pool_reports_how_it_started_its_workers(self, start_method):
        with ShardPool(fleet_shard_configs(2, 4), workers=2) as pool:
            assert pool.start_method == start_method
            assert pool.advance(0.0)[1].shard_index == 2

    def test_in_process_pool_has_no_start_method(self):
        with ShardPool(fleet_shard_configs(2, 4), workers=1) as pool:
            assert pool.start_method is None

    def test_start_method_is_read_only(self):
        with ShardPool(fleet_shard_configs(2, 4), workers=1) as pool:
            with pytest.raises(AttributeError):
                pool.start_method = "fork"

    @pytest.mark.parametrize("direction", [[], ["--downstream"]])
    def test_both_paths_print_the_in_process_report(self, direction,
                                                    start_method, capsys):
        argv = ["fleet", "--olts", "4", "--tenants", "12", "--seconds",
                "0.3", "--seed", "3"] + direction
        assert main(argv + ["--workers", "1"]) == 0
        single = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == single
        assert ("dn Mbps" in single) == bool(direction)

    def test_forking_raises_no_warning(self):
        if not sys.platform.startswith("linux"):
            pytest.skip("shard workers fork only on Linux")
        # Python 3.12+ warns (DeprecationWarning) when a process that
        # runs threads forks. The warning is recorded, not made an
        # error: os.fork() swallows a warning that the filters turn
        # into an exception, so "error" would let it pass unseen.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=1,
                                         workers=2)
            try:
                assert driver.pool.start_method == "fork"
                driver.run(0.2)
            finally:
                driver.pool.close()
        assert [str(warning.message) for warning in caught] == []

    def test_a_failed_start_closes_the_workers_already_started(
            self, monkeypatch, start_method):
        started = []
        start = mp.process.BaseProcess.start

        def start_only_the_first(process):
            if started:
                raise OSError("cannot start another worker")
            start(process)
            started.append(process)

        monkeypatch.setattr(mp.process.BaseProcess, "start",
                            start_only_the_first)
        with pytest.raises(OSError, match="cannot start another worker"):
            ShardPool(fleet_shard_configs(4, 8), workers=3)
        assert len(started) == 1
        assert not started[0].is_alive()
        assert started[0].exitcode == 0


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

    @pytest.mark.parametrize("downstream", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_and_shards_agree_on_the_cycle(self, workers,
                                                  downstream):
        # The parent spans the run in CYCLE_S steps; each shard's
        # generator uses its own default cycle. Both must give 15 cycles.
        report = run_fleet_parallel(n_olts=2, n_tenants=4, seconds=0.3,
                                    workers=workers, downstream=downstream)
        assert report.duration_s == 15 * CYCLE_S
        assert [olt.duration_s for olt in report.olts.values()] \
            == [15 * CYCLE_S] * 2

    def test_merged_events_land_on_the_parent_bus_in_time_order(self):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=0)
        driver.bus.subscribe("", lambda event: None)
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

    def test_one_detector_pass_per_boundary_dates_each_alert(self):
        driver = ParallelFleetDriver(n_olts=2, n_tenants=6, seed=0)
        passes = []
        sample_metrics = driver.detector.sample_metrics

        def recorded(now=0.0):
            findings = sample_metrics(now=now)
            passes.append((now, [finding.tenant for finding in findings]))
            return findings
        driver.detector.sample_metrics = recorded
        try:
            report = driver.run(0.5)
        finally:
            driver.pool.close()
        assert len(passes) == report.monitor_passes == 5
        first_flagged = {}
        for now, tenants in passes:
            for tenant in tenants:
                first_flagged.setdefault(tenant, now)
        assert report.alert_first_at == first_flagged
        assert list(first_flagged) == ["olt1-tenant-hostile"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=0)
        with pytest.raises(ValueError):
            ParallelFleetDriver(n_olts=4, n_tenants=2)
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


class TestNonFiniteInputs:
    """NaN and the infinities are refused like non-positive values.

    ``x <= 0`` is false for NaN and +inf, so before these guards NaN or
    inf durations crashed deep in the run with ``ValueError`` /
    ``OverflowError`` from ``int()``.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_run_refuses_a_non_finite_duration(self, value, workers):
        with pytest.raises(ValueError, match="duration must be positive"):
            run_fleet_parallel(n_olts=2, n_tenants=4, seconds=value,
                               workers=workers)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_cli_exits_2(self, value, capsys):
        assert main(["fleet", "--olts", "2", "--tenants", "4",
                     f"--seconds={value}"]) == 2
        assert "error: duration must be positive and finite, got " \
            in capsys.readouterr().err


class TestFleetWorkersCli:
    def test_workers_flag_accepted(self, capsys):
        assert main(["fleet", "--olts", "2", "--tenants", "4",
                     "--seconds", "0.2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet run: 2 OLTs x 4 tenants" in out
        assert "Jain across OLTs" in out

    def test_invalid_workers_exit_2(self, capsys):
        assert main(["fleet", "--workers", "0"]) == 2
        assert "error: need at least one worker" in capsys.readouterr().err

    def test_more_tenants_than_the_splitters_hold_exit_2(self, capsys):
        assert main(["fleet", "--olts", "1", "--tenants", "65"]) == 2
        assert main(["fleet", "--olts", "2", "--tenants", "130",
                     "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("OLT(s) behind 1:64 splitters") == 2


def run_watched_fleet(workers, prepare=None, seconds=0.3):
    """Run a small bidirectional fleet; returns ``(driver, report, stats)``.

    ``stats`` collects the ``monitor.stats`` payloads; ``prepare(driver)``
    runs before :meth:`ParallelFleetDriver.run`.
    """
    driver = ParallelFleetDriver(n_olts=2, n_tenants=4, seed=5,
                                 downstream=True, workers=workers)
    stats = []
    driver.bus.subscribe("monitor.stats",
                         lambda event: stats.append(event.payload))
    if prepare is not None:
        prepare(driver)
    try:
        report = driver.run(seconds)
    finally:
        driver.pool.close()
    return driver, report, stats


def catch_all(driver):
    driver.bus.subscribe("", lambda event: None)


@pytest.mark.parametrize("workers", [1, 2])
class TestSubscriptionPushdown:
    """Shards ship only the topics the parent bus subscribes to and
    count the rest; nothing the parent reads changes."""

    def test_default_run_keeps_no_traffic_events(self, workers):
        driver, _, _ = run_watched_fleet(workers)
        topics = {event.topic for event in driver.bus.history()}
        assert topics and all(topic.startswith("monitor.")
                              for topic in topics)
        assert driver.falco.events_processed > 0

    def test_same_outputs_as_shipping_everything(self, workers):
        lean, lean_report, lean_stats = run_watched_fleet(workers)
        full, full_report, full_stats = run_watched_fleet(workers, catch_all)
        assert lean_report.render() == full_report.render()
        assert lean.falco.events_processed == full.falco.events_processed
        assert lean.falco.rule_evaluations == full.falco.rule_evaluations
        assert lean_stats == full_stats and len(lean_stats) == 3
        assert any(event.topic.startswith("pon.")
                   for event in full.bus.history())

    def test_falco_rule_on_upstream_sees_every_frame(self, workers):
        frames = []

        def watch_upstream(driver):
            driver.falco.rules = driver.falco.rules + (FalcoRule(
                name="upstream_frame", description="every upstream frame",
                topics=("pon.upstream",), condition={"any": []}),)
            driver.bus.subscribe_tally(
                "pon.upstream", lambda topic, count: frames.append(count))

        driver, _, _ = run_watched_fleet(workers, watch_upstream)
        full, _, _ = run_watched_fleet(workers, catch_all)
        upstream = sum(1 for event in full.bus.history()
                       if event.topic == "pon.upstream")
        assert upstream > 0
        assert driver.falco.rule_evaluations == upstream == sum(frames)
        assert "upstream_frame" not in driver.falco.alerts_by_rule()
        assert [event for event in driver.bus.history()
                if event.topic == "pon.upstream"] == [
            event for event in full.bus.history()
            if event.topic == "pon.upstream"]

    def test_subscription_between_boundaries_applies_from_the_next(
            self, workers):
        late = []

        def subscribe_after_first_boundary(driver):
            def on_stats(event):
                if driver.monitor_passes == 1:
                    driver.bus.subscribe("pon.upstream", late.append)
            driver.bus.subscribe("monitor.stats", on_stats)

        # Reference: every upstream event, tagged with the number of
        # monitor passes completed when it was merged.
        tagged = []

        def tag_upstream(driver):
            driver.bus.subscribe("pon.upstream", lambda event: tagged.append(
                (driver.monitor_passes, event)))

        run_watched_fleet(workers, subscribe_after_first_boundary)
        run_watched_fleet(workers, tag_upstream)
        expected = [event for passes, event in tagged if passes >= 1]
        assert expected and len(expected) < len(tagged)
        assert late == expected


class TestDeadWorker:
    """A worker that dies is named, in the library and in the CLI."""

    @staticmethod
    def kill_second_worker(pool):
        pool._procs[1].kill()
        pool._procs[1].join(timeout=10)
        assert not pool._procs[1].is_alive()

    def test_run_raises_naming_the_dead_workers_shards(self, start_method):
        driver = ParallelFleetDriver(n_olts=4, n_tenants=8, seed=0,
                                     workers=2)
        try:
            assert driver.pool.start_method == start_method
            self.kill_second_worker(driver.pool)
            with pytest.raises(ShardWorkerError,
                               match=r"shard\(s\) 2, 4 died") as info:
                driver.run(0.2)
        finally:
            driver.pool.close()
        assert info.value.shard_indices == (2, 4)
        assert info.value.exitcode is not None and info.value.exitcode < 0

    def test_cli_prints_one_line_and_exits_2(self, monkeypatch, capsys,
                                             start_method):
        start = ShardPool.start

        def start_with_a_dead_worker(pool, seconds):
            self.kill_second_worker(pool)
            return start(pool, seconds)

        monkeypatch.setattr(ShardPool, "start", start_with_a_dead_worker)
        assert main(["fleet", "--olts", "4", "--tenants", "8",
                     "--seconds", "0.2", "--workers", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: shard worker hosting shard(s) 2, 4 "
                              "died") and err.count("\n") == 1


class TestShardWorkerImports:
    """A spawned shard worker imports only the fleet's own stack (a
    forked one inherits the parent's modules and imports nothing)."""

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

    def test_shard_module_imports_neither_security_nor_multiprocessing(self):
        probe = ("import sys, repro.traffic.shard; "
                 "print(sorted(m for m in sys.modules if "
                 "m.startswith(('repro.security', 'multiprocessing'))))")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout
        assert out.strip() == "[]"

    def test_fleet_re_exports_the_shard_classes(self):
        from repro.traffic import fleet, shard
        for name in ("ShardConfig", "CycleResult", "ShardRunner", "_apply",
                     "_shard_worker_main"):
            assert getattr(fleet, name) is getattr(shard, name)

    def test_lazy_traffic_names_resolve(self):
        import repro.traffic as traffic
        from repro.traffic.fleet import ParallelFleetDriver as driver_class
        assert traffic.ParallelFleetDriver is driver_class
        for name in traffic.__all__:
            assert getattr(traffic, name) is not None
        assert set(traffic.__all__) <= set(dir(traffic))
        with pytest.raises(AttributeError, match="no_such_name"):
            traffic.no_such_name

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
