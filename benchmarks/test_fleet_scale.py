"""E19 — fleet scale-out through the shard pool.

Two scale claims, measured:

* **fleet concurrency** — N self-contained OLT shards (each with its own
  tenants, DBA, QoS, clock and scheduler) advance in lockstep to every
  monitor boundary; the fleet report aggregates throughput, Jain
  fairness *across OLTs* and abuse-alert latency, and two same-seed runs
  must render byte-identically (the determinism the deterministic
  boundary merge exists to guarantee). Run in-process (``workers=1``);
  E20 covers worker-count invariance and the multi-process speedup;
* **DBA grant cost** — the batched fair-policy grant path against the
  reference progressive filler at 1k T-CONTs, grant() time only. The
  batched path caches the flat weight/priority structure at registration
  and allocates per cycle from immutable snapshots; the target is >= 2x,
  the in-test floor 1.5x so CI jitter cannot flake the suite.
"""

import time

import pytest

from repro.common import telemetry
from repro.traffic.dba import DbaScheduler
from repro.traffic.fleet import run_fleet_parallel
from repro.traffic.profiles import Request

N_OLTS = 4
N_TENANTS = 32       # fleet-wide, split across the OLT shards
SECONDS = 2.0
SEED = 7
HOSTILE = "olt1-tenant-hostile"

N_TCONTS = 1000      # microbench scale: the 1k-tenant DBA cycle
N_CYCLES = 200
CAPACITY = 3_110_000  # one 125us GPON cycle's worth at 2.5G, scaled up


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


def test_fleet_scale_concurrent_olts(benchmark, report, bench_record):
    def run_fleet():
        start = time.perf_counter()
        fleet = run_fleet_parallel(n_olts=N_OLTS, n_tenants=N_TENANTS,
                                   seconds=SECONDS, seed=SEED, workers=1)
        elapsed = time.perf_counter() - start
        rerun = run_fleet_parallel(n_olts=N_OLTS, n_tenants=N_TENANTS,
                                   seconds=SECONDS, seed=SEED, workers=1)
        return fleet, rerun, elapsed

    fleet, rerun, elapsed = benchmark.pedantic(run_fleet, rounds=1,
                                               iterations=1)
    bench_record("E19", "fleet_run_wall_clock", round(elapsed, 3), "s",
                 seed=SEED)

    latency = fleet.alert_latency_s(HOSTILE)
    lines = [
        f"E19 — fleet scale-out: {N_OLTS} OLTs x {N_TENANTS} tenants, "
        f"{SECONDS:g}s simulated, seed {SEED}",
        "",
        fleet.render(),
        "",
        f"determinism: same-seed rerun renders "
        f"{'IDENTICAL' if rerun.render() == fleet.render() else 'DIFFERENT'}",
        f"scheduler events: {fleet.scheduler_events} across the shards "
        f"({fleet.monitor_passes} fleet monitor passes)",
        "",
        "reading: every shard advances to each monitor boundary and its "
        "events merge onto the fleet bus in (timestamp, shard, seq) "
        "order, so per-OLT DBA cycles interleave deterministically; "
        "fleet-normalized share gauges let the abuse detector flag the "
        f"one flooder in {latency:g}s with zero false positives across "
        f"{N_TENANTS - 1} benign tenants.",
    ]
    report("E19_fleet_scale", "\n".join(lines))

    assert rerun.render() == fleet.render()
    assert len(fleet.olts) == N_OLTS
    assert sum(len(r.tenants) for r in fleet.olts.values()) == N_TENANTS
    assert fleet.fleet_throughput_bps > 0
    assert fleet.jain_across_olts() >= 0.9
    assert fleet.hostile_tenants == [HOSTILE]
    assert latency is not None and latency <= 0.5
    benign = {t for r in fleet.olts.values() for t in r.tenants} - {HOSTILE}
    assert not benign & set(fleet.alert_first_at)


def _dba_at_scale(batched: bool) -> DbaScheduler:
    dba = DbaScheduler(batched=batched)
    for i in range(N_TCONTS):
        tcont = dba.register_tcont(f"S{i:04d}", f"t-{i:04d}",
                                   priority=i % 4,
                                   weight=1.0 + (i % 5) * 0.5)
        tcont.offer(Request(tenant=f"t-{i:04d}",
                            size_bytes=500 + (i * 37) % 9000,
                            issued_at=0.0))
    return dba


def _time_grants(dba: DbaScheduler) -> float:
    start = time.perf_counter()
    for _ in range(N_CYCLES):
        dba.grant(CAPACITY)
    return time.perf_counter() - start


def test_dba_grant_batching_speedup(benchmark, report, bench_record):
    def run_both():
        reference = _dba_at_scale(batched=False)
        batched = _dba_at_scale(batched=True)
        # Identical backlog => identical grants, or the speedup is moot.
        assert batched.grant(CAPACITY) == reference.grant(CAPACITY)
        return _time_grants(reference), _time_grants(batched)

    reference_s, batched_s = benchmark.pedantic(run_both, rounds=1,
                                                iterations=1)
    speedup = reference_s / batched_s if batched_s else float("inf")
    bench_record("E19", "dba_batching_speedup", round(speedup, 3), "x")

    per_cycle_ref = reference_s / N_CYCLES * 1e3
    per_cycle_batched = batched_s / N_CYCLES * 1e3
    lines = [
        f"E19 — DBA grant batching at {N_TCONTS} T-CONTs "
        f"({N_CYCLES} cycles, {CAPACITY} B capacity)",
        "",
        f"{'path':<22} {'total':>10} {'per cycle':>12}",
        f"{'reference _fill':<22} {reference_s:>9.3f}s "
        f"{per_cycle_ref:>10.3f}ms",
        f"{'batched (cached)':<22} {batched_s:>9.3f}s "
        f"{per_cycle_batched:>10.3f}ms",
        "",
        f"speedup: {speedup:.2f}x (target 2x, CI floor 1.5x); grants "
        "byte-identical by construction (asserted per run and "
        "property-tested in tests/test_properties.py).",
    ]
    report("E19_dba_batching", "\n".join(lines))

    assert speedup >= 1.5
