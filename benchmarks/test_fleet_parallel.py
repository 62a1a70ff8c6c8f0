"""E20 — breaking the fleet scale ceiling.

Four measurements from the shard-and-batch refactor:

* **fleet shard-pool scaling** — the same 32-OLT fleet run through
  ``run_fleet_parallel`` with one in-process worker vs a 4-process
  shard pool. The rendered reports must be byte-identical (the merge
  order ``(timestamp, shard_index, publish order)`` is a total order
  independent of worker assignment); the wall-clock floor (>= 1.5x)
  only applies on machines with >= 4 cores — a single-core runner still
  records the numbers but cannot demonstrate parallel speedup.
* **light-fleet pool** — a 32 OLT x 32 tenant fleet, where each shard
  does little work and pool start-up is most of what workers cost: the
  time until a 2-worker pool is ready (constructor plus one empty
  advance) with forked and with spawned workers, and the CLI wall time
  of ``fleet --seconds 4`` at ``--workers`` 1 and 2. On machines with
  >= 2 cores the 2-worker run must take at most 1.1x the 1-worker run.
* **event-bus batch publish** — ``publish_batch`` vs a ``publish`` loop
  over the same pre-built event list, subscribers and metrics attached:
  the cached delivery plan is shared, but history trim and counter
  updates amortise across the batch.
* **run-based QoS admission** — ``admit`` vs ``tests.oracles.admit`` on
  identical per-cycle request streams across 64 tenants: each tenant's
  run is admitted by one prefix search and one token spend, with one
  counter inc per (run, outcome). Outcomes are asserted equal per cycle
  (and property-tested in tests/test_traffic.py).
"""

import gc
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Tuple

import pytest

import repro
from repro.common import telemetry
from repro.common.events import Event, EventBus
from repro.traffic.fleet import (
    ShardPool, fleet_shard_configs, run_fleet_parallel,
)
from repro.traffic.profiles import Request
from repro.traffic.qos import QosEnforcer
from tests import oracles

N_OLTS = 32
N_TENANTS = 128
SECONDS = 10.0
SEED = 7
WORKERS = 4

LIGHT_OLTS = 32
LIGHT_TENANTS = 32
LIGHT_SECONDS = 4.0
LIGHT_ROUNDS = 5

N_EVENTS = 20_000          # bus micro-benchmark batch
PUBLISH_ROUNDS = 25        # interleaved loop/batch rounds, best kept
N_QOS_TENANTS = 64
N_QOS_CYCLES = 60
QOS_CYCLE_S = 0.02


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


def _usable_cores() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:
            pass
    return os.cpu_count() or 1


def test_fleet_shard_pool_speedup(benchmark, report):
    def run_both():
        start = time.perf_counter()
        single = run_fleet_parallel(n_olts=N_OLTS, n_tenants=N_TENANTS,
                                    seconds=SECONDS, seed=SEED, workers=1)
        single_s = time.perf_counter() - start
        start = time.perf_counter()
        multi = run_fleet_parallel(n_olts=N_OLTS, n_tenants=N_TENANTS,
                                   seconds=SECONDS, seed=SEED,
                                   workers=WORKERS)
        multi_s = time.perf_counter() - start
        return single, single_s, multi, multi_s

    single, single_s, multi, multi_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    speedup = single_s / multi_s if multi_s else float("inf")
    cores = _usable_cores()

    identical = multi.render() == single.render()
    lines = [
        f"E20 — fleet shard pool: {N_OLTS} OLTs x {N_TENANTS} tenants, "
        f"{SECONDS:g}s simulated, seed {SEED} ({cores} usable cores)",
        "",
        f"{'path':<24} {'wall clock':>12}",
        f"{'workers=1 (in-proc)':<24} {single_s:>11.2f}s",
        f"{f'workers={WORKERS} (processes)':<24} {multi_s:>11.2f}s",
        "",
        f"speedup: {speedup:.2f}x (floor 1.5x, enforced on >=4-core "
        "machines only)",
        f"byte-identical reports: {'YES' if identical else 'NO'}",
        "",
        single.render(),
    ]
    report("E20_fleet_parallel", "\n".join(lines))

    assert identical
    assert single.hostile_tenants == ["olt1-tenant-hostile"]
    assert single.alert_first_at.get("olt1-tenant-hostile") is not None
    if cores >= 4:
        assert speedup >= 1.5


def _pool_ready_s() -> Tuple[str, float]:
    """Seconds from constructing a 2-worker light-fleet pool until every
    worker has answered an empty advance, and how it started them."""
    configs = fleet_shard_configs(LIGHT_OLTS, LIGHT_TENANTS, seed=SEED)
    start = time.perf_counter()
    with ShardPool(configs, workers=2) as pool:
        pool.advance(0.0)
        ready_s = time.perf_counter() - start
        return pool.start_method, ready_s


def _spawned_pool_ready_s() -> Tuple[str, float]:
    """:func:`_pool_ready_s` with a live thread, which makes the pool
    spawn its workers instead of forking them."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        return _pool_ready_s()
    finally:
        release.set()
        thread.join()


def _cli_wall_s(workers: int) -> float:
    argv = [sys.executable, "-m", "repro", "fleet",
            "--olts", str(LIGHT_OLTS), "--tenants", str(LIGHT_TENANTS),
            "--seconds", f"{LIGHT_SECONDS:g}", "--seed", str(SEED),
            "--workers", str(workers)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=os.path.dirname(
                       os.path.dirname(repro.__file__))),
                   timeout=120)
    return time.perf_counter() - start


def test_light_fleet_pool(benchmark, report):
    def measure():
        ready = [_pool_ready_s(), _spawned_pool_ready_s()]
        walls = {1: [], 2: []}
        # Alternate, so a slow stretch of the machine hits both alike.
        for _ in range(LIGHT_ROUNDS):
            for workers in walls:
                walls[workers].append(_cli_wall_s(workers))
        return ready, walls

    ready, walls = benchmark.pedantic(measure, rounds=1, iterations=1)
    single = statistics.median(walls[1])
    double = statistics.median(walls[2])
    cores = _usable_cores()
    lines = [
        f"E20 — light-fleet pool: {LIGHT_OLTS} OLTs x {LIGHT_TENANTS} "
        f"tenants, seed {SEED} ({cores} usable cores)",
        "",
        f"{'2-worker pool ready':<28} {'seconds':>10}",
    ]
    lines += [f"{f'  {method} workers':<28} {ready_s:>9.3f}s"
              for method, ready_s in ready]
    lines += [
        "",
        f"CLI fleet --seconds {LIGHT_SECONDS:g}, wall clock, median of "
        f"{LIGHT_ROUNDS} alternating runs",
        f"{'  --workers 1':<28} {single:>9.2f}s",
        f"{f'  --workers 2 ({ready[0][0]})':<28} {double:>9.2f}s",
        "",
        f"workers=2 / workers=1: {double / single:.2f}x (bound 1.1x, "
        "enforced on >=2-core machines only)",
    ]
    report("E20_light_fleet", "\n".join(lines))

    assert ready[1][0] == "spawn"
    if cores >= 2:
        assert double <= 1.1 * single


def test_publish_batch_speedup(benchmark, report):
    events = [Event("pon.frame", "olt", i * 1e-4, {"i": i})
              for i in range(N_EVENTS)]

    def handler(event):
        pass

    def fresh_bus():
        bus = EventBus(history_limit=4096,
                       metrics=telemetry.MetricsRegistry())
        bus.subscribe("pon", handler)
        bus.subscribe("", handler)
        return bus

    def publish_loop(bus):
        for event in events:
            bus.publish(event)

    def publish_batch(bus):
        assert bus.publish_batch(events) == 2 * N_EVENTS

    def timed(path):
        # The cyclic collector is held off while a path runs, so a
        # collection of earlier rounds' garbage lands in neither path.
        bus = fresh_bus()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            path(bus)
            return time.perf_counter() - start, bus
        finally:
            gc.enable()

    def run_both():
        loop_times, batch_times = [], []
        # Alternate which path goes first, so a slow stretch of the
        # machine hits both alike; the best round of each path is kept,
        # which a noisy neighbour can only have slowed down.
        for index in range(PUBLISH_ROUNDS):
            paths = [(publish_loop, loop_times), (publish_batch, batch_times)]
            histories = {}
            for path, times in paths[::-1] if index % 2 else paths:
                seconds, bus = timed(path)
                times.append(seconds)
                histories[path] = list(bus.history())
            # Both paths keep the newest events within the bound; the
            # loop's per-publish half-trims retain fewer, but always a
            # suffix of what the single batch trim retains.
            loop_history = histories[publish_loop]
            batch_history = histories[publish_batch]
            assert len(batch_history) <= 4096
            assert batch_history[-len(loop_history):] == loop_history
        return min(loop_times), min(batch_times)

    loop_s, batch_s = benchmark.pedantic(run_both, rounds=1, iterations=1)
    speedup = loop_s / batch_s if batch_s else float("inf")

    per_event_loop = loop_s / N_EVENTS * 1e6
    per_event_batch = batch_s / N_EVENTS * 1e6
    lines = [
        f"E20 — EventBus batch publish, {N_EVENTS} events, two "
        "subscribers, metrics attached",
        f"best of {PUBLISH_ROUNDS} interleaved rounds per path",
        "",
        f"{'path':<22} {'total':>10} {'per event':>12}",
        f"{'publish loop':<22} {loop_s:>9.3f}s {per_event_loop:>10.2f}us",
        f"{'publish_batch':<22} {batch_s:>9.3f}s "
        f"{per_event_batch:>10.2f}us",
        "",
        f"speedup: {speedup:.2f}x (floor 1.1x); same deliveries, same "
        "history, counter totals asserted equal in "
        "tests/test_common_infra.py.",
    ]
    report("E20_publish_batch", "\n".join(lines))

    assert speedup >= 1.1


def _qos_at_scale() -> QosEnforcer:
    qos = QosEnforcer(bus=EventBus(),
                      registry=telemetry.MetricsRegistry())
    for i in range(N_QOS_TENANTS):
        # Rates low enough that the streams exercise all three outcomes.
        qos.add_tenant(f"t{i:02d}", rate_bps=1e6)
    return qos


def _qos_requests(cycle: int, now: float):
    requests = []
    for i in range(N_QOS_TENANTS):
        for k in range(4):
            size = 400 + ((cycle * 7 + i * 13 + k * 29) % 1800)
            requests.append(Request(f"t{i:02d}", size, now))
    return requests


def test_vectorized_admit_speedup(benchmark, report):
    def run_both():
        # Collect earlier tests' cyclic garbage (a whole fleet's shards)
        # up front, so that full collection cannot land inside one
        # path's timed window and swamp its ~0.1 s.
        gc.collect()
        fast, reference = _qos_at_scale(), _qos_at_scale()
        fast_s = reference_s = 0.0
        for cycle in range(N_QOS_CYCLES):
            now = cycle * QOS_CYCLE_S
            requests = _qos_requests(cycle, now)
            start = time.perf_counter()
            fast_admitted = fast.admit(list(requests), now)
            fast_s += time.perf_counter() - start
            start = time.perf_counter()
            reference_admitted = oracles.admit(reference, list(requests),
                                               now)
            reference_s += time.perf_counter() - start
            # Identical outcomes, or the speedup is moot.
            assert fast_admitted == reference_admitted
        return reference_s, fast_s

    reference_s, fast_s = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)
    speedup = reference_s / fast_s if fast_s else float("inf")

    n_requests = N_QOS_CYCLES * N_QOS_TENANTS * 4
    lines = [
        f"E20 — run-based QoS admission: {N_QOS_TENANTS} tenants x "
        f"{N_QOS_CYCLES} cycles ({n_requests} requests), admit() time "
        "only",
        "",
        f"{'path':<26} {'total':>10}",
        f"{'oracle admit (per-req)':<26} {reference_s:>9.3f}s",
        f"{'admit (run-based)':<26} {fast_s:>9.3f}s",
        "",
        f"speedup: {speedup:.2f}x (floor 1.1x); outcomes asserted "
        "identical per cycle here and property-tested (state + events) "
        "in tests/test_traffic.py.",
    ]
    report("E20_vectorized_admit", "\n".join(lines))

    assert speedup >= 1.1
