"""E21 — array-driven downstream drain vs the naive per-queue loop.

The downstream scheduler runs the DBA allocator's grant-and-drain
cycle on its registration-time cached flat weight/priority arrays; the
reference cycle (``tests.oracles.run_cycle``, given the reference
scheduler's allocator) allocates with the per-policy reference
allocator, which recomputes the priority tiers and per-round weight
sums with per-T-CONT bookkeeping. Same fleet-scale shape as E19:
~1k per-ONU queues, mixed priorities and weights, heterogeneous
backlogs refreshed every cycle so many queues are fully satisfied
mid-round and the weighted progressive filling actually redistributes
(the case the flat arrays accelerate). Drain results are asserted
byte-identical per cycle (and property-tested in
tests/test_downstream.py), so the speedup is a scheduling-overhead
measurement; GC is paused around the timed sections so a collection
triggered by earlier suite state cannot land inside one path's timing.
"""

import gc
import time

import pytest

from repro.common import telemetry
from repro.traffic.downstream import DownstreamScheduler
from repro.traffic.profiles import Request
from tests import oracles

N_QUEUES = 1000
N_CYCLES = 40
CYCLE_S = 0.002
CAPACITY = 400_000          # ~1/6 of each cycle's offered bytes


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


def _scheduler() -> DownstreamScheduler:
    scheduler = DownstreamScheduler()
    for i in range(N_QUEUES):
        scheduler.register_queue(f"ONU{i:04d}", f"t{i:04d}",
                                 priority=i % 4,
                                 weight=1.0 + (i % 5) * 0.5)
    return scheduler


def _cycle_requests(cycle: int, now: float):
    # Heterogeneous sizes: many queues' demand sits below their weighted
    # fair share, so each tier's progressive fill runs several
    # redistribution rounds instead of one saturating pass.
    requests = []
    for i in range(N_QUEUES):
        size = 200 + ((cycle * 7 + i * 13) % 4800)
        requests.append(Request(f"t{i:04d}", size, now))
    return requests


def test_array_driven_drain_speedup(benchmark, report):
    def run_both():
        fast, reference = _scheduler(), _scheduler()
        fast_s = reference_s = 0.0
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for cycle in range(N_CYCLES):
                now = cycle * CYCLE_S
                for request in _cycle_requests(cycle, now):
                    fast.enqueue(request)
                    reference.enqueue(request)
                start = time.perf_counter()
                fast_results = fast.run_cycle(CAPACITY, now=now)
                fast_s += time.perf_counter() - start
                start = time.perf_counter()
                reference_results = oracles.run_cycle(
                    reference._allocator, CAPACITY, now=now)
                reference_s += time.perf_counter() - start
                # Identical drains, or the speedup is moot.
                assert fast_results == reference_results
        finally:
            if gc_was_enabled:
                gc.enable()
        assert fast.total_backlog() == reference.total_backlog() > 0
        return reference_s, fast_s

    reference_s, fast_s = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)
    speedup = reference_s / fast_s if fast_s else float("inf")

    per_cycle_fast = fast_s / N_CYCLES * 1e3
    per_cycle_reference = reference_s / N_CYCLES * 1e3
    lines = [
        f"E21 — downstream drain: {N_QUEUES} per-ONU queues x "
        f"{N_CYCLES} cycles, {CAPACITY} B/cycle (oversubscribed), "
        "run_cycle() time only",
        "",
        f"{'path':<28} {'total':>10} {'per cycle':>12}",
        f"{'naive per-queue (oracle)':<28} {reference_s:>9.3f}s "
        f"{per_cycle_reference:>10.2f}ms",
        f"{'array-driven (shipped)':<28} {fast_s:>9.3f}s "
        f"{per_cycle_fast:>10.2f}ms",
        "",
        f"speedup: {speedup:.2f}x (floor 1.15x); drain results asserted "
        "identical per cycle here and property-tested in "
        "tests/test_downstream.py.",
    ]
    report("E21_downstream_drain", "\n".join(lines))

    assert speedup >= 1.15
