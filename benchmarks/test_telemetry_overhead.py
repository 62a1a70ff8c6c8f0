"""E17 — telemetry overhead on the event-bus hot path, measured A/B.

The telemetry layer instruments ``EventBus.publish`` (counters per
topic, a delivery-depth histogram, a history gauge). Observability is
only viable at the far edge if that instrumentation is nearly free:
this bench publishes the same burst through an instrumented bus and
through one built with telemetry disabled, and asserts the slowdown
stays under 2x.
"""

import random

from ab_timing import interleaved_ab
from repro.common.events import EventBus
from repro.common.telemetry import (
    default_registry, reset_default_registry, set_telemetry_enabled,
)

_TOPICS = ["pon.frame", "host.syscall", "host.file.write",
           "runtime.syscall", "sdn.flow"]
_BURST = 500
_BURSTS_PER_REPEAT = 40   # 40-60 ms per timed repeat on a 2-vCPU runner
_REPEATS = 15


def _make_bus(instrumented: bool) -> EventBus:
    # Buses consult the active registry once, at construction: building
    # one while telemetry is disabled yields a permanently bare bus.
    set_telemetry_enabled(instrumented)
    try:
        bus = EventBus(history_limit=1000)
    finally:
        set_telemetry_enabled(True)
    # a realistic subscriber load: one exact, one prefix, one wildcard
    bus.subscribe("host.syscall", lambda e: None)
    bus.subscribe("host", lambda e: None)
    bus.subscribe("", lambda e: None)
    return bus


def _burst(bus: EventBus, rng: random.Random) -> None:
    for i in range(_BURST):
        bus.emit(rng.choice(_TOPICS), "bench", float(i), seq=i)


def test_publish_burst_uninstrumented(benchmark):
    reset_default_registry()
    bus = _make_bus(instrumented=False)
    benchmark(_burst, bus, random.Random(7))


def test_publish_burst_instrumented(benchmark, report):
    reset_default_registry()
    bus = _make_bus(instrumented=True)
    benchmark(_burst, bus, random.Random(7))

    # Independent wall-clock A/B for the report file.
    def prepare(instrumented: bool):
        local = _make_bus(instrumented)
        rng = random.Random(7)

        def run() -> None:
            for _ in range(_BURSTS_PER_REPEAT):
                _burst(local, rng)
        return run

    bare, metered, factor = interleaved_ab(prepare, _REPEATS)

    registry = default_registry()
    events = registry.total("bus_events_total")
    lines = ["E17 — telemetry overhead on the event-bus hot path",
             "",
             f"burst: {_BURST * _BURSTS_PER_REPEAT} published events, "
             "3 subscribers, "
             f"{_REPEATS} interleaved repeats per side",
             f"bare bus:         {bare * 1000:8.2f} ms (best repeat)",
             f"instrumented bus: {metered * 1000:8.2f} ms (best repeat)",
             f"overhead factor:  {factor:8.2f}x (median of the "
             "per-repeat ratios)",
             "",
             f"registry saw {events:.0f} bus_events_total across the "
             f"timed runs ({len(_TOPICS)} topic label values)",
             "",
             "reading: per-publish cost is two cached counter increments, "
             "one histogram observe and one gauge set — the factor must "
             "stay under 2x for always-on metrics to be defensible at the "
             "far edge (Lesson 8's 'acceptable bounds')."]
    report("E17_telemetry_overhead", "\n".join(lines))

    assert factor < 2.0, f"telemetry overhead {factor:.2f}x exceeds 2x budget"
    assert events >= _BURST * _BURSTS_PER_REPEAT
