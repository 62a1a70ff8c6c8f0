"""E16 (ablation) — runtime-monitoring overhead, measured A/B.

Lesson 8: "maintaining performance overheads within acceptable bounds is
a key consideration." This bench runs the *same* syscall burst twice —
once on a bare runtime, once with the Falco-like engine attached — so the
pytest-benchmark table shows the relative cost directly, and the report
file records the computed factor.
"""

import random

from ab_timing import interleaved_ab
from repro.platform.workloads import ml_inference_image
from repro.security.monitor import FalcoEngine
from repro.virt.container import ContainerSpec
from repro.virt.runtime import ContainerRuntime

_OPS = [("read", {"path": "/data/input"}),
        ("write", {"path": "/data/output"}),
        ("connect", {"dst": "10.0.3.7"}),
        ("execve", {"path": "/app/main"}),
        ("open", {"path": "/etc/hosts", "mode": "r"})]
_BURST = 200
_BURSTS_PER_REPEAT = 40   # 8,000 syscalls: about 40 ms bare, 100 ms watched
_REPEATS = 15


def _make_runtime(monitored: bool):
    runtime = ContainerRuntime("bench-node")
    engine = None
    if monitored:
        engine = FalcoEngine()
        engine.attach(runtime.bus)
    container = runtime.run(ContainerSpec(image=ml_inference_image(),
                                          tenant="tenant-a"))
    return runtime, container, engine


def _burst(runtime, container, rng):
    for _ in range(_BURST):
        syscall, args = rng.choice(_OPS)
        runtime.syscall(container.id, syscall, **args)


def test_syscall_burst_unmonitored(benchmark):
    runtime, container, _ = _make_runtime(monitored=False)
    rng = random.Random(3)
    benchmark(_burst, runtime, container, rng)


def test_syscall_burst_monitored(benchmark, report):
    runtime, container, engine = _make_runtime(monitored=True)
    rng = random.Random(3)
    benchmark(_burst, runtime, container, rng)

    # Independent wall-clock A/B for the report file.
    def prepare(monitored: bool):
        rt, ctr, _ = _make_runtime(monitored)
        local_rng = random.Random(3)

        def run() -> None:
            for _ in range(_BURSTS_PER_REPEAT):
                _burst(rt, ctr, local_rng)
        return run

    bare, watched, factor = interleaved_ab(prepare, _REPEATS)
    lines = ["E16 (ablation) — monitoring overhead on the syscall hot path",
             "",
             f"burst: {_BURST * _BURSTS_PER_REPEAT} mediated syscalls, "
             f"{_REPEATS} interleaved repeats per side",
             f"bare runtime:      {bare * 1000:8.2f} ms (best repeat)",
             f"with Falco engine: {watched * 1000:8.2f} ms (best repeat)",
             f"overhead factor:   {factor:8.2f}x (median of the "
             "per-repeat ratios)",
             "",
             f"engine work during benchmarked burst: "
             f"{engine.events_processed} events, "
             f"{engine.rule_evaluations} rule evaluations",
             "",
             "reading: observe-without-block costs a bounded constant per "
             "event — the Lesson 8 'acceptable bounds' criterion is about "
             "keeping this factor flat as rules are added. Dispatch is "
             "indexed by topic, so the per-event cost no longer grows with "
             "rules that cannot match the event."]
    report("E16_monitor_overhead", "\n".join(lines))

    assert factor > 1.0          # monitoring is never free...
    assert factor < 25.0         # ...but stays within bounded overhead
    assert engine.events_processed >= _BURST
