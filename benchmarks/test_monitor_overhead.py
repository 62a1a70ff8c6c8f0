"""E16 (ablation) — runtime-monitoring overhead, measured A/B.

Lesson 8: "maintaining performance overheads within acceptable bounds is
a key consideration." This bench runs the *same* syscall burst twice —
once on a bare runtime, once with the Falco-like engine attached — so the
pytest-benchmark table shows the relative cost directly, and the report
file records the computed factor.
"""

import random
import time

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

    # Independent wall-clock A/B for the report file (benchmark fixtures
    # cannot compare across tests). Min-of-repeats suppresses scheduler
    # noise, which single-shot timing is hopelessly exposed to.
    def timed(monitored, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            rt, ctr, _ = _make_runtime(monitored)
            local_rng = random.Random(3)
            start = time.perf_counter()
            for _ in range(10):
                _burst(rt, ctr, local_rng)
            best = min(best, time.perf_counter() - start)
        return best

    bare = timed(False)
    watched = timed(True)
    factor = watched / bare if bare else float("inf")
    lines = ["E16 (ablation) — monitoring overhead on the syscall hot path",
             "",
             f"burst: {_BURST * 10} mediated syscalls",
             f"bare runtime:      {bare * 1000:8.2f} ms",
             f"with Falco engine: {watched * 1000:8.2f} ms",
             f"overhead factor:   {factor:8.2f}x",
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
