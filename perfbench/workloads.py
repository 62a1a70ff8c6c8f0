"""The benchmark's workloads: what each one builds, runs and checks.

Every workload is a closed loop with one client: the benchmark calls the
program, waits for it to finish, and only then calls it again. Inputs
come from the seed alone. Nothing here changes a program setting: the
cyclic GC stays on, process-wide telemetry keeps its default (on in the
sample process; spawned shard workers turn it off themselves, as under
``python -m repro fleet``), so the program is measured as shipped. The
one input the benchmark pins is the OS entropy behind the pipeline's
unseeded key generation (see ``PipelineWorkload.sample``).

Why each workload exists, and which layers it loads or bypasses:

* ``fleet-wide-upstream`` -- 4 OLTs x 64 tenants (a full 1:64 splitter
  each), upstream only, ``workers=1``, one hostile tenant. Each OLT is
  offered about 5x its 1.244 Gbps line rate, so the per-tenant layers
  (profiles, QoS queue/drop, multi-round DBA fill over 64 T-CONTs,
  drain, ``send_upstream``) do most of the work. The pool does no IPC
  and the downstream plane is off.
* ``fleet-sharded-bidir`` -- 48 OLTs x 4 tenants, downstream on,
  ``workers`` = usable cores (at most 4). Upstream is undersubscribed,
  so QoS mostly takes the admit fast path and DBA fills in one pass.
  Per-OLT fixed costs dominate: pool spawn, IPC and pickling, event
  capture and merge, Falco over the merged bidirectional stream, the
  downstream plane and the broadcast ``send_downstream``. With the
  first workload, the pool and the per-tenant core each do most of the
  work in one workload and little in the other.
* ``secure-pipeline`` -- all seven M1-M18 steps on
  ``build_genio_deployment(n_olts=4)``: the paper's core programme.
  Loads osmodel, hardening, vulnmgmt, integrity, comms/PKI and appsec,
  and none of the traffic layers.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import time
from typing import Any, Callable, Dict, List, NamedTuple

UPSTREAM_LINE_BPS = 1.244e9
DOWNSTREAM_LINE_BPS = 2.488e9
KEY_ENTROPY_SEED = 0x6E10

_clock = time.perf_counter


def _interpreter_work() -> None:
    """Interpreter work shaped like the traffic layers: small-object
    allocation, dict updates, tuple building, a sort."""
    table: Dict[int, int] = {}
    rows = []
    for i in range(1800):
        key = i % 61
        table[key] = table.get(key, 0) + i
        rows.append((key, i * 0.5))
    rows.sort()


_MODULUS = (1 << 255) + 95


def _bigint_work() -> None:
    """Modular exponentiation on 256-bit integers, where the security
    pipeline spends nine tenths of its time (RSA prime search)."""
    x = 3
    for _ in range(10):
        x = pow(x + 2, _MODULUS >> 1, _MODULUS)


class Probe(NamedTuple):
    """A fixed slice of work and its reference time: best of 3 on an
    unloaded vCPU of a 2-vCPU Intel Xeon VM under CPython 3.11."""

    work: Callable[[], None]
    reference_s: float


INTERPRETER_PROBE = Probe(_interpreter_work, 0.0005)
BIGINT_PROBE = Probe(_bigint_work, 0.0005)


def _probe_here(work: Callable[[], None]) -> float:
    best = float("inf")
    for _ in range(3):
        started = _clock()
        work()
        best = min(best, _clock() - started)
    return best


def probe(work: Callable[[], None], all_cores: bool) -> float:
    """Seconds ``work`` takes right now (best of three).

    With ``all_cores`` the probe runs once on each usable core and the
    slowest time is returned (the affinity is restored afterwards): shard
    workers advance in lockstep, so the slowest core sets the pace.
    Otherwise it runs on the current core, where a single-process run
    does its work.
    """
    cores = os.sched_getaffinity(0)
    if not all_cores or len(cores) == 1:
        return _probe_here(work)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(_probe_here(work))
    finally:
        os.sched_setaffinity(0, cores)
    return max(times)


class ScaledClock:
    """Wall time split into segments, each also scaled to reference speed.

    The cores this benchmark shares swing in speed by up to 2x within
    seconds (a busy sibling hyperthread on the host), which no number of
    samples averages away. So every segment is bracketed by speed probes
    and also reported as ``wall * reference_s / probe``: the time the
    same work would take at reference speed. Probe time counts in
    neither. Runs with shard workers probe every core the workers use.
    """

    def __init__(self, speed: Probe, all_cores: bool = False) -> None:
        self._speed = speed
        self._all_cores = all_cores
        self._probe_s = probe(speed.work, all_cores)
        self._started = _clock()
        self.wall: List[float] = []
        self.scaled: List[float] = []

    def split(self) -> None:
        """Close the segment that began at the previous split."""
        wall = _clock() - self._started
        probe_s = probe(self._speed.work, self._all_cores)
        self.wall.append(wall)
        self.scaled.append(
            wall * self._speed.reference_s * 2 / (self._probe_s + probe_s))
        self._probe_s = probe_s
        self._started = _clock()


def usable_workers() -> int:
    """Shard workers for the sharded workload: usable cores, at most 4."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class FleetWorkload:
    """A ``ParallelFleetDriver`` run at a fixed size."""

    kind = "fleet"

    def __init__(self, n_olts: int, n_tenants: int, downstream: bool,
                 sim_seconds: float, sharded: bool) -> None:
        self.n_olts = n_olts
        self.n_tenants = n_tenants
        self.downstream = downstream
        self.sim_seconds = sim_seconds
        self.sharded = sharded

    def workers(self) -> int:
        return usable_workers() if self.sharded else 1

    def sample(self, seed: int, workers: int, recorder: Any,
               runners: List[Any]) -> Dict[str, Any]:
        from repro.traffic.fleet import ParallelFleetDriver, ShardPool

        clock = ScaledClock(INTERPRETER_PROBE, all_cores=workers > 1)
        driver = ParallelFleetDriver(
            n_olts=self.n_olts, n_tenants=self.n_tenants, seed=seed,
            downstream=self.downstream, workers=workers)
        try:
            # Spawned workers import and build their shards after the
            # constructor returns; one empty round trip waits for them,
            # so worker start-up lands in setup, not in the first
            # interval. Advancing to t=0 changes no shard state.
            with recorder.span("fleet.spawn"):
                advance = getattr(ShardPool.advance, "__wrapped__",
                                  ShardPool.advance)
                advance(driver.pool, 0.0)
            clock.split()

            sample_metrics = recorder.wrap(driver.detector.sample_metrics,
                                           "monitor.sample")

            def split_interval(*args: Any, **kwargs: Any) -> Any:
                clock.split()
                return sample_metrics(*args, **kwargs)
            driver.detector.sample_metrics = split_interval

            report = driver.run(self.sim_seconds)
            clock.split()
        finally:
            driver.pool.close()

        cycle_s = driver.configs[0].cycle_s
        tenant_cycles = self.n_tenants * round(report.duration_s / cycle_s)
        return {
            "setup_s": clock.scaled[0],
            "run_s": sum(clock.scaled[1:]),
            "setup_wall_s": clock.wall[0],
            "run_wall_s": sum(clock.wall[1:]),
            "tenant_cycles": tenant_cycles,
            # Monitor intervals: run start to each sample_metrics call.
            "intervals_ms": [scaled * 1e3 for scaled in clock.scaled[1:-1]],
            "peak_rss_mb": peak_rss_mb(),
            "digest": _digest(report.render()),
            "errors": self.check(report),
            "offered_x_line": self.offered_x_line(report),
            "state": {
                "tenant_cycles": tenant_cycles,
                "monitor.falco_events": driver.falco.events_processed,
                "monitor.falco_rule_evals": driver.falco.rule_evaluations,
                "monitor.alerts": (len(driver.detector.findings)
                                   + len(driver.falco.alerts)),
                **self.shard_state(runners),
            },
        }

    @staticmethod
    def shard_state(runners: List[Any]) -> Dict[str, int]:
        """End-of-run state of in-process shards (empty with workers)."""
        retained = tail_drops = qos_dropped = 0
        for runner in runners:
            network, generator = runner.network, runner.generator
            retained += len(network.olt.upstream_frames) + sum(
                len(onu.received) for onu in network.onus.values())
            if generator.downstream_scheduler is not None:
                tail_drops += sum(
                    queue.dropped_requests
                    for queue in generator.downstream_scheduler.queues())
            for qos in (generator.qos, generator.qos_down):
                if qos is not None:
                    qos_dropped += sum(qos.policy(spec.tenant).dropped_requests
                                       for spec in generator.specs)
        if not runners:
            return {}
        return {"pon.retained_frames": retained,
                "downstream.tail_drops": tail_drops,
                "qos.dropped_requests": qos_dropped}

    @staticmethod
    def offered_x_line(report: Any) -> float:
        """Fleet offered upstream load over the fleet's line rate."""
        offered = sum(row.offered_bytes for olt in report.olts.values()
                      for row in olt.tenants.values())
        return offered * 8 / report.duration_s / (
            UPSTREAM_LINE_BPS * len(report.olts))

    def check(self, report: Any) -> List[str]:
        """Output checks; each returned string is one failed check."""
        errors: List[str] = []
        for tenant in report.hostile_tenants:
            if tenant not in report.alert_first_at:
                errors.append(f"hostile tenant {tenant} not flagged")
        for tenant in sorted(report.alert_first_at):
            if tenant not in report.hostile_tenants:
                errors.append(f"benign tenant {tenant} flagged")
        n_tenants = 0
        for olt, traffic in sorted(report.olts.items()):
            n_tenants += len(traffic.tenants)
            for row in traffic.tenants.values():
                if row.delivered_bytes > row.offered_bytes:
                    errors.append(f"{row.tenant}: upstream delivered > offered")
                if row.delivered_down_bytes > row.offered_down_bytes:
                    errors.append(
                        f"{row.tenant}: downstream delivered > offered")
            # Relative slack only for float summation order.
            if report.olt_throughput_bps(olt) > UPSTREAM_LINE_BPS * (1 + 1e-9):
                errors.append(f"{olt}: upstream above line rate")
            if report.olt_downstream_bps(olt) > \
                    DOWNSTREAM_LINE_BPS * (1 + 1e-9):
                errors.append(f"{olt}: downstream above line rate")
        if len(report.olts) != self.n_olts or n_tenants != self.n_tenants:
            errors.append("report does not cover the whole fleet")
        if self.downstream and report.fleet_downstream_bps <= 0:
            errors.append("downstream plane carried nothing")
        return errors


class PipelineWorkload:
    """``SecurityPipeline.apply()`` over a freshly built deployment."""

    kind = "pipeline"

    def __init__(self, n_olts: int) -> None:
        self.n_olts = n_olts

    def workers(self) -> int:
        return 1

    def sample(self, seed: int, workers: int, recorder: Any,
               runners: List[Any]) -> Dict[str, Any]:
        from dataclasses import replace

        from repro.common import crypto
        from repro.platform import build_genio_deployment
        from repro.security.pipeline import SecurityPipeline, default_steps
        from repro.security.report import generate_report

        # Device keys the pipeline enrolls without a seed draw OS
        # entropy, and the prime search behind them varies by a fifth in
        # work from draw to draw. A fixed key stream makes every sample
        # secure the same deployment with the same keys; the seed drives
        # the process RNG behind AEAD nonces.
        generate = crypto.RsaKeyPair.generate
        key_entropy = random.Random(KEY_ENTROPY_SEED)

        def fixed_entropy_generate(bits: int = 512,
                                   seed: Any = None) -> Any:
            if seed is None:
                seed = key_entropy.getrandbits(64)
            return generate(bits=bits, seed=seed)
        crypto.RsaKeyPair.generate = staticmethod(fixed_entropy_generate)
        random.seed(seed)

        clock = ScaledClock(BIGINT_PROBE)
        with recorder.span("platform.build"):
            deployment = build_genio_deployment(n_olts=self.n_olts)
        # The default steps through the public registry, each wrapped in
        # a span when traced (and left as is when not).
        steps = [replace(step, apply_fn=recorder.wrap(
            step.apply_fn, "pipeline." + "-".join(step.mitigations)))
            for step in default_steps()]
        pipeline = SecurityPipeline(deployment, steps=steps)
        clock.split()
        posture = pipeline.apply()
        clock.split()

        report = generate_report(posture)
        errors: List[str] = []
        if not report.ready:
            errors.append("security report is NOT READY")
        expected = [step.name for step in default_steps()]
        if posture.steps_completed != expected:
            errors.append(f"steps completed {posture.steps_completed} "
                          f"!= {expected}")
        return {
            "setup_s": clock.scaled[0],
            "run_s": clock.scaled[1],
            "setup_wall_s": clock.wall[0],
            "run_wall_s": clock.wall[1],
            "peak_rss_mb": peak_rss_mb(),
            "digest": _digest(report.render()),
            "errors": errors,
        }


WORKLOADS = {
    "fleet-wide-upstream": FleetWorkload(
        n_olts=4, n_tenants=256, downstream=False, sim_seconds=2.0,
        sharded=False),
    "fleet-sharded-bidir": FleetWorkload(
        n_olts=48, n_tenants=192, downstream=True, sim_seconds=1.0,
        sharded=True),
    "secure-pipeline": PipelineWorkload(n_olts=4),
}
