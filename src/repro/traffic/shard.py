"""One fleet shard, and the worker loop that hosts a bucket of them.

A shard is a self-contained OLT (a :class:`~repro.pon.network.PonNetwork`
with its own tenants, DBA scheduler and QoS enforcer) built from a
picklable :class:`ShardConfig` and run on its own clock, scheduler and
bus by a :class:`ShardRunner`. :func:`_shard_worker_main` is the entry
point of a fleet worker process, forked or spawned; the pool that drives
it, and picks how its workers start, lives in :mod:`repro.traffic.fleet`.

This module is everything a spawned worker imports, so it stays slim: it
needs the PON and traffic layers and nothing of :mod:`repro.security` or
:mod:`multiprocessing` (a worker gets its pipe end handed in). Keeping
the security layers out of that import cuts a spawned worker's start-up
time; a forked worker inherits the parent's modules and imports nothing.

Each advance hands back a :class:`CycleResult`: the events whose topics
the parent reads, as records, and a per-topic count of the rest. The
parent says what it reads by sending its bus's
:meth:`~repro.common.events.EventBus.interest` with an advance; the
shard bus then :meth:`~repro.common.events.EventBus.record_only` those
topics and never builds the other events at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.events import Event, EventBus
from repro.common.telemetry import set_telemetry_enabled, telemetry_enabled
from repro.pon.network import PonNetwork
from repro.traffic.loadgen import (
    CYCLE_S, LoadGenerator, TenantSpec, TrafficReport,
)

__all__ = ["ShardConfig", "CycleResult", "ShardRunner"]


@dataclass(frozen=True)
class ShardConfig:
    """Everything needed to (re)build one shard, in any process.

    Pure data — picklable, so the same config builds an identical shard
    in the parent (``workers=1`` fallback) or in a worker process. The
    seed is the fleet seed: shard determinism comes from string-seeded
    profile RNGs plus the shard-local scheduler seed, both derived from
    the config alone, never from which worker hosts the shard.
    """

    index: int
    name: str
    specs: Tuple[TenantSpec, ...]
    seed: int
    downstream: bool = False

    @property
    def cycle_s(self) -> float:
        """The shard's traffic cycle: every shard runs at :data:`CYCLE_S`."""
        return CYCLE_S


@dataclass
class CycleResult:
    """Compact outcome of advancing one shard to a time boundary.

    Only what the driver reads, all of it picklable: the bus events the
    shard recorded since the previous boundary (the shard bus's own
    tuple-backed :class:`~repro.common.events.Event` records, in publish
    order), the per-topic counts of the events it did not record,
    cumulative per-tenant offered bytes for the monitor pass, and the
    shard scheduler's cumulative fired-event count.
    """

    shard_index: int
    events: List[Event]
    tally: Dict[str, int]
    offered: Dict[str, int]
    events_fired: int


class ShardRunner:
    """One self-contained OLT shard: own clock, scheduler and bus.

    Identical code runs in the parent (``workers=1``) and in worker
    processes, forked or spawned, which is what makes the fleet output
    worker-count-invariant: a shard's entire event stream is a function
    of its :class:`ShardConfig` alone. The shard bus keeps an unbounded history
    that :meth:`advance` drains each boundary — it is the shard's only
    event capture — and records every topic until an advance narrows it.
    Construction-time events (ONU activations) are cleared before the
    first boundary, so they are never forwarded.

    A runner is plain data — its scheduler's timers are bound methods and
    its plant holds no closures — so a warm one pickles at a boundary,
    and the copy advances to the same results and report as the
    original, in this interpreter or another.
    """

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.index = config.index
        self.name = config.name
        # Components read the telemetry switch once, at construction:
        # building them with it off keeps the shard unmetered for life,
        # in this process or a worker, without touching anyone else's.
        was_enabled = telemetry_enabled()
        set_telemetry_enabled(False)
        try:
            self.clock = SimClock()
            self.bus = EventBus(history_limit=0)
            self.network = PonNetwork.build(config.name,
                                            clock=self.clock, bus=self.bus)
            self.generator = LoadGenerator(
                self.network, list(config.specs), seed=config.seed,
                downstream=config.downstream)
        finally:
            set_telemetry_enabled(was_enabled)
        # The generator's own engine is the shard's scheduler.
        self.scheduler = self.generator.sim
        self.bus.clear_history()

    def start(self, seconds: float) -> int:
        """Register the shard's cycle task; returns its cycle count."""
        self.generator.start(seconds)
        return self.generator.n_cycles

    def advance(self, until: float,
                interest: Optional[Sequence[str]] = None) -> CycleResult:
        """Run the shard to ``until`` and hand back what happened.

        ``interest``, when given, replaces the topic patterns the shard
        records from now on; ``None`` keeps the current ones.
        """
        if interest is not None:
            self.bus.record_only(interest)
        self.scheduler.run_until(until)
        return CycleResult(
            shard_index=self.index, events=self.bus.drain_history(),
            tally=self.bus.drain_tally(),
            offered=self.generator.offered_totals(),
            events_fired=self.scheduler.events_fired)

    def report(self) -> TrafficReport:
        return self.generator.report()


def _apply(runners: Sequence[ShardRunner], command: str,
           arg: Any) -> List[Any]:
    """Run one pool verb on a bucket of shards, one answer per shard.

    The single verb table behind the fleet's shard pool, in the calling
    process or in a worker: ``start`` answers cycle counts, ``advance``
    (with an ``(until, interest)`` argument) a :class:`CycleResult` per
    shard and ``report`` ``(name, report)`` pairs, all in bucket order.
    """
    if command == "start":
        return [runner.start(arg) for runner in runners]
    if command == "advance":
        until, interest = arg
        return [runner.advance(until, interest) for runner in runners]
    if command == "report":
        return [(runner.name, runner.report()) for runner in runners]
    raise ValueError(f"unknown shard command {command!r}")


def _shard_worker_main(conn, configs: Sequence[ShardConfig]) -> None:
    """Worker entry point: host a bucket of shards, driven over a pipe.

    The worker builds its shards from ``configs`` itself, whether it was
    forked or spawned, so the pool's workers build theirs in parallel.
    Commands are ``(verb, arg)`` tuples answered by :func:`_apply`;
    ``("stop", None)`` ends the loop.
    """
    runners = [ShardRunner(config) for config in configs]
    try:
        while True:
            command, arg = conn.recv()
            if command == "stop":
                break
            conn.send(_apply(runners, command, arg))
    except EOFError:
        pass
    finally:
        conn.close()
