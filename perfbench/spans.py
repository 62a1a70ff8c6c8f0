"""Span tracing from outside the program, for the benchmark's traced runs.

The program is never edited to be traced: :func:`instrument_layers`
replaces the public functions at each layer boundary with wrappers that
open a span, call the original and close the span. Spans live in memory
as ``[name, start, end, parent]`` rows and are written out once, when
the sample ends. A layer's self time is its span's duration minus the
durations of its direct child spans.

Only the process that installs the wrappers is traced: spawned shard
workers re-import the program and run it unwrapped, which is why
in-shard layers are traced at ``workers=1``.
"""

from __future__ import annotations

import functools
import gzip
import json
import pickle
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter


class NullRecorder:
    """The untraced stand-in: spans cost nothing and record nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        return fn


class SpanRecorder:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, _clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable[..., Any], name: str,
             skip: Optional[Callable[..., bool]] = None,
             before: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        """``fn`` inside a span; hooks run outside the span's interval.

        ``skip(*args)`` true calls ``fn`` untraced; ``before(*args)``
        returns a state handed to ``after(args, result, state)``.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            state = before(*args) if before is not None else None
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def instrument(self, owner: Any, attr: str, name: str,
                   **hooks: Any) -> None:
        """Replace ``owner.attr`` (a class or module attribute) in place."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name_id, start, end, _parent), children in zip(self.spans,
                                                            child_time):
            row = out.setdefault(self.names[name_id],
                                 {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - children
        return out

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSON lines (names table first)."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"names": self.names,
                                  "columns": ["name", "start", "end",
                                              "parent"]}) + "\n")
            for row in self.spans:
                out.write(json.dumps(row) + "\n")


def instrument_layers(recorder: SpanRecorder, runners: List[Any]) -> None:
    """Wrap every layer's public entry points named in the benchmark.

    ``runners`` collects each in-process :class:`ShardRunner` so the
    end-of-run state (retained frames, drop counters) can be read.
    Downstream-owned allocator grants and queue drains run untraced, so
    ``dba.*`` is the upstream grant loop alone and the downstream plane
    is timed whole as ``downstream.run_cycle``.
    """
    from repro.common.events import EventBus
    from repro.common.sim import Scheduler
    from repro.pon.network import PonNetwork
    from repro.traffic import fleet
    from repro.traffic.dba import DbaScheduler, TCont
    from repro.traffic.downstream import DownstreamQueue, DownstreamScheduler
    from repro.traffic.profiles import WorkloadProfile
    from repro.traffic.qos import QosEnforcer
    import repro.security.pipeline as pipeline_module

    add = recorder.add

    recorder.instrument(
        WorkloadProfile, "batch", "profiles.batch",
        after=lambda args, result, _: add("profiles.requests", len(result)))

    def count_admit(args, result, _state) -> None:
        add("qos.requests_in", len(args[1]))
        add("qos.admitted_out", len(result))
    recorder.instrument(QosEnforcer, "admit", "qos.admit", after=count_admit)

    def downstream_allocator(scheduler, *_args, **_kwargs) -> bool:
        # DownstreamScheduler names its DbaScheduler "<name>/alloc".
        return scheduler.name.endswith("/alloc")

    def count_backlogged(scheduler, *_args, **_kwargs) -> None:
        add("dba.backlogged", sum(1 for tcont in scheduler.tconts()
                                  if tcont.queued_bytes > 0))
    recorder.instrument(DbaScheduler, "grant", "dba.grant",
                        skip=downstream_allocator, before=count_backlogged)
    recorder.instrument(
        TCont, "drain", "dba.drain",
        skip=lambda tcont, *_a, **_k: isinstance(tcont, DownstreamQueue))

    recorder.instrument(DownstreamScheduler, "run_cycle",
                        "downstream.run_cycle")
    recorder.instrument(DownstreamScheduler, "enqueue", "downstream.enqueue")

    recorder.instrument(PonNetwork, "send_upstream", "pon.send_upstream",
                        after=lambda *_: add("pon.frames"))
    recorder.instrument(PonNetwork, "send_downstream", "pon.send_downstream",
                        after=lambda *_: add("pon.frames"))

    def count_merge(args, delivered, _state) -> None:
        add("events.merged", len(args[1]))
        add("events.deliveries", delivered)
    recorder.instrument(EventBus, "publish_batch", "events.merge",
                        after=count_merge)

    recorder.instrument(
        Scheduler, "run_until", "sim.run_until",
        before=lambda scheduler, *_a, **_k: scheduler.events_fired,
        after=lambda args, _r, fired_before: add(
            "sim.events_fired", args[0].events_fired - fired_before))

    recorder.instrument(fleet.ShardPool, "__init__", "fleet.spawn")
    recorder.instrument(
        fleet.ShardPool, "advance", "fleet.advance",
        after=lambda _args, results, _: add("fleet.result_bytes",
                                            len(pickle.dumps(results))))
    recorder.instrument(fleet.ShardPool, "reports", "fleet.reports")

    runner_init = fleet.ShardRunner.__init__

    @functools.wraps(runner_init)
    def collect_runner(runner, *args: Any, **kwargs: Any) -> None:
        runner_init(runner, *args, **kwargs)
        runners.append(runner)
    fleet.ShardRunner.__init__ = collect_runner

    recorder.instrument(pipeline_module, "build_cve_corpus",
                        "pipeline.cvedb_build")
