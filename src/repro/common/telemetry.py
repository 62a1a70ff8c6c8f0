"""Telemetry: metrics and tracing for the reproduction.

The paper's Lessons 4-8 are quantitative claims about tool overhead,
false-positive rates and integration friction; measuring them needs a
substrate. This module provides one, modelled on the OSS observability
stack an operator would actually deploy next to Falco and Vuls:

* :class:`MetricsRegistry` -- Prometheus-style counters, gauges and
  histograms, all supporting labels, with a text exporter
  (:meth:`MetricsRegistry.render`) in the Prometheus exposition format.
* :class:`Tracer` -- nested spans timestamped from both the wall clock
  (real overhead) and a :class:`~repro.common.clock.SimClock` (simulated
  operational time), so a pipeline step can report "took 3 ms of CPU to
  simulate 2 days of patching".

Instrumented components (the event bus, the PON plant, the scanners,
the Falco engine, the security pipeline) pick up the process-wide
default registry via :func:`active_registry`. Telemetry is enabled by
default and can be switched off globally with
:func:`set_telemetry_enabled` -- the E17 benchmark measures the cost of
exactly this switch.
"""

from __future__ import annotations

import bisect
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.common.clock import SimClock, default_clock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_registry",
    "default_registry",
    "reset_default_registry",
    "set_telemetry_enabled",
    "telemetry_enabled",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Default latency buckets, in seconds; tuned for the hot paths this
# reproduction measures (sub-millisecond bus publishes up to multi-second
# pipeline steps).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
    float("inf"),
)


def _fmt(value: float) -> str:
    """Format a sample the way Prometheus does (integers without '.0')."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Metric children (one per unique label combination)
# ---------------------------------------------------------------------------


class _CounterChild:
    """A single monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class _GaugeChild:
    """A single sample that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """Cumulative bucket counts plus sum/count, Prometheus-style."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Counts as exported: each bucket includes all smaller ones."""
        out, running = [], 0
        for bucket_count in self.counts:
            running += bucket_count
            out.append(running)
        return out


# ---------------------------------------------------------------------------
# Metric families
# ---------------------------------------------------------------------------


class _MetricFamily:
    """Shared machinery: a named metric with zero or more label dimensions."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ValueError("duplicate label names")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _child(self, labels: Mapping[str, object]):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def labels(self, **labels: object):
        """The child for one label combination (created on first use)."""
        return self._child(labels)

    @property
    def samples(self) -> Dict[Tuple[str, ...], object]:
        """label-values tuple -> child, for inspection in tests."""
        return dict(self._children)

    def cardinality(self) -> int:
        """Number of distinct label combinations seen so far."""
        return len(self._children)


class Counter(_MetricFamily):
    """A monotonically increasing count (events, frames, alerts)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._child(labels).inc(amount)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(child.value for child in self._children.values())


class Gauge(_MetricFamily):
    """A sampled value that can rise and fall (queue depth, history size)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: object) -> None:
        self._child(labels).set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._child(labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self._child(labels).dec(amount)

    def total(self) -> float:
        return sum(child.value for child in self._children.values())


class Histogram(_MetricFamily):
    """A distribution with cumulative buckets (durations, sizes)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        self._child(labels).observe(value)

    def total(self) -> float:
        """Total number of observations across label combinations."""
        return float(sum(child.count for child in self._children.values()))


# ---------------------------------------------------------------------------
# The registry + exporter
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Holds metric families and renders them in the Prometheus text format.

    Re-registering a name returns the existing family (so independently
    constructed components share counters), but a kind or label-schema
    mismatch is an error -- it would silently split the series.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _MetricFamily] = {}

    # -- registration ----------------------------------------------------------

    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> _MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}")
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}")
            return existing
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    # -- inspection ------------------------------------------------------------

    def get(self, name: str) -> _MetricFamily:
        family = self._families.get(name)
        if family is None:
            raise KeyError(f"no metric named {name!r}")
        return family

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> List[_MetricFamily]:
        return list(self._families.values())

    def total(self, name: str) -> float:
        """Convenience: the family's total, or 0.0 if never registered."""
        family = self._families.get(name)
        return family.total() if family is not None else 0.0

    def snapshot(self) -> Dict[str, Dict[Tuple[str, ...], float]]:
        """Plain-dict view: name -> {label values -> value/count}."""
        out: Dict[str, Dict[Tuple[str, ...], float]] = {}
        for name, family in self._families.items():
            series: Dict[Tuple[str, ...], float] = {}
            for key, child in family.samples.items():
                if isinstance(child, _HistogramChild):
                    series[key] = float(child.count)
                else:
                    series[key] = child.value
            out[name] = series
        return out

    def reset(self) -> None:
        """Drop every family (registrations included)."""
        self._families.clear()

    # -- the exporter ----------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text exposition format, deterministically ordered."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.samples):
                child = family.samples[key]
                base = list(zip(family.labelnames, key))
                if isinstance(child, _HistogramChild):
                    for bound, cumulative in zip(
                            child.buckets, child.cumulative_counts()):
                        labels = _render_labels(
                            base + [("le", _fmt(bound))])
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _render_labels(base)
                    lines.append(f"{name}_sum{labels} {_fmt(child.sum)}")
                    lines.append(f"{name}_count{labels} {child.count}")
                else:
                    labels = _render_labels(base)
                    lines.append(f"{name}{labels} {_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed operation, nested under whatever span was open above it.

    Durations come in two flavours: ``wall`` (real seconds the operation
    took to execute -- tool overhead) and ``sim`` (simulated seconds that
    elapsed on the :class:`SimClock` while it ran -- operational time).
    """

    name: str
    attributes: Dict[str, object] = field(default_factory=dict)
    sim_start: float = 0.0
    sim_end: float = 0.0
    wall_start: float = 0.0
    wall_end: float = 0.0
    children: List["Span"] = field(default_factory=list)
    parent: Optional["Span"] = field(default=None, repr=False)

    @property
    def sim_duration(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def depth(self) -> int:
        span, depth = self, 0
        while span.parent is not None:
            span, depth = span.parent, depth + 1
        return depth

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Produces nested :class:`Span` objects timestamped from a SimClock."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or default_clock()
        self.finished: List[Span] = []     # completion order
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span; nests under the currently open span, if any."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, attributes=dict(attributes), parent=parent,
                    sim_start=self.clock.now,
                    wall_start=time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.sim_end = self.clock.now
            span.wall_end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children.append(span)
            self.finished.append(span)

    def roots(self) -> List[Span]:
        """Completed top-level spans, in completion order."""
        return [span for span in self.finished if span.parent is None]

    def find(self, name: str) -> List[Span]:
        """Completed spans with exactly this name."""
        return [span for span in self.finished if span.name == name]

    def active_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None


# ---------------------------------------------------------------------------
# Process-wide defaults
# ---------------------------------------------------------------------------

_default_registry: Optional[MetricsRegistry] = None
_enabled: bool = True


def default_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented component shares."""
    global _default_registry
    if _default_registry is None:
        _default_registry = MetricsRegistry()
    return _default_registry


def reset_default_registry() -> None:
    """Forget the process-wide registry (test fixtures, CLI snapshots)."""
    global _default_registry
    _default_registry = None


def set_telemetry_enabled(enabled: bool) -> None:
    """Globally enable/disable default instrumentation.

    Components consult this once, at construction (each reads
    :func:`active_registry` in its constructor and never again): a bus
    built while telemetry is disabled stays uninstrumented for its
    lifetime, which is what the E17 overhead benchmark compares against.
    A fleet shard relies on the same rule: it switches telemetry off
    around its own construction only, then restores the previous value.
    """
    global _enabled
    _enabled = bool(enabled)


def telemetry_enabled() -> bool:
    return _enabled


def active_registry() -> Optional[MetricsRegistry]:
    """The default registry if telemetry is enabled, else None.

    Instrumented components call this when no explicit registry is
    injected; a ``None`` return means "emit nothing, cost nothing".
    """
    return default_registry() if _enabled else None
