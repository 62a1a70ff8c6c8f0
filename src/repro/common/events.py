"""Typed event bus.

The GENIO reproduction is heavily instrumented: the PON plant emits frame
events, hosts emit syscall and file events, the orchestrator emits API
audit events. Security components (the Falco-like monitor, Tripwire-like
FIM, audit loggers) subscribe to these streams. A single lightweight bus
keeps the coupling loose and lets experiments tap any stream.

The bus is itself a telemetry source: when the process-wide metrics
registry is active (see :mod:`repro.common.telemetry`), every publish
feeds ``bus_events_total{topic}``, ``bus_deliveries_total{topic}`` (the
subscriber fan-out), the ``bus_delivery_depth`` histogram (re-entrant
publishes from inside handlers) and the ``bus_history_size`` gauge.

Delivery is driven by a *cached plan*: the first publish of a concrete
topic resolves which subscriptions match (exact + dotted-prefix) into a
flat list that every later publish of that topic reuses. Subscribing or
unsubscribing bumps a plan version, so stale plans are rebuilt lazily on
their next use — the hot path never re-walks the pattern table or copies
handler lists per event. Fleet-scale cycle loops publish through
:meth:`EventBus.publish_batch`, which amortises the history trim and the
metrics updates across a whole cycle's events.

:class:`Event` is a tuple-backed immutable record: a fleet run moves
tens of thousands of them from shard buses to the parent bus, so an
event costs one 4-tuple rather than an object with a ``__dict__``, and
it crosses a process boundary as it is. A bus with no live subscription
and no metrics (every fleet shard bus) only records what it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)


class _EventFields(NamedTuple):
    topic: str
    source: str
    timestamp: float
    payload: Dict[str, Any]


class Event(_EventFields):
    """A single immutable event on the bus.

    :param topic: dotted topic name, e.g. ``"host.syscall"`` or ``"pon.frame"``.
    :param source: identifier of the emitting component.
    :param timestamp: simulated time of emission.
    :param payload: arbitrary structured data describing the event
        (a fresh empty dict when omitted).

    Every construction path — positional, keyword, ``_make``,
    ``_replace`` and unpickling — goes through :meth:`__new__`.
    """

    __slots__ = ()

    def __new__(cls, topic: str, source: str, timestamp: float,
                payload: Optional[Dict[str, Any]] = None) -> "Event":
        return tuple.__new__(cls, (topic, source, timestamp,
                                   {} if payload is None else payload))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Event":
        return cls(*iterable)

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return type(self), tuple(self)

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into the payload."""
        return self.payload.get(key, default)


Subscriber = Callable[[Event], None]
Predicate = Callable[[Event], bool]

# Compact the pattern table once this many registrations are tombstones
# (and they outnumber the live ones) — amortised O(1) per unsubscribe.
_COMPACT_THRESHOLD = 16


@dataclass
class _Subscription:
    """One registration: a handler plus an optional delivery predicate.

    ``active`` is the unsubscribe tombstone: delivery plans skip inactive
    registrations when they are (re)built, so unsubscribing never scans a
    handler list — it just flips the flag and invalidates the plans.
    """

    handler: Subscriber
    predicate: Optional[Predicate] = None
    active: bool = True

    def wants(self, event: Event) -> bool:
        return self.predicate is None or self.predicate(event)


class EventBus:
    """Publish/subscribe bus with exact and prefix topic matching.

    Subscribing to ``"host"`` receives ``"host.syscall"``, ``"host.file"``
    and every other ``host.*`` topic; subscribing to ``""`` receives all
    events. Events are also retained in a bounded history so late-attaching
    analysers (and tests) can replay what happened.

    ``history_limit`` bounds retention: the oldest half is trimmed when
    the bound is reached. ``history_limit=0`` means *unlimited retention*
    (nothing is ever trimmed) — not to be confused with
    ``history(limit=0)``, which selects zero events from what is retained.
    """

    def __init__(self, history_limit: int = 100_000,
                 metrics: Optional[object] = None) -> None:
        if history_limit < 0:
            raise ValueError("history_limit must be non-negative")
        self._subscribers: Dict[str, List[_Subscription]] = {}
        self._history: List[Event] = []
        self._history_limit = history_limit
        self._publish_depth = 0
        # Delivery-plan cache: concrete topic -> (version, matching
        # subscriptions). Any subscribe/unsubscribe bumps the version;
        # stale plans are rebuilt lazily on their next publish.
        self._plan_version = 0
        self._plans: Dict[str, Tuple[int, List[_Subscription]]] = {}
        self._live_subscriptions = 0
        self._tombstones = 0
        if metrics is None:
            from repro.common import telemetry
            metrics = telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._events_counter = metrics.counter(
                "bus_events_total", "Events published, by topic.", ("topic",))
            self._deliveries_counter = metrics.counter(
                "bus_deliveries_total",
                "Subscriber deliveries (fan-out), by topic.", ("topic",))
            self._depth_histogram = metrics.histogram(
                "bus_delivery_depth",
                "Publish nesting depth (handlers publishing from handlers).",
                buckets=(1, 2, 3, 5, 8))
            self._history_gauge = metrics.gauge(
                "bus_history_size", "Events currently retained in history.")
            # Pre-resolved children keep the hot path to plain attribute
            # bumps — no label resolution per event.
            self._depth_child = self._depth_histogram.labels()
            self._history_child = self._history_gauge.labels()
            # topic -> (events child, deliveries child)
            self._topic_children: Dict[str, tuple] = {}

    def subscribe(self, topic: str, subscriber: Subscriber,
                  predicate: Optional[Predicate] = None) -> Callable[[], None]:
        """Register ``subscriber`` for ``topic`` (prefix match on dots).

        ``predicate`` optionally filters delivery further: the subscriber
        only sees events for which ``predicate(event)`` is true, so
        monitors no longer re-filter streams (or full history) by hand.

        Returns an unsubscribe callable. Each callable removes exactly the
        registration that created it — registering the same subscriber on
        two topics yields two independent registrations, and unsubscribing
        one leaves the other delivering. Keep every returned callable you
        intend to use. Unsubscribing is O(1): the registration is
        tombstoned (and compacted away later), never searched for.
        """
        subscription = _Subscription(handler=subscriber, predicate=predicate)
        self._subscribers.setdefault(topic, []).append(subscription)
        self._live_subscriptions += 1
        self._plan_version += 1

        def unsubscribe() -> None:
            if not subscription.active:
                return
            subscription.active = False
            self._live_subscriptions -= 1
            self._tombstones += 1
            self._plan_version += 1
            if (self._tombstones >= _COMPACT_THRESHOLD
                    and self._tombstones >= self._live_subscriptions):
                self._compact()

        return unsubscribe

    def _compact(self) -> None:
        """Drop tombstoned registrations from the pattern table."""
        for handlers in self._subscribers.values():
            handlers[:] = [s for s in handlers if s.active]
        self._tombstones = 0

    def _plan(self, topic: str) -> List[_Subscription]:
        """The cached, version-checked delivery plan for a concrete topic."""
        cached = self._plans.get(topic)
        if cached is not None and cached[0] == self._plan_version:
            return cached[1]
        plan = [subscription
                for pattern, handlers in self._subscribers.items()
                if _topic_matches(pattern, topic)
                for subscription in handlers if subscription.active]
        self._plans[topic] = (self._plan_version, plan)
        return plan

    def _remember(self, event: Event) -> None:
        if self._history_limit and len(self._history) >= self._history_limit:
            # Amortised trim: drop the oldest half (at least one) in one
            # slice *before* appending, so history never exceeds the
            # documented bound — not even transiently, not even for
            # handlers that read history mid-delivery. A limit of zero
            # means unlimited retention.
            del self._history[: max(1, self._history_limit // 2)]
        self._history.append(event)

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to every matching subscriber and record it."""
        self._remember(event)
        delivered = 0
        self._publish_depth += 1
        try:
            for subscription in self._plan(event.topic):
                if subscription.predicate is None \
                        or subscription.predicate(event):
                    subscription.handler(event)
                    delivered += 1
        finally:
            self._publish_depth -= 1
        if self._metrics is not None:
            children = self._topic_children.get(event.topic)
            if children is None:
                children = (
                    self._events_counter.labels(topic=event.topic),
                    self._deliveries_counter.labels(topic=event.topic))
                self._topic_children[event.topic] = children
            children[0].inc()
            if delivered:
                children[1].inc(delivered)
            self._depth_child.observe(self._publish_depth + 1)
            self._history_child.set(len(self._history))

    def publish_batch(self, events: Sequence[Event]) -> int:
        """Publish a pre-ordered batch of events; returns total deliveries.

        Semantically equivalent to calling :meth:`publish` per event —
        same delivery plans, same predicates, same counter totals — but
        the per-event bookkeeping is amortised across the batch:

        * the history trim runs once for the whole batch (the bound still
          holds exactly, never exceeded even transiently), and the whole
          batch is appended to history *before* delivery starts, so a
          handler reading history mid-batch sees the full batch;
        * ``bus_events_total``/``bus_deliveries_total`` get one ``inc``
          per distinct topic instead of one per event, the history gauge
          is set once, and the depth histogram records one observation
          for the batch.

        Fleet drivers use this to flush a cycle's merged shard events in
        one call.
        """
        events = list(events)
        if not events:
            return 0
        limit = self._history_limit
        history = self._history
        if not limit:
            history.extend(events)
        elif len(events) >= limit:
            history.clear()
            history.extend(events[len(events) - limit:])
        else:
            overflow = len(history) + len(events) - limit
            if overflow > 0:
                del history[: max(overflow, max(1, limit // 2))]
            history.extend(events)
        delivered_total = 0
        per_topic: Dict[str, List[int]] = {}
        self._publish_depth += 1
        try:
            for event in events:
                delivered = 0
                for subscription in self._plan(event.topic):
                    if subscription.predicate is None \
                            or subscription.predicate(event):
                        subscription.handler(event)
                        delivered += 1
                counts = per_topic.get(event.topic)
                if counts is None:
                    per_topic[event.topic] = [1, delivered]
                else:
                    counts[0] += 1
                    counts[1] += delivered
                delivered_total += delivered
        finally:
            self._publish_depth -= 1
        if self._metrics is not None:
            for topic, (published, delivered) in per_topic.items():
                children = self._topic_children.get(topic)
                if children is None:
                    children = (
                        self._events_counter.labels(topic=topic),
                        self._deliveries_counter.labels(topic=topic))
                    self._topic_children[topic] = children
                children[0].inc(published)
                if delivered:
                    children[1].inc(delivered)
            self._depth_child.observe(self._publish_depth + 1)
            self._history_child.set(len(self._history))
        return delivered_total

    def emit(self, topic: str, source: str, timestamp: float, **payload: Any) -> Event:
        """Build and publish an event in one call; returns the event.

        With no live subscription and no metrics there is nothing to
        deliver or count, so the event is only recorded.
        """
        event = Event(topic, source, timestamp, payload)
        if self._live_subscriptions or self._metrics is not None:
            self.publish(event)
        else:
            self._remember(event)
        return event

    def history(self, topic: Optional[str] = None,
                since: Optional[float] = None,
                limit: Optional[int] = None) -> Iterator[Event]:
        """Iterate retained events, optionally filtered.

        :param topic: topic prefix filter (dot-boundary match).
        :param since: only events with ``timestamp >= since``.
        :param limit: at most the *newest* ``limit`` matching events,
            still yielded in chronological order. ``limit=0`` selects
            zero events (an empty iterator) — unlike the constructor's
            ``history_limit=0``, which retains *everything*.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        matching = [
            event for event in self._history
            if (topic is None or _topic_matches(topic, event.topic))
            and (since is None or event.timestamp >= since)
        ]
        if limit is not None:
            matching = matching[len(matching) - limit:] if limit else []
        return iter(matching)

    def clear_history(self) -> None:
        """Forget retained events (subscribers stay registered)."""
        self._history.clear()

    def drain_history(self) -> List[Event]:
        """Hand back every retained event, oldest first, and forget them."""
        drained, self._history = self._history, []
        return drained


def _topic_matches(pattern: str, topic: str) -> bool:
    """True if ``pattern`` equals ``topic`` or is a dotted prefix of it."""
    if pattern == "" or pattern == topic:
        return True
    return topic.startswith(pattern + ".")
