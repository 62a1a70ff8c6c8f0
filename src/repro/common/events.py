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
handler lists per event.

:meth:`EventBus.publish`, :meth:`EventBus.publish_batch` and
:meth:`EventBus.publish_tally` are three doors into one delivery
routine: it keeps the events in history under the bus's one trim rule,
hands each to its record subscribers, calls each topic's tally
subscribers once and meters each topic once. A batch therefore reaches
the same subscribers in the same order, with the same counter totals, as
its events published one by one, while the trim and the metrics updates
run once for the whole batch — which is why fleet-scale cycle loops
publish through ``publish_batch``.
:meth:`EventBus.emit` builds the event and takes the same routine.

Subscribers come in two kinds. A *record* subscriber
(:meth:`EventBus.subscribe`) receives each :class:`Event`; a *tally*
subscriber (:meth:`EventBus.subscribe_tally`) only learns how many
events of each topic went by. Every published record counts once for
tally subscribers, and :meth:`EventBus.publish_tally` reports events
that were never built at all. The bus's :meth:`EventBus.interest` — the
topic patterns of its live record subscriptions — is therefore all that
a producer has to build records for: a fleet shard bus set to
:meth:`EventBus.record_only` the parent's interest keeps those events
and only counts the rest, the way Falco only collects the event types
its loaded rules reference.

:class:`Event` is a tuple-backed immutable record: a fleet run moves
tens of thousands of them from shard buses to the parent bus, so an
event costs one 4-tuple rather than an object with a ``__dict__``, and
it crosses a process boundary as it is. On a bus with no subscription
and no metrics (every fleet shard bus) :meth:`EventBus.emit` skips
delivery and only keeps the event, under the same trim rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
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
TallySubscriber = Callable[[str, int], None]
Predicate = Callable[[Event], bool]


@dataclass(eq=False)
class _Subscription:
    """One registration: a handler plus an optional delivery predicate.

    ``tally`` marks a :data:`TallySubscriber`, called with
    ``(topic, count)`` instead of an event. Registrations compare by
    identity, so unsubscribing removes exactly its own.
    """

    handler: Callable[..., None]
    predicate: Optional[Predicate] = None
    tally: bool = False


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
    :meth:`record_only` narrows what history keeps to some topics.
    """

    def __init__(self, history_limit: int = 100_000,
                 metrics: Optional[object] = None) -> None:
        if history_limit < 0:
            raise ValueError("history_limit must be non-negative")
        self._subscribers: Dict[str, List[_Subscription]] = {}
        self._history: List[Event] = []
        self._history_limit = history_limit
        self._publish_depth = 0
        # Delivery-plan cache: concrete topic -> (version, matching record
        # subscriptions, matching tally subscriptions). Any subscribe or
        # unsubscribe bumps the version; stale plans are rebuilt lazily
        # on their next publish.
        self._plan_version = 0
        self._plans: Dict[str, Tuple[int, List[_Subscription],
                                     List[_Subscription]]] = {}
        # record_only(): the recorded patterns (None: every topic), a
        # per-topic cache of the verdict, and the counts of the rest.
        self._recorded: Optional[Tuple[str, ...]] = None
        self._recorded_topics: Dict[str, bool] = {}
        self._tally: Dict[str, int] = {}
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
        intend to use. Unsubscribing takes effect from the next publish,
        calling it again does nothing, and a pattern left with no
        registration leaves the table.
        """
        return self._register(topic, _Subscription(subscriber, predicate))

    def subscribe_tally(self, topic: str,
                        subscriber: TallySubscriber) -> Callable[[], None]:
        """Register a counting-only ``subscriber(topic, count)`` for ``topic``.

        It is called once per published event with a count of 1, once
        per topic with the topic's total for :meth:`publish_batch`, and
        with the counts handed to :meth:`publish_tally`. It never sees an
        event, so it adds nothing to :meth:`interest`. Returns an
        unsubscribe callable, as :meth:`subscribe` does.
        """
        return self._register(topic, _Subscription(subscriber, tally=True))

    def _register(self, topic: str,
                  subscription: _Subscription) -> Callable[[], None]:
        self._subscribers.setdefault(topic, []).append(subscription)
        self._plan_version += 1

        def unsubscribe() -> None:
            handlers = self._subscribers.get(topic)
            if handlers is None or subscription not in handlers:
                return
            handlers.remove(subscription)
            if not handlers:
                del self._subscribers[topic]
            self._plan_version += 1

        return unsubscribe

    def interest(self) -> Tuple[str, ...]:
        """The sorted topic patterns of the live record subscriptions.

        These are the topics whose events someone reads as records;
        everything else only needs counting. A predicated subscription
        counts as interest (the predicate needs the event to decide);
        tally subscriptions do not.
        """
        return tuple(sorted(
            pattern for pattern, handlers in self._subscribers.items()
            if any(not s.tally for s in handlers)))

    def _plan(self, topic: str) -> Tuple[int, List[_Subscription],
                                         List[_Subscription]]:
        """The cached, version-checked delivery plan for a concrete topic:
        ``(version, record subscriptions, tally subscriptions)``."""
        cached = self._plans.get(topic)
        if cached is not None and cached[0] == self._plan_version:
            return cached
        matching = [subscription
                    for pattern, handlers in self._subscribers.items()
                    if topic_matches(pattern, topic)
                    for subscription in handlers]
        plan = (self._plan_version,
                [s for s in matching if not s.tally],
                [s for s in matching if s.tally])
        self._plans[topic] = plan
        return plan

    def record_only(self, patterns: Optional[Iterable[str]]) -> None:
        """Keep only events under ``patterns`` in history; count the rest.

        ``patterns`` are dotted-prefix topic patterns, the shape
        :meth:`interest` returns. An event whose topic matches none of
        them is still delivered to subscribers, but history skips it and
        :meth:`drain_tally` counts it instead; on a bus with no
        subscription and no metrics, :meth:`emit` does not even build
        it. ``None`` (the default) records every topic.
        """
        self._recorded = None if patterns is None else tuple(patterns)
        self._recorded_topics = {}

    def _records(self, topic: str) -> bool:
        """Whether history keeps events of ``topic`` (see :meth:`record_only`)."""
        recorded = self._recorded
        if recorded is None:
            return True
        keep = self._recorded_topics.get(topic)
        if keep is None:
            keep = self._recorded_topics[topic] = any(
                topic_matches(pattern, topic) for pattern in recorded)
        return keep

    def _count_unrecorded(self, topic: str) -> None:
        tally = self._tally
        tally[topic] = tally.get(topic, 0) + 1

    def _keep(self, kept: Sequence[Event]) -> None:
        """Append ``kept`` to history, trimming first so the bound holds.

        The one trim rule: when the new events would overflow the bound,
        drop the oldest ``max(overflow, limit // 2)`` in one slice
        *before* appending, so history never exceeds ``history_limit`` —
        not even transiently, not even for handlers that read history
        mid-delivery. A batch larger than the bound keeps only its newest
        ``limit`` events. A limit of zero means unlimited retention.
        """
        limit = self._history_limit
        history = self._history
        overflow = len(history) + len(kept) - limit
        if limit and overflow > 0:
            del history[: max(overflow, limit // 2)]
            if len(kept) > limit:
                kept = kept[len(kept) - limit:]
        history.extend(kept)

    def _deliver(self, events: Sequence[Event],
                 counts: Mapping[str, int]) -> int:
        """The one delivery routine; returns record deliveries.

        In order: history keeps ``events`` (or :meth:`drain_tally`
        counts those outside :meth:`record_only`); each event reaches its
        topic's record subscribers, the plan re-read per event so a
        subscription change takes effect from the next one; each topic's
        tally subscribers, as its last event's plan names them, are
        called once with its event count plus its entry in ``counts``,
        and the topic is metered once. Only a call that carries events
        observes the depth histogram and sets the history gauge: counts
        alone touch neither.
        """
        kept = events
        if self._recorded is not None:
            kept = []
            for event in events:
                if self._records(event.topic):
                    kept.append(event)
                else:
                    self._count_unrecorded(event.topic)
        self._keep(kept)
        delivered_total = 0
        # topic -> [topic, published, record deliveries, tally
        # subscriptions], in first-seen order
        rows: Dict[str, list] = {}
        self._publish_depth += 1
        try:
            for event in events:
                topic = event.topic
                _, records, tallies = self._plan(topic)
                delivered = 0
                for subscription in records:
                    if subscription.predicate is None \
                            or subscription.predicate(event):
                        subscription.handler(event)
                        delivered += 1
                row = rows.get(topic)
                if row is None:
                    rows[topic] = [topic, 1, delivered, tallies]
                else:
                    row[1] += 1
                    row[2] += delivered
                    row[3] = tallies
                delivered_total += delivered
            for topic, count in counts.items():
                rows.setdefault(
                    topic, [topic, 0, 0, self._plan(topic)[2]])[1] += count
            metrics = self._metrics
            for topic, published, delivered, tallies in rows.values():
                for subscription in tallies:
                    subscription.handler(topic, published)
                if metrics is not None:
                    children = self._children(topic)
                    children[0].inc(published)
                    if delivered:
                        children[1].inc(delivered)
            if events and metrics is not None:
                self._depth_child.observe(self._publish_depth)
                self._history_child.set(len(self._history))
        finally:
            self._publish_depth -= 1
        return delivered_total

    def _children(self, topic: str) -> tuple:
        """The topic's (events, deliveries) counter children, resolved once."""
        children = self._topic_children.get(topic)
        if children is None:
            children = self._topic_children[topic] = (
                self._events_counter.labels(topic=topic),
                self._deliveries_counter.labels(topic=topic))
        return children

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to every matching subscriber and record it.

        Record subscribers receive the event, then tally subscribers
        count it once.
        """
        self._deliver((event,), {})

    def publish_batch(self, events: Sequence[Event]) -> int:
        """Publish a pre-ordered batch of events; returns record deliveries.

        Delivered by the same routine as :meth:`publish` — same delivery
        plans, same predicates, same counter totals — with the per-event
        bookkeeping done once for the batch:

        * history is trimmed once, and the whole batch is kept *before*
          delivery starts, so a handler reading history mid-batch sees
          the full batch (the bound still holds exactly);
        * tally subscribers are called once per topic with the topic's
          count, after every record has been delivered;
        * ``bus_events_total``/``bus_deliveries_total`` get one ``inc``
          per distinct topic instead of one per event, the history gauge
          is set once, and the depth histogram records one observation
          for the batch.

        Fleet drivers use this to flush a cycle's merged shard events in
        one call.
        """
        return self._deliver(list(events), {})

    def publish_tally(self, counts: Mapping[str, int]) -> None:
        """Report events that were counted but never built.

        ``counts`` maps each topic to how many of its events went by.
        Each count reaches the topic's tally subscribers (never a record
        subscriber) and feeds ``bus_events_total{topic}``; nothing enters
        history. A fleet driver publishes its shards' tallies this way.
        """
        self._deliver((), counts)

    def emit(self, topic: str, source: str, timestamp: float,
             **payload: Any) -> Optional[Event]:
        """Build and publish an event in one call; returns the event.

        With no subscription and no metrics there is nothing to deliver
        or count, so the event is only recorded — or, for a topic outside
        :meth:`record_only`, only counted, and never built (the call then
        returns ``None``).
        """
        if self._subscribers or self._metrics is not None:
            event = Event(topic, source, timestamp, payload)
            self._deliver((event,), {})
            return event
        if not self._records(topic):
            self._count_unrecorded(topic)
            return None
        event = Event(topic, source, timestamp, payload)
        self._keep((event,))
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
            if (topic is None or topic_matches(topic, event.topic))
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

    def drain_tally(self) -> Dict[str, int]:
        """Hand back the per-topic counts of events history did not keep
        (see :meth:`record_only`), in first-seen order, and forget them."""
        drained, self._tally = self._tally, {}
        return drained


def topic_matches(pattern: str, topic: str) -> bool:
    """True if ``pattern`` equals ``topic`` or is a dotted prefix of it."""
    if pattern == "" or pattern == topic:
        return True
    return topic.startswith(pattern + ".")
