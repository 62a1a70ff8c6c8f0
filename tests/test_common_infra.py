"""Unit tests for clock, event bus, and id generation."""

import pickle

import pytest

from repro.common.clock import SimClock
from repro.common.events import Event, EventBus
from repro.common.ids import IdGenerator


class TestSimClock:
    def test_starts_at_epoch(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(2.5)
        assert clock.now == 2.5

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1)

    def test_timers_fire_in_order(self):
        clock = SimClock()
        fired = []
        clock.call_at(5.0, lambda: fired.append(("b", clock.now)))
        clock.call_at(2.0, lambda: fired.append(("a", clock.now)))
        clock.advance(10.0)
        assert fired == [("a", 2.0), ("b", 5.0)]
        assert clock.now == 10.0

    def test_timer_not_due_does_not_fire(self):
        clock = SimClock()
        fired = []
        clock.call_later(5.0, lambda: fired.append(1))
        clock.advance(4.9)
        assert not fired
        assert clock.pending_timers() == 1

    def test_past_timer_rejected(self):
        clock = SimClock(start=10)
        with pytest.raises(ValueError):
            clock.call_at(5.0, lambda: None)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0
        with pytest.raises(ValueError):
            clock.advance_to(3.0)


class TestEventBus:
    def test_exact_topic_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe("host.syscall", seen.append)
        bus.emit("host.syscall", "host-1", 0.0, nr="open")
        bus.emit("host.file", "host-1", 0.0)
        assert len(seen) == 1
        assert seen[0].get("nr") == "open"

    def test_prefix_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("host", seen.append)
        bus.emit("host.syscall", "h", 0.0)
        bus.emit("host.file.write", "h", 0.0)
        bus.emit("pon.frame", "olt", 0.0)
        assert len(seen) == 2

    def test_wildcard_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("", seen.append)
        bus.emit("a", "s", 0.0)
        bus.emit("b.c", "s", 0.0)
        assert len(seen) == 2

    def test_prefix_requires_dot_boundary(self):
        bus = EventBus()
        seen = []
        bus.subscribe("host", seen.append)
        bus.emit("hostile.action", "x", 0.0)
        assert not seen

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe("t", seen.append)
        bus.emit("t", "s", 0.0)
        unsub()
        bus.emit("t", "s", 1.0)
        assert len(seen) == 1

    def test_history_filtering_and_replay(self):
        bus = EventBus()
        bus.emit("a.x", "s", 0.0)
        bus.emit("b.y", "s", 1.0)
        assert [e.topic for e in bus.history("a")] == ["a.x"]
        bus.clear_history()
        assert list(bus.history()) == []

    def test_history_is_bounded(self):
        bus = EventBus(history_limit=10)
        for i in range(25):
            bus.emit("t", "s", float(i))
        assert len(list(bus.history())) <= 11

    def test_event_payload_access(self):
        event = Event(topic="t", source="s", timestamp=1.0, payload={"k": 2})
        assert event.get("k") == 2
        assert event.get("missing", "d") == "d"

    def test_event_payload_defaults_to_a_fresh_dict(self):
        first, second = Event("t", "s", 1.0), Event("t", "s", 1.0)
        assert first.payload == {} and first.payload is not second.payload
        assert Event._make(("t", "s", 1.0, None)).payload == {}

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_event_survives_a_pickle_round_trip(self, protocol):
        event = Event("pon.upstream", "olt-1", 0.25, {"size": 3, "src": "a"})
        copy = pickle.loads(pickle.dumps(event, protocol))
        assert copy == event and type(copy) is Event
        assert copy.get("size") == 3
        assert event._replace(timestamp=0.5) == ("pon.upstream", "olt-1",
                                                 0.5, {"size": 3, "src": "a"})

    def test_emit_on_an_idle_bus_only_records(self):
        from repro.common import telemetry
        was_enabled = telemetry.telemetry_enabled()
        telemetry.set_telemetry_enabled(False)
        try:
            bus = EventBus(history_limit=0)
        finally:
            telemetry.set_telemetry_enabled(was_enabled)
        assert bus._metrics is None
        event = bus.emit("t", "s", 1.0, k=1)
        assert list(bus.history()) == [event] and event.payload == {"k": 1}
        seen = []
        bus.subscribe("t", seen.append)
        assert bus.emit("t", "s", 2.0) in seen
        assert bus.drain_history() == [event, seen[0]]
        assert list(bus.history()) == []


class TestEventBusHistoryBound:
    """Regression tests: the history bound must hold *exactly*.

    The original trim ran after append with ``del history[:limit // 2]``,
    which deletes zero elements when ``limit == 1`` — unbounded growth.
    """

    def test_bound_never_exceeded(self):
        bus = EventBus(history_limit=10)
        for i in range(100):
            bus.emit("t", "s", float(i))
            assert len(list(bus.history())) <= 10
        # the newest events are the ones retained
        assert list(bus.history())[-1].timestamp == 99.0

    def test_limit_of_one_is_bounded(self):
        bus = EventBus(history_limit=1)
        for i in range(50):
            bus.emit("t", "s", float(i))
        (event,) = bus.history()
        assert event.timestamp == 49.0

    def test_bound_holds_when_observed_from_a_handler(self):
        bus = EventBus(history_limit=4)
        sizes = []
        bus.subscribe("t", lambda e: sizes.append(len(list(bus.history()))))
        for i in range(20):
            bus.emit("t", "s", float(i))
        assert max(sizes) <= 4

    def test_unlimited_history_when_limit_zero(self):
        bus = EventBus(history_limit=0)
        for i in range(300):
            bus.emit("t", "s", float(i))
        assert len(list(bus.history())) == 300

    @pytest.mark.parametrize("limit", [1, 2, 4, 10])
    def test_idle_emit_trims_as_publish_does(self, limit):
        from repro.common import telemetry
        was_enabled = telemetry.telemetry_enabled()
        telemetry.set_telemetry_enabled(False)
        try:
            idle, busy = EventBus(limit), EventBus(limit)
        finally:
            telemetry.set_telemetry_enabled(was_enabled)
        busy.subscribe("t", lambda e: None)
        for i in range(3 * limit + 1):
            idle.emit("t", "s", float(i))
            busy.publish(Event("t", "s", float(i)))
            assert list(idle.history()) == list(busy.history())
            if i == limit:
                # One event into a full history drops the oldest half,
                # at least one, before it is appended.
                assert len(list(idle.history())) == (
                    limit - max(1, limit // 2) + 1)


class TestEventBusFilters:
    def test_predicate_filters_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe("sensor", seen.append,
                      predicate=lambda e: e.get("level", 0) >= 3)
        bus.emit("sensor.t", "s", 0.0, level=1)
        bus.emit("sensor.t", "s", 1.0, level=3)
        bus.emit("sensor.t", "s", 2.0, level=7)
        assert [e.get("level") for e in seen] == [3, 7]

    def test_predicate_does_not_affect_other_subscribers(self):
        bus = EventBus()
        picky, greedy = [], []
        bus.subscribe("t", picky.append, predicate=lambda e: False)
        bus.subscribe("t", greedy.append)
        bus.emit("t", "s", 0.0)
        assert not picky and len(greedy) == 1

    def test_history_since(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("t", "s", float(i))
        assert [e.timestamp for e in bus.history(since=3.0)] == [3.0, 4.0]

    def test_history_limit_keeps_newest_in_order(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("t", "s", float(i))
        assert [e.timestamp for e in bus.history(limit=2)] == [3.0, 4.0]

    def test_history_since_and_limit_compose_with_topic(self):
        bus = EventBus()
        for i in range(6):
            bus.emit("a.x" if i % 2 == 0 else "b.y", "s", float(i))
        events = bus.history("a", since=1.0, limit=1)
        assert [(e.topic, e.timestamp) for e in events] == [("a.x", 4.0)]

    def test_history_negative_limit_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.history(limit=-1)


class TestEventBusUnsubscribeClosures:
    def test_two_topic_registrations_are_independent(self):
        """One subscriber on two topics -> two independent closures."""
        bus = EventBus()
        seen = []
        unsub_a = bus.subscribe("a", seen.append)
        unsub_b = bus.subscribe("b", seen.append)
        unsub_a()
        bus.emit("a", "s", 0.0)
        bus.emit("b", "s", 1.0)
        assert [e.topic for e in seen] == ["b"]
        unsub_b()
        bus.emit("b", "s", 2.0)
        assert len(seen) == 1

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe("t", seen.append)
        unsub()
        unsub()     # second call is a no-op, not an error
        bus.emit("t", "s", 0.0)
        assert not seen

    def test_duplicate_registration_on_same_topic(self):
        """Same handler twice on one topic: delivered twice, removable once."""
        bus = EventBus()
        seen = []
        first = bus.subscribe("t", seen.append)
        bus.subscribe("t", seen.append)
        bus.emit("t", "s", 0.0)
        assert len(seen) == 2
        first()
        bus.emit("t", "s", 1.0)
        assert len(seen) == 3

    def test_a_spent_unsubscribe_never_removes_a_later_registration(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe("t", seen.append)
        unsub()                            # empties and drops the pattern
        bus.subscribe("t", seen.append)    # an equal registration
        unsub()
        bus.emit("t", "s", 0.0)
        assert len(seen) == 1


class TestEventBusDeliveryPlan:
    """The cached-plan fast path must be invisible to subscribers."""

    def test_subscribe_after_publish_invalidates_cached_plan(self):
        bus = EventBus()
        first, second = [], []
        bus.subscribe("t", first.append)
        bus.emit("t", "s", 0.0)            # builds and caches the plan
        bus.subscribe("t", second.append)  # must invalidate it
        bus.emit("t", "s", 1.0)
        assert len(first) == 2
        assert len(second) == 1

    def test_unsubscribe_after_publish_invalidates_cached_plan(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe("t", seen.append)
        bus.emit("t", "s", 0.0)
        unsub()
        bus.emit("t", "s", 1.0)
        assert len(seen) == 1

    def test_prefix_match_still_applies_to_new_concrete_topics(self):
        bus = EventBus()
        seen = []
        bus.subscribe("host", seen.append)
        bus.emit("host.syscall", "h", 0.0)
        bus.emit("host.file", "h", 1.0)    # different concrete topic
        assert [e.topic for e in seen] == ["host.syscall", "host.file"]

    def test_unsubscribe_during_delivery_keeps_snapshot(self):
        """Mid-delivery unsubscribes take effect from the *next* publish,
        matching the old copy-the-handler-list semantics."""
        bus = EventBus()
        seen = []
        unsubs = {}
        bus.subscribe("t", lambda e: unsubs["late"]())
        unsubs["late"] = bus.subscribe("t", seen.append)
        bus.emit("t", "s", 0.0)    # late still sees the in-flight event
        bus.emit("t", "s", 1.0)    # but not later ones
        assert len(seen) == 1

    def test_unsubscribed_registrations_are_compacted_away(self):
        """Each unsubscribe removes its own registration at once; the
        emptied pattern leaves the table."""
        bus = EventBus()
        unsubs = [bus.subscribe("t", lambda e: None) for _ in range(20)]
        for unsub in unsubs:
            unsub()
            unsub()    # idempotent
        assert bus._subscribers == {}
        bus.emit("t", "s", 0.0)    # and the bus still publishes fine

    def test_live_subscribers_survive_compaction(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append)
        unsubs = [bus.subscribe("t", lambda e: None) for _ in range(30)]
        for unsub in unsubs:
            unsub()
        bus.emit("t", "s", 0.0)
        assert len(seen) == 1


def _publish_each(events):
    def deliver(bus):
        for event in events:
            bus.publish(event)
    return deliver


def _emit_each(events):
    def deliver(bus):
        for event in events:
            bus.emit(event.topic, event.source, event.timestamp,
                     **event.payload)
    return deliver


_RECORDS = [Event(topic, "s", float(i), {"i": i}) for i, topic
            in enumerate(["a.x", "b", "a.x", "a.y", "c", "b", "a.x"])]
_COUNTS = {"b": 3, "c.z": 2}
# The records a tally of _COUNTS stands for. A tally builds no record, so
# the catch-all subscriber skips their source and history is read
# without them.
COUNTED = "counted"
_COUNTED = [Event(topic, COUNTED, 9.0) for topic, n in _COUNTS.items()
            for _ in range(n)]


def _batch_then_tally(bus):
    delivered = bus.publish_batch(_RECORDS)
    bus.publish_tally(_COUNTS)
    return delivered


# door -> (its delivery, the same traffic as per-event publishes, the
# depth histogram's observations for the door)
DOORS = {
    "publish_batch": (lambda bus: bus.publish_batch(_RECORDS),
                      _publish_each(_RECORDS), 1),
    "emit": (_emit_each(_RECORDS), _publish_each(_RECORDS), len(_RECORDS)),
    "records and counts": (_batch_then_tally,
                           _publish_each(_RECORDS + _COUNTED), 1),
    "publish_tally": (lambda bus: bus.publish_tally(_COUNTS),
                      _publish_each(_COUNTED), 0),
}


def _bus_outcome(deliver, recorded=("a",)):
    """What one delivery leaves on a bus with a prefix, a predicated, a
    catch-all and a tally subscriber, recording ``recorded`` topics:
    ``(returned, history, record deliveries, tallies, registry snapshot
    without the depth histogram, the depth histogram's observations)``.
    ``b`` goes by both as records and as a count.
    """
    from repro.common.telemetry import MetricsRegistry
    registry = MetricsRegistry()
    bus = EventBus(metrics=registry)
    bus.record_only(recorded)
    records, tallies = [], {}

    def tally(topic, n):
        tallies[topic] = tallies.get(topic, 0) + n

    bus.subscribe("a", lambda e: records.append(("a", e)))
    bus.subscribe("", lambda e: records.append(("all", e)),
                  predicate=lambda e: e.source != COUNTED)
    bus.subscribe("a.x", lambda e: records.append(("even", e)),
                  predicate=lambda e: e.get("i", 0) % 2 == 0)
    bus.subscribe_tally("", tally)
    returned = deliver(bus)
    history = [e for e in bus.history() if e.source != COUNTED]
    snapshot = registry.snapshot()
    depth = snapshot.pop("bus_delivery_depth")[()]
    return returned, history, records, tallies, snapshot, depth


class TestEventBusPublishBatch:
    @pytest.mark.parametrize("recorded", [None, ("a",)],
                             ids=["every topic", "a only"])
    @pytest.mark.parametrize("door", DOORS)
    def test_matches_sequential_publishes(self, door, recorded):
        deliver, reference, _ = DOORS[door]
        returned, history, records, tallies, _, _ = _bus_outcome(
            deliver, recorded)
        _, seq_history, seq_records, seq_tallies, _, _ = _bus_outcome(
            reference, recorded)
        assert records == seq_records
        if returned is not None:
            assert returned == len(seq_records)
        assert history == seq_history
        assert tallies == seq_tallies

    def test_subscription_changes_mid_batch_match_sequential_publishes(self):
        # A handler subscribes a new handler at the second event and
        # unsubscribes another at the fourth: the batch's topic plans
        # must follow both changes exactly where sequential publishes do.
        events = [Event(topic, "s", float(i), {"i": i}) for i, topic
                  in enumerate(["a.x", "a.x", "b", "a.x", "a.x", "b"])]

        def run(deliver):
            bus = EventBus()
            seen = []

            def on_a(event):
                seen.append(("a", event.get("i")))
                if event.get("i") == 1:
                    bus.subscribe("", lambda e: seen.append(
                        ("late", e.get("i"))))
                if event.get("i") == 3:
                    unsubscribe_b()

            bus.subscribe("a", on_a)
            unsubscribe_b = bus.subscribe(
                "", lambda e: seen.append(("all", e.get("i"))))
            delivered = deliver(bus)
            return seen, delivered, list(bus.history())

        batch_seen, batch_delivered, batch_history = run(
            lambda bus: bus.publish_batch(events))
        seq_seen, _, seq_history = run(
            lambda bus: [bus.publish(event) for event in events])
        assert batch_seen == seq_seen
        assert batch_delivered == len(seq_seen)
        assert batch_history == seq_history
        # A change takes effect from the next event on, in both modes.
        assert ("late", 1) not in seq_seen and ("late", 2) in seq_seen
        assert ("all", 3) in seq_seen and ("all", 4) not in seq_seen

    def test_empty_batch_is_a_noop(self):
        bus = EventBus()
        assert bus.publish_batch([]) == 0
        assert list(bus.history()) == []

    def test_predicates_apply_per_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append,
                      predicate=lambda e: e.get("level", 0) >= 2)
        bus.publish_batch([Event("t", "s", float(i), {"level": i})
                           for i in range(4)])
        assert [e.get("level") for e in seen] == [2, 3]

    def test_history_bound_holds_for_oversized_batch(self):
        bus = EventBus(history_limit=10)
        bus.publish_batch([Event("t", "s", float(i)) for i in range(25)])
        retained = list(bus.history())
        assert len(retained) == 10
        assert retained[-1].timestamp == 24.0

    def test_history_bound_holds_across_batches(self):
        bus = EventBus(history_limit=10)
        for start in range(0, 40, 4):
            bus.publish_batch([Event("t", "s", float(start + i))
                               for i in range(4)])
            assert len(list(bus.history())) <= 10
        assert list(bus.history())[-1].timestamp == 39.0

    def test_unlimited_history_when_limit_zero(self):
        bus = EventBus(history_limit=0)
        bus.publish_batch([Event("t", "s", float(i)) for i in range(300)])
        assert len(list(bus.history())) == 300

    def test_handler_sees_the_whole_batch_in_history(self):
        bus = EventBus()
        sizes = []
        bus.subscribe("t", lambda e: sizes.append(len(list(bus.history()))))
        bus.publish_batch([Event("t", "s", float(i)) for i in range(5)])
        assert sizes == [5] * 5

    @pytest.mark.parametrize("door", DOORS)
    def test_metrics_match_per_event_publishes(self, door):
        # Every series but the depth histogram reads as per-event
        # publishes would leave it; the histogram observes once per call
        # that carries events.
        deliver, reference, depth_observations = DOORS[door]
        *_, snapshot, depth = _bus_outcome(deliver)
        *_, seq_snapshot, _ = _bus_outcome(reference)
        assert snapshot == seq_snapshot
        assert snapshot["bus_events_total"]
        assert depth == depth_observations


class TestEventBusTally:
    """Tally subscribers count events per topic; records reach only
    record subscribers, and each published record counts once."""

    def test_a_tally_never_reaches_a_record_subscriber(self):
        from repro.common.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)
        records, counts = [], []
        bus.subscribe("", records.append)
        bus.subscribe_tally("", lambda topic, n: counts.append((topic, n)))
        bus.publish_tally({"pon.upstream": 3, "qos.drop": 1})
        assert records == [] and list(bus.history()) == []
        assert counts == [("pon.upstream", 3), ("qos.drop", 1)]
        events = registry.get("bus_events_total")
        assert events.labels(topic="pon.upstream").value == 3
        assert events.labels(topic="qos.drop").value == 1

    @pytest.mark.parametrize("deliver", ["emit", "publish", "publish_batch"])
    def test_a_published_record_counts_once(self, deliver):
        bus = EventBus()
        records, counts = [], {}

        def count(topic, n):
            counts[topic] = counts.get(topic, 0) + n

        bus.subscribe("pon", records.append)
        bus.subscribe_tally("", count)
        events = [Event("pon.upstream", "s", float(i)) for i in range(3)]
        events.append(Event("qos.drop", "s", 3.0))
        if deliver == "emit":
            for event in events:
                bus.emit(event.topic, event.source, event.timestamp)
        elif deliver == "publish":
            for event in events:
                bus.publish(event)
        else:
            assert bus.publish_batch(events) == 3
        assert [e.topic for e in records] == ["pon.upstream"] * 3
        assert counts == {"pon.upstream": 3, "qos.drop": 1}

    def test_tally_subscriptions_match_by_prefix_and_unsubscribe(self):
        bus = EventBus()
        counts = []
        unsubscribe = bus.subscribe_tally(
            "pon", lambda topic, n: counts.append((topic, n)))
        bus.publish_tally({"pon.upstream": 2, "ponder": 5, "qos.drop": 1})
        unsubscribe()
        bus.publish_tally({"pon.upstream": 7})
        assert counts == [("pon.upstream", 2)]

    def test_interest_follows_subscribe_unsubscribe_and_compaction(self):
        bus = EventBus()
        assert bus.interest() == ()
        unsubscribe_a = bus.subscribe("a", lambda e: None)
        bus.subscribe("b.x", lambda e: None, predicate=lambda e: False)
        bus.subscribe_tally("c", lambda topic, n: None)
        assert bus.interest() == ("a", "b.x")
        unsubscribe_a()
        assert bus.interest() == ("b.x",)
        for unsubscribe in [bus.subscribe("d", lambda e: None)
                            for _ in range(40)]:
            unsubscribe()
        assert bus.interest() == ("b.x",)
        assert sorted(bus._subscribers) == ["b.x", "c"]
        bus.subscribe("", lambda e: None)
        assert bus.interest() == ("", "b.x")


class TestEventBusRecordOnly:
    def test_idle_bus_builds_only_recorded_topics_and_counts_the_rest(self):
        from repro.common import telemetry
        was_enabled = telemetry.telemetry_enabled()
        telemetry.set_telemetry_enabled(False)
        try:
            bus = EventBus(history_limit=0)
        finally:
            telemetry.set_telemetry_enabled(was_enabled)
        bus.record_only(("pon.upstream",))
        kept = bus.emit("pon.upstream", "s", 0.0, size=3)
        assert bus.emit("pon.downstream", "s", 1.0) is None
        assert bus.emit("qos.drop", "s", 2.0) is None
        bus.emit("pon.downstream", "s", 3.0)
        assert bus.drain_history() == [kept]
        assert bus.drain_tally() == {"pon.downstream": 2, "qos.drop": 1}
        assert bus.drain_tally() == {}
        bus.record_only(None)
        bus.emit("qos.drop", "s", 4.0)
        assert [e.topic for e in bus.drain_history()] == ["qos.drop"]
        assert bus.drain_tally() == {}

    @pytest.mark.parametrize("batch", [False, True])
    def test_subscribers_still_receive_what_history_skips(self, batch):
        bus = EventBus()
        seen = []
        bus.subscribe("", seen.append)
        bus.record_only(("a",))
        events = [Event("a.x", "s", 0.0), Event("b", "s", 1.0),
                  Event("b", "s", 2.0)]
        if batch:
            bus.publish_batch(events)
        else:
            for event in events:
                bus.publish(event)
        assert seen == events
        assert list(bus.history()) == events[:1]
        assert bus.drain_tally() == {"b": 2}


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        gen = IdGenerator()
        assert gen.next("onu") == "onu-1"
        assert gen.next("onu") == "onu-2"
        assert gen.next("pod") == "pod-1"

    def test_peek_and_reset(self):
        gen = IdGenerator()
        gen.next("x")
        assert gen.peek("x") == 1
        gen.reset()
        assert gen.next("x") == "x-1"

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            IdGenerator().next("")
