"""Tests for the downstream scheduling plane (PR 5 tentpole).

Covers the bounded per-ONU queues, the strict-priority/weighted-fair
drain (the allocator's flat arrays vs the per-queue reference cycle in
``tests/oracles.py``), the per-cycle budget from the OLT's line rates,
the bidirectional load
generator, and the CLI flags.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import telemetry
from repro.common.events import EventBus
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.traffic import (
    DownstreamScheduler, LoadGenerator, QosEnforcer,
    Request, TenantSpec, run_traffic_experiment,
)
from repro.traffic.dba import GUARANTEED_SHARE, DbaScheduler
from repro.traffic.downstream import QUEUE_LIMIT_BYTES
from repro.traffic.telemetry import (
    DOWNSTREAM_QUEUE_GAUGE, DOWNSTREAM_THROUGHPUT_GAUGE,
)
from tests import oracles


@pytest.fixture(autouse=True)
def _fresh_defaults():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


# ---------------------------------------------------------------------------
# DownstreamQueue: bounded OLT buffer with drop accounting
# ---------------------------------------------------------------------------


class TestDownstreamQueue:
    def test_tail_drop_when_full_with_accounting(self):
        scheduler = DownstreamScheduler()
        queue = scheduler.register_queue("ONU1", "t")
        enqueue = scheduler.enqueue
        assert enqueue(Request("t", QUEUE_LIMIT_BYTES - 400, 0.0))
        assert enqueue(Request("t", 400, 0.0))          # exactly at limit
        assert not enqueue(Request("t", 1, 0.0))        # over: tail drop
        assert queue.queued_bytes == QUEUE_LIMIT_BYTES
        assert queue.dropped_requests == 1
        assert queue.dropped_bytes == 1
        assert not enqueue(Request("t", 500, 0.0))
        assert queue.dropped_requests == 2
        assert queue.dropped_bytes == 501

    def test_drain_frees_room_for_new_offers(self):
        scheduler = DownstreamScheduler()
        queue = scheduler.register_queue("ONU1", "t")
        scheduler.enqueue(Request("t", QUEUE_LIMIT_BYTES, 0.0))
        sent, completed = queue.drain(QUEUE_LIMIT_BYTES, now=0.1)
        assert sent == QUEUE_LIMIT_BYTES and len(completed) == 1
        assert scheduler.enqueue(Request("t", QUEUE_LIMIT_BYTES, 0.1))


# ---------------------------------------------------------------------------
# DownstreamScheduler: registration + the drain cycle
# ---------------------------------------------------------------------------


# Per queue: (priority, weight, backlog bytes); then a cycle's capacity.
_queue_setup = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.floats(min_value=0.5, max_value=8.0),
              st.integers(min_value=0, max_value=500_000)),
    min_size=1, max_size=12)
_capacity = st.integers(min_value=0, max_value=2_000_000)


def _loaded(setup, bus=None):
    scheduler = DownstreamScheduler(bus=bus)
    for index, (priority, weight, backlog) in enumerate(setup):
        scheduler.register_queue(f"ONU{index}", f"tenant-{index}",
                                 priority=priority, weight=weight)
        if backlog:
            scheduler.enqueue(Request(f"tenant-{index}", backlog, 0.0))
    return scheduler


class TestDownstreamScheduler:
    def test_duplicate_tenant_rejected(self):
        scheduler = DownstreamScheduler()
        scheduler.register_queue("ONU1", "t")
        with pytest.raises(ValueError,
                           match="^tenant t already has a T-CONT$"):
            scheduler.register_queue("ONU2", "t")
        # The refusal takes no alloc-id and leaves one queue.
        assert scheduler.register_queue("ONU2", "u").alloc_id == 2
        assert [queue.tenant for queue in scheduler.queues()] == ["t", "u"]

    def test_unknown_tenant_enqueue_raises(self):
        scheduler = DownstreamScheduler()
        with pytest.raises(KeyError, match="tenant ghost has no T-CONT"):
            scheduler.enqueue(Request("ghost", 100, 0.0))
        with pytest.raises(KeyError, match="tenant ghost has no T-CONT"):
            scheduler.queue("ghost")

    def test_strict_priority_dominates_beyond_guarantee(self):
        scheduler = DownstreamScheduler()
        scheduler.register_queue("ONU1", "t-high", priority=0)
        scheduler.register_queue("ONU2", "t-low", priority=3)
        scheduler.enqueue(Request("t-high", 100_000, 0.0))
        scheduler.enqueue(Request("t-low", 100_000, 0.0))
        results = scheduler.run_cycle(100_000)
        assert results["t-high"][0] > 0.85 * 100_000
        assert results["t-low"][0] > 0          # anti-starvation quantum

    def test_weighted_fair_within_a_class(self):
        scheduler = DownstreamScheduler()
        scheduler.register_queue("ONU1", "t-heavy", priority=1, weight=3.0)
        scheduler.register_queue("ONU2", "t-light", priority=1, weight=1.0)
        scheduler.enqueue(Request("t-heavy", 400_000, 0.0))
        scheduler.enqueue(Request("t-light", 400_000, 0.0))
        results = scheduler.run_cycle(100_000)
        heavy, light = results["t-heavy"][0], results["t-light"][0]
        assert heavy + light == 100_000
        # What the guaranteed round leaves splits 3:1 by weight.
        quantum = int(100_000 * GUARANTEED_SHARE) // 2
        assert heavy - quantum == 3 * (light - quantum)

    @given(_queue_setup, _capacity)
    @settings(max_examples=60, deadline=None)
    def test_work_conserving(self, setup, capacity):
        scheduler = _loaded(setup)
        backlog = scheduler.total_backlog()
        results = scheduler.run_cycle(capacity)
        sent = sum(sent for sent, _ in results.values())
        assert sent == min(capacity, backlog)
        assert scheduler.total_backlog() == backlog - sent

    @given(_queue_setup, _capacity)
    @settings(max_examples=60, deadline=None)
    def test_batched_drain_matches_naive_reference(self, setup, capacity):
        def build():
            bus = EventBus()
            return _loaded(setup, bus), bus

        def on_reference_allocator(scheduler, *args):
            # The downstream cycle with its allocator's grant-and-drain
            # swapped for the reference one.
            allocator = scheduler._allocator
            allocator.run_cycle = partial(oracles.run_cycle, allocator)
            return scheduler.run_cycle(*args)

        # Two cycles: the second drains what the first left, partial
        # heads included.
        oracles.assert_matches_oracle(
            build, [(capacity, 0.02), (capacity, 0.04)],
            shipped=DownstreamScheduler.run_cycle,
            oracle=on_reference_allocator,
            state=oracles.downstream_state)

    @given(st.sampled_from(["fair", "proportional"]), _queue_setup, _capacity)
    @settings(max_examples=60, deadline=None)
    def test_dba_cycle_matches_reference(self, policy, setup, capacity):
        def build():
            bus = EventBus()
            scheduler = DbaScheduler(policy=policy, bus=bus)
            for index, (priority, weight, backlog) in enumerate(setup):
                scheduler.register_tcont(f"ONU{index}", f"tenant-{index}",
                                         priority=priority, weight=weight)
                if backlog:
                    scheduler.enqueue(
                        Request(f"tenant-{index}", backlog, 0.0))
            return scheduler, bus

        oracles.assert_matches_oracle(
            build, [(capacity, 0.02), (capacity, 0.04)],
            shipped=DbaScheduler.run_cycle, oracle=oracles.run_cycle,
            state=oracles.dba_state)

    @given(_queue_setup, _capacity)
    @settings(max_examples=60, deadline=None)
    def test_grant_event_carries_the_reference_grant_map(self, setup,
                                                         capacity):
        bus = EventBus()
        scheduler = _loaded(setup, bus)
        _, grants, remaining = oracles.reference_grants(
            scheduler._allocator, capacity)
        scheduler.run_cycle(capacity, now=0.02)
        (event,) = bus.history("pon.downstream.grant")
        assert event.get("queues") == {alloc_id: granted
                                       for alloc_id, granted in grants.items()
                                       if granted > 0}
        assert event.get("granted_bytes") == capacity - remaining

    def test_grant_event_mirrors_dba_grant(self):
        bus = EventBus()
        scheduler = DownstreamScheduler(bus=bus)
        queue = scheduler.register_queue("ONU1", "t")
        scheduler.enqueue(Request("t", 5000, 0.0))
        scheduler.run_cycle(3000, now=0.02)
        (event,) = bus.history("pon.downstream.grant")
        assert event.get("cycle") == 1
        assert event.get("capacity_bytes") == 3000
        assert event.get("granted_bytes") == 3000
        assert event.get("backlog_bytes") == 2000
        assert event.get("queues") == {queue.alloc_id: 3000}


# ---------------------------------------------------------------------------
# Per-cycle capacity from the OLT's line rates
# ---------------------------------------------------------------------------


class TestOltDownstreamCycle:
    def test_cycle_duration_must_be_positive(self):
        network = PonNetwork.build("olt-x", n_ports=1)
        with pytest.raises(ValueError, match="^cycle must be positive "
                                             "and finite, got 0.0"):
            LoadGenerator(network, [TenantSpec("t", "ONU1")], cycle_s=0.0,
                          downstream=True)
        assert network.onus == {}

    def test_capacity_follows_downstream_line_rate(self):
        network = PonNetwork.build("olt-x", n_ports=1)
        generator = LoadGenerator(network, [TenantSpec("t", "ONU1")],
                                  cycle_s=0.002, downstream=True)
        # More backlog than one 2 ms cycle of 2.488 Gbps (622 kB) can
        # carry, while staying inside the 1 MiB queue limit.
        assert generator.downstream_scheduler.enqueue(
            Request("t", 1_000_000, 0.0))
        report = generator.run(0.002)
        expected = int(2.488e9 / 8.0 * 0.002)
        assert report.tenants["t"].delivered_down_bytes == expected
        (down,) = network.bus.history("pon.downstream.grant")
        assert down.get("capacity_bytes") == expected
        assert down.get("granted_bytes") == expected
        (up,) = network.bus.history("pon.dba.grant")
        assert up.get("capacity_bytes") == int(1.244e9 / 8.0 * 0.002)


# ---------------------------------------------------------------------------
# Bidirectional load generation end-to-end
# ---------------------------------------------------------------------------


class TestBidirectionalLoadGenerator:
    def test_downstream_delivers_and_reports(self):
        report = run_traffic_experiment(n_tenants=3, seconds=0.3,
                                        downstream=True)
        assert report.downstream
        assert report.downstream_capacity_bps == pytest.approx(2.488e9)
        for row in report.tenants.values():
            assert row.offered_down_bytes > 0
            assert row.delivered_down_bytes <= row.offered_down_bytes
        assert any(row.delivered_down_bytes > 0
                   for row in report.tenants.values())
        rendered = report.render()
        assert "downstream: broadcast 2488 Mbps" in rendered
        assert "Jain fairness index (downstream):" in rendered

    def test_same_seed_replays_identically(self):
        renders = []
        for _ in range(2):
            telemetry.reset_default_registry()
            report = run_traffic_experiment(n_tenants=3, seconds=0.3,
                                            seed=7, downstream=True)
            renders.append(report.render())
        assert renders[0] == renders[1]

    def test_hostile_downstream_clamped_by_qos(self):
        report = run_traffic_experiment(n_tenants=4, seconds=0.5,
                                        downstream=True)
        hostile = report.tenants["tenant-hostile"]
        assert hostile.delivered_down_bytes < 0.2 * hostile.offered_down_bytes
        assert hostile.dropped_down_requests > 0

    def test_upstream_rows_unchanged_without_downstream(self):
        report = run_traffic_experiment(n_tenants=3, seconds=0.3)
        assert not report.downstream
        assert "downstream" not in report.render()
        for row in report.tenants.values():
            assert row.offered_down_bytes == 0
            assert row.downstream_throughput_bps == 0.0

    def test_downstream_gauges_populated(self):
        telemetry.reset_default_registry()
        run_traffic_experiment(n_tenants=2, seconds=0.2, downstream=True)
        registry = telemetry.default_registry()
        throughput = registry.get(DOWNSTREAM_THROUGHPUT_GAUGE)
        assert any(child.value > 0
                   for child in throughput.samples.values())
        assert registry.get(DOWNSTREAM_QUEUE_GAUGE) is not None


class TestDownstreamQosDirection:
    def test_drop_and_backpressure_events_carry_direction(self):
        bus = EventBus()
        qos = QosEnforcer(bus=bus, direction="downstream")
        qos.add_tenant("t", rate_bps=8000)      # a 400-byte queue
        for _ in range(5):
            qos.submit(Request("t", 500, 0.0), now=0.0)
        qos.cycle_end(now=0.02)
        (drop,) = bus.history("qos.drop")
        assert drop.get("direction") == "downstream"

    def test_backpressure_events_carry_direction(self):
        bus = EventBus()
        qos = QosEnforcer(bus=bus, direction="downstream")
        # A 1000-byte bucket refilled in 100 ms, a 4000-byte queue.
        qos.add_tenant("t", rate_bps=80_000)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 1600, 0.0), now=0.0)    # fill 0.9: asserted
        qos.admit([], now=0.1)                          # 0.65
        qos.admit([], now=0.2)                          # 0.4: cleared
        events = list(bus.history("qos.backpressure"))
        assert len(events) == 2
        assert all(e.get("direction") == "downstream" for e in events)

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            QosEnforcer(direction="sideways")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestDownstreamCli:
    def test_traffic_downstream_flag(self, capsys):
        from repro.__main__ import main
        assert main(["traffic", "--tenants", "2", "--seconds", "0.2",
                     "--downstream"]) == 0
        out = capsys.readouterr().out
        assert "downstream: broadcast" in out
        assert "Jain fairness index (downstream):" in out

    def test_fleet_downstream_flag(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "--olts", "2", "--tenants", "4",
                     "--seconds", "0.3", "--downstream"]) == 0
        out = capsys.readouterr().out
        assert "dn Mbps" in out
        assert "fleet downstream throughput:" in out
