"""Tests for the traffic plane: profiles, token buckets, DBA, QoS, loadgen.

The property-based classes pin the invariants the E18 fairness claims
rest on: a token bucket never exceeds its rate over any window, and the
DBA scheduler is capacity-bounded, work-conserving and starvation-free.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import telemetry
from repro.common.events import EventBus
from repro.pon.onu import Onu
from repro.security.monitor import LiveCorrelator, ResourceAbuseDetector
from repro.traffic import (
    DbaScheduler, LoadGenerator, QosEnforcer, Request, RequestBatch,
    TenantSpec,
    TokenBucket, TrafficTelemetry, jain_index, make_profile,
    run_genio_traffic, run_traffic_experiment,
)
from repro.traffic.dba import GUARANTEED_SHARE
from repro.traffic.telemetry import CPU_SHARE_GAUGE, OFFERED_SHARE_GAUGE
from tests import oracles


@pytest.fixture(autouse=True)
def _fresh_defaults():
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    yield
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)


# ---------------------------------------------------------------------------
# Workload profiles
# ---------------------------------------------------------------------------


class TestProfiles:
    def test_same_seed_replays_identically(self):
        runs = []
        for _ in range(2):
            profile = make_profile("bursty", "tenant-a", 100e6, seed=7)
            runs.append([tuple((r.size_bytes, r.issued_at)
                               for r in profile.batch(t * 0.02, 0.02))
                         for t in range(20)])
        assert runs[0] == runs[1]

    def test_seed_changes_the_stream(self):
        a = make_profile("steady", "tenant-a", 100e6, seed=1).batch(0.0, 0.1)
        b = make_profile("steady", "tenant-a", 100e6, seed=2).batch(0.0, 0.1)
        assert [r.size_bytes for r in a] != [r.size_bytes for r in b]

    def test_steady_tracks_nominal_rate(self):
        profile = make_profile("steady", "tenant-a", 80e6, seed=0)
        total = sum(r.size_bytes
                    for t in range(50) for r in profile.batch(t * 0.02, 0.02))
        assert total == pytest.approx(80e6 / 8 * 1.0, rel=0.05)

    def test_hostile_floods_far_beyond_rate(self):
        steady = make_profile("steady", "t", 100e6, seed=0)
        hostile = make_profile("hostile", "t", 100e6, seed=0)
        steady_bytes = sum(r.size_bytes for r in steady.batch(0.0, 0.1))
        hostile_bytes = sum(r.size_bytes for r in hostile.batch(0.0, 0.1))
        assert hostile_bytes > 10 * steady_bytes

    def test_diurnal_swings_across_the_day(self):
        profile = make_profile("diurnal", "t", 100e6, seed=0)
        rates = [profile.offered_bps(t * 0.1) for t in range(20)]
        assert max(rates) > 1.5 * min(rates)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown profile kind"):
            make_profile("chaotic", "t", 1e6)


class TestRequestRecords:
    """Request is tuple-backed but keeps its contract; a drain reports
    completions run-length as ``(issued_at, count)``."""

    def test_fields_by_name_and_keyword(self):
        request = Request(tenant="t", size_bytes=100, issued_at=0.5)
        assert (request.tenant, request.size_bytes, request.issued_at) \
            == ("t", 100, 0.5)
        assert request == Request("t", 100, 0.5)
        assert hash(request) == hash(Request("t", 100, 0.5))
        assert request != Request("t", 101, 0.5)

    def test_assignment_raises(self):
        request = Request("t", 100, 0.5)
        with pytest.raises(AttributeError):
            request.size_bytes = 1
        with pytest.raises(AttributeError):
            request.issued_at = 2.0

    @pytest.mark.parametrize("build", [
        lambda: Request("t", 0, 0.0),
        lambda: Request(tenant="t", size_bytes=-5, issued_at=0.0),
        lambda: Request._make(["t", 0, 0.0]),
        lambda: Request("t", 10, 0.0)._replace(size_bytes=0),
        # An invalid record smuggled past __new__ cannot be unpickled.
        lambda: pickle.loads(pickle.dumps(tuple.__new__(Request,
                                                        ("t", 0, 0.0)))),
    ], ids=["positional", "keyword", "make", "replace", "unpickle"])
    def test_size_validated_on_every_construction_path(self, build):
        with pytest.raises(ValueError, match="size must be positive"):
            build()

    def test_pickle_round_trips(self):
        request = Request("t", 100, 0.5)
        batch = RequestBatch([("t", 0.5, [100, 200])])
        for record in (request, batch):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)
        assert Request._make(["t", 100, 0.5]) == request

    def test_latency(self):
        scheduler = DbaScheduler()
        tcont = scheduler.register_tcont("ONU1", "t")
        scheduler.enqueue(Request("t", 100, 0.25))
        sent, completed = tcont.drain(100, now=1.0)
        assert sent == 100 and completed == [(0.25, 1)]
        ((issued_at, _count),) = completed
        assert 1.0 - issued_at == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Token bucket: never exceeds rate over any window
# ---------------------------------------------------------------------------


class TestTokenBucketProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5),
                              st.integers(min_value=1, max_value=200_000)),
                    min_size=1, max_size=60),
           st.floats(min_value=1e6, max_value=1e9),
           st.integers(min_value=1_000, max_value=1_000_000))
    @settings(max_examples=60, deadline=None)
    def test_admitted_bounded_by_burst_plus_rate(self, steps, rate_bps, burst):
        bucket = TokenBucket(rate_bps, burst)
        now, admitted = 0.0, 0
        for dt, size in steps:
            now += dt
            if bucket.allow(size, now):
                admitted += size
        assert admitted <= burst + rate_bps / 8.0 * now + 1e-6

    def test_refill_after_wait(self):
        bucket = TokenBucket(rate_bps=8e6, burst_bytes=1000)   # 1 MB/s
        assert bucket.allow(1000, 0.0)
        assert not bucket.allow(1000, 0.0)
        assert bucket.allow(1000, 0.001)    # 1 ms refills 1000 bytes

    def test_tokens_never_exceed_burst(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=500)
        bucket.allow(0, 100.0)
        assert bucket.tokens == 500


# ---------------------------------------------------------------------------
# DBA scheduler invariants
# ---------------------------------------------------------------------------

_tcont_setup = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),      # priority
              st.floats(min_value=0.5, max_value=8.0),    # weight
              st.integers(min_value=0, max_value=500_000)),  # backlog bytes
    min_size=1, max_size=12)


def _loaded_scheduler(setup, policy="fair"):
    scheduler = DbaScheduler(policy=policy)
    tconts = []
    for index, (priority, weight, backlog) in enumerate(setup):
        tcont = scheduler.register_tcont(f"ONU{index}", f"tenant-{index}",
                                         priority=priority, weight=weight)
        if backlog:
            scheduler.enqueue(Request(tenant=tcont.tenant, size_bytes=backlog,
                                issued_at=0.0))
        tconts.append(tcont)
    return scheduler, tconts


class TestDbaProperties:
    @given(_tcont_setup, st.integers(min_value=0, max_value=2_000_000))
    @settings(max_examples=80, deadline=None)
    def test_grants_within_capacity_and_backlog(self, setup, capacity):
        scheduler, tconts = _loaded_scheduler(setup)
        grants = scheduler.grant(capacity)
        assert sum(grants.values()) <= capacity
        for tcont in tconts:
            assert grants.get(tcont.alloc_id, 0) <= tcont.queued_bytes

    @given(_tcont_setup, st.integers(min_value=0, max_value=2_000_000))
    @settings(max_examples=80, deadline=None)
    def test_work_conserving(self, setup, capacity):
        scheduler, _ = _loaded_scheduler(setup)
        backlog = scheduler.total_backlog()
        grants = scheduler.grant(capacity)
        assert sum(grants.values()) == min(capacity, backlog)

    @given(_tcont_setup.filter(lambda s: any(b for _, _, b in s)))
    @settings(max_examples=80, deadline=None)
    def test_starvation_free_across_priorities(self, setup):
        scheduler, tconts = _loaded_scheduler(setup)
        backlogged = [t for t in tconts if t.queued_bytes > 0]
        grants = scheduler.grant(capacity_bytes=100_000)
        for tcont in backlogged:
            assert grants[tcont.alloc_id] > 0, \
                f"priority-{tcont.priority} T-CONT starved"

    @given(_tcont_setup, st.integers(min_value=0, max_value=2_000_000))
    @settings(max_examples=40, deadline=None)
    def test_proportional_policy_also_work_conserving(self, setup, capacity):
        scheduler, _ = _loaded_scheduler(setup, policy="proportional")
        backlog = scheduler.total_backlog()
        grants = scheduler.grant(capacity)
        assert sum(grants.values()) == min(capacity, backlog)


class TestDbaBehaviour:
    def test_strict_priority_dominates_beyond_guarantee(self):
        scheduler = DbaScheduler()
        high = scheduler.register_tcont("ONU1", "t-high", priority=0)
        low = scheduler.register_tcont("ONU2", "t-low", priority=3)
        scheduler.enqueue(Request("t-high", 100_000, 0.0))
        scheduler.enqueue(Request("t-low", 100_000, 0.0))
        grants = scheduler.grant(100_000)
        assert grants[high.alloc_id] > 0.85 * 100_000
        assert grants[low.alloc_id] > 0            # guaranteed quantum

    def test_weighted_fair_within_tier(self):
        scheduler = DbaScheduler()
        heavy = scheduler.register_tcont("ONU1", "t-3x", priority=2, weight=3.0)
        light = scheduler.register_tcont("ONU2", "t-1x", priority=2, weight=1.0)
        scheduler.enqueue(Request("t-3x", 1_000_000, 0.0))
        scheduler.enqueue(Request("t-1x", 1_000_000, 0.0))
        grants = scheduler.grant(400_000)
        # The guaranteed round splits its share evenly; what is left
        # splits 3:1 by weight.
        quantum = int(400_000 * GUARANTEED_SHARE) // 2
        assert grants[heavy.alloc_id] - quantum \
            == 3 * (grants[light.alloc_id] - quantum)
        assert sum(grants.values()) == 400_000

    def test_proportional_policy_rewards_demand(self):
        scheduler = DbaScheduler(policy="proportional")
        greedy = scheduler.register_tcont("ONU1", "t-greedy")
        modest = scheduler.register_tcont("ONU2", "t-modest")
        scheduler.enqueue(Request("t-greedy", 900_000, 0.0))
        scheduler.enqueue(Request("t-modest", 100_000, 0.0))
        grants = scheduler.grant(500_000)
        assert grants[greedy.alloc_id] > 4 * grants[modest.alloc_id]

    def test_partial_grant_fragments_request(self):
        scheduler = DbaScheduler()
        tcont = scheduler.register_tcont("ONU1", "t")
        scheduler.enqueue(Request("t", 1000, issued_at=0.0))
        sent, completed = tcont.drain(400, now=1.0)
        assert sent == 400 and completed == []
        sent, completed = tcont.drain(600, now=2.0)
        assert sent == 600
        assert completed == [(0.0, 1)]       # latency 2.0 - 0.0

    def test_second_tcont_for_a_tenant_refused(self):
        scheduler = DbaScheduler()
        scheduler.register_tcont("ONU1", "t")
        with pytest.raises(ValueError,
                           match="^tenant t already has a T-CONT$"):
            scheduler.register_tcont("ONU2", "t")
        # The refusal takes no alloc-id and leaves one T-CONT.
        assert scheduler.register_tcont("ONU2", "u").alloc_id == 2
        assert [tcont.tenant for tcont in scheduler.tconts()] == ["t", "u"]

    def test_enqueue_for_an_unknown_tenant_raises(self):
        scheduler = DbaScheduler()
        scheduler.register_tcont("ONU1", "t")
        with pytest.raises(KeyError, match="tenant ghost has no T-CONT"):
            scheduler.enqueue(Request("ghost", 100, 0.0))
        with pytest.raises(KeyError, match="tenant ghost has no T-CONT"):
            scheduler.tcont("ghost")
        assert scheduler.total_backlog() == 0

    def test_grant_cycle_event_on_bus(self):
        bus = EventBus()
        scheduler = DbaScheduler(bus=bus)
        scheduler.register_tcont("ONU1", "t")
        scheduler.enqueue(Request("t", 500, 0.0))
        scheduler.grant(1000, now=3.0)
        events = list(bus.history("pon.dba.grant"))
        assert len(events) == 1
        assert events[0].get("granted_bytes") == 500


# ---------------------------------------------------------------------------
# QoS enforcement
# ---------------------------------------------------------------------------


# A tenant's bucket holds 100 ms of its rate and its queue four bucket
# depths: 80 kbps (10 kB/s) gives a 1000-byte bucket and a 4000-byte
# queue, 8 kbps a 100-byte bucket and a 400-byte queue.


class TestQosEnforcer:
    def test_bucket_and_queue_follow_the_rate(self):
        policy = QosEnforcer().add_tenant("t", rate_bps=80_000)
        assert policy.bucket.burst_bytes == 1000
        assert policy.queue.limit_bytes == 4000

    def test_admit_queue_drop_progression(self):
        qos = QosEnforcer()
        qos.add_tenant("t", rate_bps=80_000)
        assert qos.submit(Request("t", 1000, 0.0), now=0.0) == "admitted"
        for _ in range(4):
            assert qos.submit(Request("t", 1000, 0.0), now=0.0) == "queued"
        assert qos.submit(Request("t", 1000, 0.0), now=0.0) == "dropped"
        assert qos.policy("t").dropped_requests == 1

    def test_queued_requests_released_in_order(self):
        qos = QosEnforcer()
        qos.add_tenant("t", rate_bps=80_000)
        first = Request("t", 1000, 0.0)
        second = Request("t", 600, 0.0)
        third = Request("t", 400, 0.0)
        assert qos.submit(first, 0.0) == "admitted"
        assert qos.submit(second, 0.0) == "queued"
        assert qos.submit(third, 0.0) == "queued"
        released = qos.admit([], now=0.1)      # 100 ms => 1000 fresh tokens
        assert released == [second, third]

    def test_backpressure_asserted_and_cleared(self):
        bus = EventBus()
        qos = QosEnforcer(bus=bus)
        qos.add_tenant("t", rate_bps=80_000)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        for _ in range(4):
            qos.submit(Request("t", 1000, 0.0), now=0.0)   # queue at 100%
        qos.admit([], now=0.1)                         # one burst: 75%
        qos.admit([], now=0.2)                         # another: 50%
        states = [e.get("state") for e in bus.history("qos.backpressure")]
        assert states == ["asserted", "cleared"]

    def test_drop_events_aggregated_per_cycle(self):
        bus = EventBus()
        qos = QosEnforcer(bus=bus)
        qos.add_tenant("t", rate_bps=8000)
        for _ in range(5):
            qos.submit(Request("t", 500, 0.0), now=0.0)   # over the queue
        qos.cycle_end(now=0.02)
        drops = list(bus.history("qos.drop"))
        assert len(drops) == 1
        assert drops[0].get("dropped") == 5

    def test_outcomes_feed_tenant_labelled_counters(self):
        registry = telemetry.MetricsRegistry()
        qos = QosEnforcer(registry=registry)
        qos.add_tenant("t", rate_bps=80_000)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 5000, 0.0), now=0.0)    # over limit: dropped
        counter = registry.get("traffic_requests_total")
        assert counter.labels(tenant="t", direction="upstream",
                              outcome="admitted").value == 1
        assert counter.labels(tenant="t", direction="upstream",
                              outcome="dropped").value == 1

    def test_queued_counts_in_transient_family_only(self):
        registry = telemetry.MetricsRegistry()
        qos = QosEnforcer(registry=registry)
        qos.add_tenant("t", rate_bps=80_000)
        qos.submit(Request("t", 1000, 0.0), now=0.0)     # admitted
        qos.submit(Request("t", 800, 0.0), now=0.0)      # queued
        queued = registry.get("traffic_queued_requests_total")
        assert queued.labels(tenant="t", direction="upstream").value == 1
        # The queued request is NOT a terminal outcome yet.
        assert registry.get("traffic_requests_total").total() == 1
        released = qos.admit([], now=0.1)                # refill releases it
        assert len(released) == 1
        counter = registry.get("traffic_requests_total")
        assert counter.labels(tenant="t", direction="upstream",
                              outcome="released").value == 1
        assert counter.total() == 2

    def test_duplicate_tenant_rejected(self):
        qos = QosEnforcer()
        qos.add_tenant("t", rate_bps=1e6)
        with pytest.raises(ValueError):
            qos.add_tenant("t", rate_bps=1e6)


class TestQosCycleDropBytes:
    """Regression: ``qos.drop`` must carry *per-cycle* dropped bytes.

    The original payload published the lifetime ``policy.dropped_bytes``
    next to the per-cycle ``dropped`` count, so every cycle's event
    re-reported all drops since the start of the run.
    """

    def test_dropped_bytes_reset_between_cycles(self):
        bus = EventBus()
        qos = QosEnforcer(bus=bus)
        qos.add_tenant("t", rate_bps=8000)      # 400-byte queue
        for _ in range(2):
            qos.submit(Request("t", 500, 0.0), now=0.0)
        qos.cycle_end(now=0.02)
        qos.submit(Request("t", 450, 0.03), now=0.03)
        qos.cycle_end(now=0.04)
        drops = list(bus.history("qos.drop"))
        assert [e.get("dropped") for e in drops] == [2, 1]
        assert [e.get("dropped_bytes") for e in drops] == [1000, 450]
        # the lifetime total still rides along, under its own key
        assert [e.get("dropped_bytes_total") for e in drops] == [1000, 1450]

    def test_cycle_counters_reset_without_a_bus_too(self):
        qos = QosEnforcer()
        qos.add_tenant("t", rate_bps=8000)
        qos.submit(Request("t", 500, 0.0), now=0.0)
        qos.cycle_end(now=0.02)
        policy = qos.policy("t")
        assert policy._cycle_drops == 0
        assert policy._cycle_drop_bytes == 0
        assert policy.dropped_bytes == 500


class TestQosBackpressureBoundaries:
    """Hysteresis boundary semantics: >= HIGH asserts, <= LOW clears."""

    @staticmethod
    def _tenant(bus):
        # 10 kB/s refill, a 1000-byte bucket and a 4000-byte queue.
        qos = QosEnforcer(bus=bus)
        qos.add_tenant("t", rate_bps=80_000)
        return qos

    def test_fill_exactly_at_high_watermark_asserts(self):
        bus = EventBus()
        qos = self._tenant(bus)
        assert qos.submit(Request("t", 1000, 0.0), now=0.0) == "admitted"
        assert qos.submit(Request("t", 2000, 0.0), now=0.0) == "queued"
        assert not list(bus.history("qos.backpressure"))    # 0.5 < HIGH
        assert qos.submit(Request("t", 1200, 0.0), now=0.0) == "queued"
        (event,) = bus.history("qos.backpressure")
        assert event.get("state") == "asserted"
        assert event.get("queue_fill") == QosEnforcer.HIGH_WATERMARK
        assert qos.policy("t").backpressured

    def test_fill_exactly_at_low_watermark_clears(self):
        bus = EventBus()
        qos = self._tenant(bus)
        qos.submit(Request("t", 1000, 0.0), now=0.0)    # drains the bucket
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 200, 0.0), now=0.0)
        qos.submit(Request("t", 2000, 0.0), now=0.0)    # fill 0.8: asserted
        # Each 100 ms refills exactly 1000 tokens: the first drains the
        # 1000-byte head (fill 0.55), the second the 200-byte one,
        # leaving the queue at precisely the LOW watermark.
        qos.admit([], now=0.1)
        assert [e.get("state") for e in bus.history("qos.backpressure")] \
            == ["asserted"]
        qos.admit([], now=0.2)
        states = [e.get("state") for e in bus.history("qos.backpressure")]
        assert states == ["asserted", "cleared"]
        cleared = list(bus.history("qos.backpressure"))[-1]
        assert cleared.get("queue_fill") == QosEnforcer.LOW_WATERMARK
        assert not qos.policy("t").backpressured

    def test_no_duplicate_events_on_repeated_crossings(self):
        bus = EventBus()
        qos = self._tenant(bus)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 1200, 0.0), now=0.0)    # asserted at 0.8
        qos.submit(Request("t", 800, 0.0), now=0.0)     # fill 1.0: no dup
        qos.admit([], now=0.1)                          # 0.75
        qos.admit([], now=0.2)                          # cleared at 0.5
        qos.submit(Request("t", 1200, 0.2), now=0.2)    # fill 0.8 again
        states = [e.get("state") for e in bus.history("qos.backpressure")]
        assert states == ["asserted", "cleared", "asserted"]


class _CountingQos(QosEnforcer):
    """Counts watermark checks, to pin the drain-path fast exit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.watermark_checks = 0

    def _check_backpressure(self, policy, now):
        self.watermark_checks += 1
        super()._check_backpressure(policy, now)


class TestDrainSkipsNoopWatermarkCheck:
    def test_no_check_when_queue_is_empty(self):
        qos = _CountingQos()
        qos.add_tenant("t", rate_bps=80_000)
        qos.admit([], now=0.1)
        assert qos.watermark_checks == 0

    def test_no_check_when_nothing_can_be_released(self):
        qos = _CountingQos()
        qos.add_tenant("t", rate_bps=80_000)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 800, 0.0), now=0.0)      # queued: one check
        checks_after_submit = qos.watermark_checks
        assert checks_after_submit == 1
        qos.admit([], now=0.0)       # no refill, nothing drains: no check
        assert qos.watermark_checks == checks_after_submit

    def test_check_runs_when_something_is_released(self):
        qos = _CountingQos()
        qos.add_tenant("t", rate_bps=80_000)
        qos.submit(Request("t", 1000, 0.0), now=0.0)
        qos.submit(Request("t", 800, 0.0), now=0.0)
        checks_after_submit = qos.watermark_checks
        released = qos.admit([], now=0.1)        # refill releases the head
        assert released
        assert qos.watermark_checks == checks_after_submit + 1


_admit_cycles = st.lists(
    st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                       st.integers(min_value=1, max_value=2000)),
             min_size=0, max_size=12),
    min_size=1, max_size=6)


# Off the cycle grid: ``now`` advances by arbitrary float steps, so the
# refilled token counts are fractional; a tenant's requests interleave
# with the other's and carry this cycle's or the previous cycle's issue
# time (several runs per tenant, merged queue tails); sizes above the
# 4000-byte queue limit drop even from an empty queue, after which a
# smaller request of the same run can still be admitted.
# Sizes that sum to exactly the 1000-byte burst make a prefix spend
# the bucket to zero.
_admit_cycles_off_grid = st.lists(
    st.tuples(st.one_of(st.sampled_from([0.0, 0.001, 0.02, 0.1]),
                        st.floats(min_value=0.0, max_value=0.15)),
              st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                                 st.booleans(),
                                 st.one_of(
                                     st.sampled_from([250, 500, 1000, 4500]),
                                     st.integers(min_value=1,
                                                 max_value=5000))),
                       max_size=16)),
    min_size=1, max_size=8)


class TestVectorizedAdmitMatchesReference:
    """The run-based admit path must be outcome-identical to the
    per-request reference ``tests.oracles.admit``: same admitted lists,
    same policy/bucket state (exact float equality), the same metrics
    samples and the same bus history, checked by the differential
    harness after every cycle.

    Exact float equality holds because every integer spend from a token
    count below 2**53 is exact, so one spend of a run prefix's sum
    equals the per-request spends one by one (``TokenBucket`` refuses a
    deeper burst)."""

    @staticmethod
    def _build(rate_bps=80_000.0, bus=True):
        # A 1000-byte bucket and a 4000-byte queue per tenant.
        def build():
            qos_bus = EventBus() if bus else None
            qos = QosEnforcer(bus=qos_bus,
                              registry=telemetry.MetricsRegistry())
            for tenant in ("t0", "t1"):
                qos.add_tenant(tenant, rate_bps=rate_bps)
            return qos, qos_bus
        return build

    @staticmethod
    def _admit(qos, requests, now):
        admitted = qos.admit(list(requests), now)
        assert len(admitted) == sum(
            len(sizes) for _, _, sizes in admitted.runs)
        return list(admitted)

    def _assert_matches(self, build, calls, state=oracles.qos_state):
        return oracles.assert_matches_oracle(
            build, calls, shipped=self._admit, oracle=oracles.admit,
            state=state)

    @given(_admit_cycles)
    @settings(max_examples=50, deadline=None)
    def test_outcomes_state_and_events_match(self, cycles):
        calls = []
        for index, cycle in enumerate(cycles):
            now = index * 0.02
            calls.append(([Request(f"t{t}", size, now) for t, size in cycle],
                          now))
        self._assert_matches(self._build(), calls)

    @pytest.mark.parametrize("sizes, admitted", [
        ([500, 500, 1], [500, 500]),      # the prefix spends every token
        ([4500, 400, 700], [400]),        # dropped from an empty queue
    ], ids=["exact-spend", "admit-after-drop"])
    def test_run_edges_match(self, sizes, admitted):
        requests = [Request("t0", size, 0.0) for size in sizes]
        (result,) = self._assert_matches(self._build(), [(requests, 0.0)])
        assert [r.size_bytes for r in result] == admitted

    @given(_admit_cycles_off_grid)
    @settings(max_examples=150, deadline=None)
    def test_off_grid_times_and_interleaved_runs_match(self, cycles):
        # 10,009.7125 B/s: refills are fractional byte counts, and the
        # bucket still holds 1000 bytes.
        calls = []
        now = previous = 0.0
        for step, cycle in cycles:
            previous, now = now, now + step
            calls.append(([Request(f"t{t}", size, previous if late else now)
                           for t, late, size in cycle], now))
        self._assert_matches(self._build(rate_bps=80_077.7), calls)

    @given(_admit_cycles)
    @settings(max_examples=30, deadline=None)
    def test_batched_telemetry_totals_match(self, cycles):
        # No bus: the counters alone must agree, terminal outcomes and
        # the transient queued family alike.
        calls = []
        for index, cycle in enumerate(cycles):
            now = index * 0.02
            calls.append(([Request(f"t{t}", size, now) for t, size in cycle],
                          now))
        self._assert_matches(self._build(bus=False), calls,
                             state=lambda qos: qos._metrics.snapshot())


# ---------------------------------------------------------------------------
# Load generation end-to-end
# ---------------------------------------------------------------------------


class TestLoadGenerator:
    def test_equal_tenants_share_equally(self):
        report = run_traffic_experiment(n_tenants=3, seconds=0.5,
                                        hostile=False)
        assert report.jain() > 0.95
        for row in report.tenants.values():
            assert row.delivered_bytes <= row.offered_bytes

    def test_hostile_clamped_under_qos_and_dba(self):
        report = run_traffic_experiment(n_tenants=4, seconds=0.5)
        hostile = report.tenants["tenant-hostile"]
        assert hostile.delivered_bytes < 0.2 * hostile.offered_bytes
        assert hostile.dropped_requests > 0
        assert report.jain() > 0.9

    def test_hostile_monopolizes_without_defenses(self):
        report = run_traffic_experiment(n_tenants=4, seconds=0.5,
                                        dba=False, qos=False)
        hostile = report.tenants["tenant-hostile"]
        assert hostile.bandwidth_share > 0.5
        assert report.jain() < 0.6

    def test_deterministic_replay(self):
        first = run_traffic_experiment(n_tenants=2, seconds=0.3, seed=3)
        telemetry.reset_default_registry()
        second = run_traffic_experiment(n_tenants=2, seconds=0.3, seed=3)
        assert first.tenants == second.tenants

    def test_load_accounted_on_the_pon_plant(self):
        from repro.pon.network import PonNetwork
        network = PonNetwork.build("olt-t")
        specs = [TenantSpec(tenant="t-1", serial="S1")]
        LoadGenerator(network, specs).run(0.2)
        assert network.stats.upstream_bytes > 0
        registry = telemetry.default_registry()
        assert registry.get("pon_bytes_total").labels(
            direction="upstream").value > 0

    def test_runs_through_genio_deployment(self):
        from repro.platform import build_genio_deployment
        deployment = build_genio_deployment(n_olts=1, onus_per_olt=3)
        report = run_genio_traffic(deployment, seconds=0.2)
        assert len(report.tenants) == 3
        assert any(row.profile == "hostile"
                   for row in report.tenants.values())

    def test_duplicate_tenant_names_rejected(self):
        from repro.pon.network import PonNetwork
        network = PonNetwork.build()
        specs = [TenantSpec(tenant="t", serial="S1"),
                 TenantSpec(tenant="t", serial="S2")]
        with pytest.raises(ValueError, match="unique"):
            LoadGenerator(network, specs)

    def test_overfull_spec_list_leaves_the_network_untouched(self):
        from repro.common.errors import CapacityError
        from repro.pon.network import PonNetwork
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-KEEP"))
        onus = dict(network.onus)
        provisioned = dict(network.olt.provisioned_serials)
        # 64 tenants plus the hostile one behind a 1:64 splitter that
        # already holds one ONU.
        with pytest.raises(CapacityError,
                           match=r"port 0 splitter \(1:64\) is full"):
            run_traffic_experiment(n_tenants=64, network=network)
        assert network.onus == onus
        assert network.olt.provisioned_serials == provisioned

    def test_serials_already_attached_need_no_new_slot(self):
        from repro.pon.network import PonNetwork
        network = PonNetwork.build()
        specs = [TenantSpec(tenant=f"t-{i}", serial=f"S{i}")
                 for i in range(64)]
        for spec in specs:
            network.attach_onu(Onu(spec.serial))
        LoadGenerator(network, specs)
        assert len(network.onus) == 64

    def test_jain_index_bounds(self):
        assert jain_index([5, 5, 5]) == pytest.approx(1.0)
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_index([]) == 1.0


# ---------------------------------------------------------------------------
# Metrics-driven abuse detection (the rewired ResourceAbuseDetector)
# ---------------------------------------------------------------------------


class TestMetricsDrivenAbuseDetection:
    def _registry_with_shares(self, shares, metric=OFFERED_SHARE_GAUGE):
        registry = telemetry.MetricsRegistry()
        gauge = registry.gauge(metric, "", ("tenant",))
        for tenant, share in shares.items():
            gauge.set(share, tenant=tenant)
        return registry

    def test_flags_only_the_noisy_tenant(self):
        registry = self._registry_with_shares(
            {"t-1": 0.05, "t-2": 0.05, "t-3": 0.05, "t-bad": 0.85})
        detector = ResourceAbuseDetector(registry=registry)
        findings = detector.sample_metrics()
        assert [f.tenant for f in findings] == ["t-bad"]
        assert findings[0].metric == OFFERED_SHARE_GAUGE
        assert findings[0].bandwidth_share == 0.85

    def test_cpu_metric_lands_in_cpu_share(self):
        registry = self._registry_with_shares({"t-bad": 0.95},
                                              metric=CPU_SHARE_GAUGE)
        findings = ResourceAbuseDetector(registry=registry).sample_metrics()
        assert findings and findings[0].cpu_share == 0.95

    def test_single_tenant_saturation_flagged_by_absolute_cap(self):
        registry = self._registry_with_shares({"t-only": 0.95})
        findings = ResourceAbuseDetector(registry=registry).sample_metrics()
        assert [f.tenant for f in findings] == ["t-only"]
        assert "absolute cap" in findings[0].detail

    def test_fair_shares_not_flagged(self):
        registry = self._registry_with_shares(
            {"t-1": 0.34, "t-2": 0.33, "t-3": 0.33})
        assert ResourceAbuseDetector(
            registry=registry).sample_metrics() == []

    def test_findings_published_and_correlated(self):
        bus = EventBus()
        correlator = LiveCorrelator(bus)
        registry = self._registry_with_shares(
            {"t-1": 0.04, "t-bad": 0.92})
        detector = ResourceAbuseDetector(registry=registry, bus=bus)
        detector.sample_metrics(now=10.0)
        incidents = correlator.incidents()
        assert len(incidents) == 1
        assert incidents[0].key == "t-bad"
        assert incidents[0].alerts[0].rule == "resource_abuse"

    def test_traffic_run_feeds_detector_end_to_end(self):
        run_traffic_experiment(n_tenants=4, seconds=0.3)
        detector = ResourceAbuseDetector()   # process-wide registry
        flagged = {f.tenant for f in detector.sample_metrics()}
        assert flagged == {"tenant-hostile"}

    def test_runtime_cpu_shares_via_observe_runtime(self):
        from repro.platform.workloads import ml_inference_image
        from repro.virt.container import ContainerSpec
        from repro.virt.runtime import ContainerRuntime
        registry = telemetry.MetricsRegistry()
        runtime = ContainerRuntime("node", cpu_capacity=8.0)
        greedy = runtime.run(ContainerSpec(image=ml_inference_image(),
                                           tenant="t-greedy"))
        runtime.consume(greedy.id, cpu=7.8)
        TrafficTelemetry(registry=registry).observe_runtime(runtime)
        findings = ResourceAbuseDetector(registry=registry).sample_metrics()
        assert [f.tenant for f in findings] == ["t-greedy"]

    def test_metrics_path_without_runtime_or_registry(self):
        telemetry.set_telemetry_enabled(False)
        detector = ResourceAbuseDetector()
        assert detector.sample_metrics() == []
        with pytest.raises(ValueError, match="no runtime"):
            detector.sample()

    def test_persistence_suppresses_transient_spikes(self):
        registry = self._registry_with_shares(
            {"t-1": 0.05, "t-2": 0.05, "t-3": 0.05, "t-bad": 0.85})
        gauge = registry.get(OFFERED_SHARE_GAUGE)
        detector = ResourceAbuseDetector(registry=registry, persistence=2)
        # Pass 1: t-bad breaches but has no streak yet — suppressed.
        assert detector.sample_metrics() == []
        # The spike subsides before pass 2: streak resets, never flagged.
        gauge.set(0.1, tenant="t-bad")
        assert detector.sample_metrics() == []
        # A sustained breach is flagged on the second consecutive pass.
        gauge.set(0.85, tenant="t-bad")
        assert detector.sample_metrics() == []
        assert [f.tenant for f in detector.sample_metrics()] == ["t-bad"]

    def test_persistence_must_be_positive(self):
        with pytest.raises(ValueError, match="persistence"):
            ResourceAbuseDetector(persistence=0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTrafficCli:
    def test_traffic_command_prints_report(self, capsys):
        from repro.__main__ import main
        assert main(["traffic", "--tenants", "2",
                     "--seconds", "0.2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Jain fairness index" in out
        assert "tenant-hostile" in out
        assert "metrics-driven abuse findings: tenant-hostile" in out
        assert "traffic_tenant_offered_share" in out

    def test_usage_errors_exit_2(self, capsys):
        from repro.__main__ import main
        assert main(["traffic", "--tenants", "0"]) == 2
        assert main(["traffic", "--seconds", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_seconds_exit_2(self, value, capsys):
        from repro.__main__ import main
        assert main(["traffic", f"--seconds={value}"]) == 2
        assert "error: duration must be positive and finite, got " \
            in capsys.readouterr().err

    def test_more_tenants_than_the_splitter_holds_exit_2(self, capsys):
        from repro.__main__ import main
        # 64 well-behaved tenants plus the hostile one make 65 ONUs.
        assert main(["traffic", "--tenants", "64"]) == 2
        assert "splitter (1:64) is full" in capsys.readouterr().err
        assert main(["traffic", "--tenants", "64", "--no-hostile",
                     "--seconds", "0.04"]) == 0


# ---------------------------------------------------------------------------
# Terminal-outcome invariant, clock regressions, drain-path events (PR 5)
# ---------------------------------------------------------------------------


class TestTokenBucketClockRegression:
    """A backwards-moving ``now`` must never mint tokens."""

    def test_backwards_now_mints_nothing(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)   # 1000 B/s
        assert bucket.allow(1000, now=1.0)                      # drained
        assert bucket.tokens == 0.0
        assert not bucket.allow(1, now=0.5)                     # clock back
        assert bucket.tokens == 0.0
        assert bucket._last_refill == 1.0                       # high-water

    def test_refill_resumes_from_high_water_mark(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        bucket.allow(1000, now=1.0)
        bucket.allow(1, now=0.5)                # no-op regression
        bucket._refill(1.2)                     # 0.2 s past the mark
        assert bucket.tokens == pytest.approx(200.0)


class TestTerminalOutcomeInvariant:
    """sum(traffic_requests_total over outcomes) == offered requests.

    ``queued`` is transient (counted in traffic_queued_requests_total);
    every offered request ends as exactly one of admitted / released /
    dropped, so the terminal counter family sums to the offered count.
    """

    def test_requests_total_sums_to_offered(self):
        registry = telemetry.MetricsRegistry()
        qos = QosEnforcer(registry=registry)
        qos.add_tenant("t", rate_bps=160_000)    # 2000-byte bucket
        offered = 0
        for index in range(40):
            now = index * 0.01
            batch = [Request("t", 700, now), Request("t", 900, now)]
            offered += len(batch)
            qos.admit(batch, now)
        # Each refill mints at most one bucket of tokens and the queue
        # holds four, so flush until it is empty.
        now = 0.0
        while qos.policy("t").queued_bytes:
            now += 10.0
            qos.admit([], now)
        counter = registry.get("traffic_requests_total")
        by_outcome = {
            outcome: counter.labels(tenant="t", direction="upstream",
                                    outcome=outcome).value
            for outcome in ("admitted", "released", "dropped")}
        assert by_outcome["released"] > 0       # the drain path did fire
        assert sum(by_outcome.values()) == offered
        assert counter.total() == offered

    def test_reference_path_holds_the_same_invariant(self):
        registry = telemetry.MetricsRegistry()
        qos = QosEnforcer(registry=registry)
        qos.add_tenant("t", rate_bps=160_000)
        offered = 0
        for index in range(40):
            now = index * 0.01
            batch = [Request("t", 700, now), Request("t", 900, now)]
            offered += len(batch)
            oracles.admit(qos, batch, now)
        now = 0.0
        while qos.policy("t").queued_bytes:
            now += 10.0
            oracles.admit(qos, [], now)
        assert registry.get("traffic_requests_total").total() == offered


class TestDrainPathEvents:
    def test_cleared_emitted_exactly_once_for_multi_request_drain(self):
        bus = EventBus()
        qos = QosEnforcer(bus=bus)
        qos.add_tenant("t", rate_bps=160_000)   # 2000-byte bucket, 8000 queue
        qos.submit(Request("t", 2000, 0.0), now=0.0)    # drains the bucket
        queued = [2000] + [500] * 4 + [2400]            # queue at 80%
        for size in queued:
            assert qos.submit(Request("t", size, 0.0), now=0.0) == "queued"
        assert len(qos.admit([], now=0.1)) == 1         # 55%: still asserted
        released = qos.admit([], now=0.2)       # refills the full 2000 burst
        assert len(released) == 4                       # down to 30%
        states = [e.get("state") for e in bus.history("qos.backpressure")]
        assert states == ["asserted", "cleared"]

    def test_drain_releases_one_counter_inc_per_cycle(self):
        registry = telemetry.MetricsRegistry()
        qos = QosEnforcer(registry=registry)
        qos.add_tenant("t", rate_bps=160_000)
        qos.submit(Request("t", 2000, 0.0), now=0.0)
        for _ in range(4):
            qos.submit(Request("t", 500, 0.0), now=0.0)
        qos.admit([], now=0.1)
        counter = registry.get("traffic_requests_total")
        released = counter.labels(tenant="t", direction="upstream",
                                  outcome="released")
        assert released.value == 4
