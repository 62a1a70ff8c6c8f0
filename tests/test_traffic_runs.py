"""The run core of the traffic plane against per-request oracles.

A cycle's requests travel as runs ``(tenant, issued_at, sizes)`` from
``WorkloadProfile.batch`` through QoS, the T-CONT and the downstream
queue. Each class here pins one run-based piece to the per-request
computation it replaced, kept in this file as the oracle: the shared
``RunQueue`` (pushes, tail drops, whole-request pops), T-CONT drains
(bytes, completions, latencies), downstream tail drops, and the
latency summaries built from ``(latency, count)`` runs. The QoS oracle
is ``tests.oracles.admit`` (see ``tests/test_traffic.py``).
"""

import copy
import math
import pickle
from array import array
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.traffic.dba import DbaScheduler, TCont
from repro.traffic.downstream import (
    QUEUE_LIMIT_BYTES, DownstreamQueue, DownstreamScheduler,
)
from repro.traffic.loadgen import (
    LoadGenerator, TenantSpec, _percentile, _run_sum, run_traffic_experiment,
)
from repro.traffic.profiles import (
    PROFILE_KINDS, REQUEST_BYTES, Request, RequestBatch, RunQueue,
    SteadyProfile, as_batch, make_profile,
)
from repro.traffic.qos import EXACT_TOKEN_LIMIT, QosEnforcer, TokenBucket

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def queued_requests(policy):
    """A QoS policy's waiting requests, head first."""
    waiting = []
    head = policy.queue.head
    for issued_at, sizes in policy.queue.runs:
        waiting.extend(Request(policy.tenant, size, issued_at)
                       for size in sizes[head:])
        head = 0
    return waiting


# ---------------------------------------------------------------------------
# RequestBatch: runs that behave as a Sequence[Request]
# ---------------------------------------------------------------------------


class TestRequestBatch:
    def test_sequence_of_requests(self):
        batch = RequestBatch([("a", 0.5, [10, 20]), ("b", 0.25, [30])])
        expected = [Request("a", 10, 0.5), Request("a", 20, 0.5),
                    Request("b", 30, 0.25)]
        assert len(batch) == 3
        assert list(batch) == expected
        assert [batch[i] for i in range(3)] == expected
        assert batch[-1] == expected[-1] and batch[1:] == expected[1:]
        assert batch == expected and batch == RequestBatch.from_requests(
            expected)
        assert batch.nbytes == 60
        with pytest.raises(IndexError):
            batch[3]

    def test_grouping_keeps_order_and_splits_on_tenant_or_time(self):
        requests = [Request("a", 1, 0.0), Request("a", 2, 0.0),
                    Request("b", 3, 0.0), Request("a", 4, 0.0),
                    Request("a", 5, 0.1)]
        batch = as_batch(requests)
        assert batch.runs == [("a", 0.0, [1, 2]), ("b", 0.0, [3]),
                              ("a", 0.0, [4]), ("a", 0.1, [5])]
        assert as_batch(batch) is batch
        assert len(as_batch([])) == 0
        assert as_batch(Request("a", 7, 0.5)).runs == [("a", 0.5, [7])]

    @pytest.mark.parametrize("sizes", [[10, 0], [-1], [5, -5, 5]])
    def test_non_positive_size_refused(self, sizes):
        with pytest.raises(ValueError, match="size must be positive"):
            RequestBatch([("a", 0.0, sizes)])
        with pytest.raises(ValueError, match="size must be positive"):
            RequestBatch().add_run("a", 0.0, sizes)

    def test_empty_run_adds_nothing(self):
        batch = RequestBatch([("a", 0.0, [])])
        assert batch.runs == [] and len(batch) == 0

    def test_profile_batch_is_one_run_with_the_old_stream(self):
        profile = SteadyProfile("t", 100e6, seed=4)
        batch = profile.batch(0.0, 0.02)
        ((tenant, issued_at, sizes),) = batch.runs
        assert (tenant, issued_at) == ("t", 0.0)
        assert len(batch) == len(sizes) and min(sizes) >= 22_500
        assert pickle.loads(pickle.dumps(batch)) == batch


# ---------------------------------------------------------------------------
# WorkloadProfile.batch against the per-request generation loop
# ---------------------------------------------------------------------------


def reference_sizes(profile, now, interval_s):
    """One cycle of ``profile`` drawn request by request, with int math:
    the loop ``batch()`` must match draw for draw."""
    target = profile.offered_bps(now) / 8.0 * interval_s \
        + profile._carry_bytes
    sizes = []
    while target >= REQUEST_BYTES:
        jitter = 1.0 + (profile._rng.random() - 0.5) * 0.2
        size = int(REQUEST_BYTES * jitter)
        sizes.append(size)
        target -= size
    profile._carry_bytes = max(0.0, target)
    return sizes


class TestProfileBatchMatchesPerRequestReference:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(PROFILE_KINDS)),
           rate_bps=st.floats(1e3, 1e8),
           interval_s=st.floats(1e-3, 0.05),
           carry=st.floats(0.0, 30_000.0),
           seed=st.integers(0, 2 ** 16),
           cycles=st.integers(1, 4))
    def test_same_draws_sizes_and_carry(self, kind, rate_bps, interval_s,
                                        carry, seed, cycles):
        profile, oracle = (make_profile(kind, "t", rate_bps, seed=seed)
                           for _ in range(2))
        profile._carry_bytes = oracle._carry_bytes = carry
        for cycle in range(cycles):
            now = cycle * interval_s
            batch = profile.batch(now, interval_s)
            sizes = reference_sizes(oracle, now, interval_s)
            assert batch.runs == ([("t", now, sizes)] if sizes else [])
            assert len(batch) == len(sizes)
            assert all(type(size) is int and 22_500 <= size <= 27_499
                       for size in sizes)
            assert profile._carry_bytes == oracle._carry_bytes
            assert profile._rng.getstate() == oracle._rng.getstate()


# ---------------------------------------------------------------------------
# Finite inputs and the exact token domain
# ---------------------------------------------------------------------------


class TestFiniteInputs:
    def test_token_bucket_refuses_a_burst_of_2_pow_53(self):
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            TokenBucket(8e6, EXACT_TOKEN_LIMIT)
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            TokenBucket(8e6, EXACT_TOKEN_LIMIT + 1)
        assert TokenBucket(8e6, EXACT_TOKEN_LIMIT - 1).tokens \
            == EXACT_TOKEN_LIMIT - 1

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_token_bucket_refuses_a_non_finite_rate(self, value):
        with pytest.raises(ValueError, match="rate_bps must be positive"):
            TokenBucket(value, 100)

    @pytest.mark.parametrize("value", [0, -5] + NON_FINITE, ids=str)
    def test_qos_tenant_refuses_a_rate_that_cannot_size_its_bucket(
            self, value):
        # The rate alone sizes the tenant's bucket and queue.
        qos = QosEnforcer()
        with pytest.raises(ValueError, match="^rate_bps must be positive"):
            qos.add_tenant("t", value)
        with pytest.raises(KeyError):
            qos.policy("t")

    def test_qos_tenant_refuses_a_rate_whose_bucket_reaches_2_pow_53(self):
        # BURST_S (0.1 s) of about 7.206e17 bps is 2**53 bytes.
        qos = QosEnforcer()
        with pytest.raises(ValueError, match="^rate_bps must size a bucket "
                                             "below 2\\*\\*53 bytes, "
                                             "got 1e\\+18$"):
            qos.add_tenant("t", 1e18)
        with pytest.raises(KeyError):
            qos.policy("t")
        assert qos.add_tenant("t", 7.2e17).bucket.burst_bytes \
            == 9 * 10 ** 15 < EXACT_TOKEN_LIMIT

    @pytest.mark.parametrize("rate_bps, downstream", [
        (1e18, False),
        # Upstream QoS polices 1.5x this rate, under the limit; the
        # downstream enforcer polices 6x it, over the limit.
        (2e17, True),
    ], ids=["upstream", "downstream-only"])
    def test_load_generator_refuses_an_unpoliceable_rate_before_wiring(
            self, rate_bps, downstream):
        network = PonNetwork.build("olt-finite")
        network.attach_onu(Onu("ONU-KEEP"))
        onus = dict(network.onus)
        provisioned = dict(network.olt.provisioned_serials)
        with pytest.raises(ValueError, match="^rate_bps must size a bucket"):
            run_traffic_experiment(n_tenants=3, rate_bps=rate_bps,
                                   network=network, downstream=downstream)
        assert network.onus == onus
        assert network.olt.provisioned_serials == provisioned

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("kind",
                             ["steady", "bursty", "diurnal", "hostile"])
    def test_profile_refuses_a_non_finite_rate(self, kind, value):
        with pytest.raises(ValueError, match="rate_bps must be positive"):
            make_profile(kind, "t", value)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_profile_refuses_a_non_finite_interval(self, value):
        with pytest.raises(ValueError, match="interval must be positive"):
            SteadyProfile("t", 1e6).batch(0.0, value)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_load_generator_refuses_a_non_finite_cycle(self, value):
        network = PonNetwork.build("olt-finite")
        with pytest.raises(ValueError, match="^cycle must be positive "
                                             "and finite, got"):
            LoadGenerator(network, [TenantSpec("t", "ONU00001")],
                          cycle_s=value, downstream=True)
        assert network.onus == {}

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    def test_load_generator_refuses_a_non_finite_duration(self, value):
        network = PonNetwork.build("olt-finite")
        generator = LoadGenerator(network, [TenantSpec("t", "ONU00001")])
        with pytest.raises(ValueError, match="duration must be positive"):
            generator.start(value)

    @pytest.mark.parametrize("value", [-5] + NON_FINITE, ids=str)
    @pytest.mark.parametrize("build, name", [
        (lambda v: RunQueue(v), "limit_bytes"),
        (lambda v: TCont(1, "ONU1", "t", weight=v), "weight"),
        (lambda v: DownstreamQueue(1, "ONU1", "t", weight=v), "weight"),
    ], ids=["run-queue", "tcont-weight", "downstream-weight"])
    def test_bad_limit_or_weight_is_refused_by_name(self, build, name,
                                                     value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build(value)


# ---------------------------------------------------------------------------
# One run, one load generator task
# ---------------------------------------------------------------------------


class TestLoadGeneratorRunLifecycle:
    @staticmethod
    def _generator():
        network = PonNetwork.build("olt-lifecycle")
        return LoadGenerator(network, [TenantSpec("tenant-01", "ONU00001")])

    def test_start_while_a_run_is_pending_is_refused(self):
        generator = self._generator()
        task = generator.start(1.0)
        with pytest.raises(RuntimeError, match="still pending"):
            generator.start(1.0)
        generator.sim.run_for(1.0)
        assert task.fires == generator.n_cycles == 50
        single = self._generator().run(1.0)
        assert generator.report().tenants["tenant-01"] \
            == single.tenants["tenant-01"]

    def test_runs_in_sequence(self):
        generator = self._generator()
        first = generator.run(0.2)
        second = generator.run(0.2)
        assert first.duration_s == second.duration_s
        assert second.tenants["tenant-01"].delivered_bytes > 0

    def test_report_before_start_raises(self):
        with pytest.raises(RuntimeError, match="start"):
            self._generator().report()


# ---------------------------------------------------------------------------
# QoS queue releases against per-request TokenBucket.allow
# ---------------------------------------------------------------------------


class TestQueueReleasesMatchPerRequestReference:
    """``admit`` and the ``tests.oracles.admit`` reference share the
    run-based release, so it is pinned here to the per-request loop it
    replaced: spend ``allow`` on each head request until one does not
    fit."""

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.01, 0.02]),
                              st.one_of(st.sampled_from([125, 250, 500]),
                                        st.integers(1, 900))),
                    min_size=1, max_size=40),
           st.lists(st.one_of(st.sampled_from([0.0, 0.05, 0.1]),
                              st.floats(min_value=0.0, max_value=0.3)),
                    min_size=1, max_size=12),
           # Whole-byte refills (tokens can equal a running total
           # exactly) and fractional ones; both buckets hold 1000 bytes.
           st.sampled_from([80_000.0, 80_077.7]))
    @settings(max_examples=100, deadline=None)
    def test_partial_releases_over_several_cycles(self, arrivals, steps,
                                                  rate_bps):
        qos = QosEnforcer()
        qos.add_tenant("t", rate_bps=rate_bps)
        for issued_at, size in sorted(arrivals, key=lambda a: a[0]):
            qos.submit(Request("t", size, issued_at), now=0.0)
        policy = qos.policy("t")
        bucket = copy.deepcopy(policy.bucket)
        waiting = deque(queued_requests(policy))
        now = 0.0
        for step in steps:
            now += step
            released = []
            while waiting and bucket.allow(waiting[0].size_bytes, now):
                released.append(waiting.popleft())
            assert list(qos.admit([], now)) == released
            assert queued_requests(policy) == list(waiting)
            assert policy.queued_bytes == sum(r.size_bytes for r in waiting)
            assert policy.bucket._tokens == bucket._tokens


# ---------------------------------------------------------------------------
# T-CONT and downstream queue drains against per-request references
# ---------------------------------------------------------------------------


class ReferenceQueue:
    """The per-request T-CONT the run-based one replaced: a deque of
    :class:`Request` with a partially sent head, optionally byte-bounded
    with tail drops like :class:`DownstreamQueue`. With ``fragments``
    off, a drain carries whole requests only, like ``RunQueue.pop``."""

    def __init__(self, limit_bytes=None, fragments=True):
        self.queue = deque()
        self.queued_bytes = 0
        self.head_sent = 0
        self.limit_bytes = limit_bytes
        self.fragments = fragments
        self.dropped_requests = 0
        self.dropped_bytes = 0

    def offer(self, request):
        if (self.limit_bytes is not None and self.queued_bytes
                + request.size_bytes > self.limit_bytes):
            self.dropped_requests += 1
            self.dropped_bytes += request.size_bytes
            return False
        self.queue.append(request)
        self.queued_bytes += request.size_bytes
        return True

    def drain(self, granted, now):
        sent = 0
        completed = []
        while granted > 0 and self.queue:
            head = self.queue[0]
            pending = head.size_bytes - self.head_sent
            if pending > granted and not self.fragments:
                break
            take = min(pending, granted)
            sent += take
            granted -= take
            self.queued_bytes -= take
            if take == pending:
                self.queue.popleft()
                self.head_sent = 0
                completed.append((head, now))
            else:
                self.head_sent += take
        return sent, completed


# Operations: offer a batch (runs issued at one of three instants, in
# any order, so tails merge and split) or drain a grant at a time.
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("offer"),
                  st.lists(st.tuples(st.sampled_from([0.0, 0.02, 0.04]),
                                     st.lists(st.integers(1, 3000),
                                              min_size=1, max_size=8)),
                           min_size=1, max_size=3)),
        st.tuples(st.just("drain"), st.integers(0, 12_000))),
    min_size=1, max_size=30)


class PoppedRunQueue:
    """A bare :class:`RunQueue` behind the surface the harness drives:
    an enqueue is a push per run, a drain a whole-request pop."""

    def __init__(self, limit_bytes=None):
        self.queue = RunQueue(limit_bytes)

    def enqueue(self, batch):
        return sum(self.queue.push(issued_at, sizes)
                   for _tenant, issued_at, sizes in batch.runs)

    def drain(self, budget, now):
        runs, nbytes = self.queue.pop(budget)
        return nbytes, [(issued_at, len(sizes)) for issued_at, sizes in runs]

    @property
    def queued_bytes(self):
        return self.queue.nbytes


class ScheduledQueue:
    """One tenant's T-CONT (or ``factory`` queue) behind the surface the
    harness drives: an enqueue goes through its scheduler, a drain to
    the queue itself."""

    def __init__(self, factory=TCont):
        scheduler = DbaScheduler()
        self.tcont = scheduler.register_tcont("ONU1", "t", factory=factory)
        self.enqueue = scheduler.enqueue
        self.drain = self.tcont.drain

    @property
    def queued_bytes(self):
        return self.tcont.queued_bytes


# A push at the head run's instant after a partial drain merges onto the
# partly carried (or partly popped) head run.
_merge_onto_partial_head = [
    ("offer", [(0.04, [100, 200, 300])]), ("drain", 150),
    ("offer", [(0.04, [50, 2500])]), ("drain", 420), ("drain", 12_000)]

# The same at the downstream queue's limit: the second offer fits
# exactly only because ``limit_bytes`` bounds what is still buffered,
# not the 50 bytes of the head request already sent.
_merge_onto_partial_head_at_limit = [
    ("offer", [(0.04, [100, 200, 300])]), ("drain", 150),
    ("offer", [(0.04, [50, QUEUE_LIMIT_BYTES - 500])]), ("drain", 420),
    ("drain", QUEUE_LIMIT_BYTES)]


def _prefill(nbytes):
    """An offer of ``nbytes`` in requests of at most 3000 bytes."""
    whole, rest = divmod(nbytes, 3000)
    sizes = [3000] * whole + ([rest] if rest else [])
    return [("offer", [(0.0, sizes)])] if sizes else []


def _expand(completions):
    """Run-length completions as one issue time per request."""
    return [issued_at for issued_at, count in completions
            for _ in range(count)]


def _check_against_reference(queue, reference, ops):
    offered = 0
    sent_total = 0
    now = 0.1
    for op, arg in ops:
        if op == "offer":
            batch = RequestBatch(("t", issued_at, list(sizes))
                                 for issued_at, sizes in arg)
            accepted = [r for r in batch if reference.offer(r)]
            assert queue.enqueue(batch) == len(accepted)
            offered += sum(r.size_bytes for r in accepted)
        else:
            now += 0.02
            sent, completed = queue.drain(arg, now)
            ref_sent, ref_completed = reference.drain(arg, now)
            assert sent == ref_sent
            assert all(count > 0 for _, count in completed)
            assert _expand(completed) == [r.issued_at
                                          for r, _ in ref_completed]
            assert [now - issued_at for issued_at in _expand(completed)] \
                == [at - r.issued_at for r, at in ref_completed]
            sent_total += sent
        assert queue.queued_bytes == reference.queued_bytes
        # Byte conservation: everything accepted is sent or still queued.
        assert offered == sent_total + queue.queued_bytes


class TestRunDrainsMatchPerRequestReference:
    @pytest.mark.parametrize("bounded", [False, True],
                             ids=["unbounded", "limit"])
    @given(_queue_ops, st.integers(0, 10_000))
    @example(_merge_onto_partial_head, 3000)
    @settings(max_examples=80, deadline=None)
    def test_run_queue(self, bounded, ops, limit):
        limit = limit if bounded else None
        queue = PoppedRunQueue(limit)
        reference = ReferenceQueue(limit, fragments=False)
        _check_against_reference(queue, reference, ops)
        assert queue.queue.dropped_requests == reference.dropped_requests
        assert queue.queue.dropped_bytes == reference.dropped_bytes

    @given(_queue_ops)
    @example(_merge_onto_partial_head)
    @settings(max_examples=80, deadline=None)
    def test_tcont(self, ops):
        _check_against_reference(ScheduledQueue(), ReferenceQueue(), ops)

    @given(_queue_ops, st.integers(1, 10_000))
    @example(_merge_onto_partial_head_at_limit, QUEUE_LIMIT_BYTES)
    @settings(max_examples=80, deadline=None)
    def test_downstream_queue_with_tail_drops(self, ops, room):
        # A queue prefilled to ``room`` bytes short of its limit drops
        # offers and carries a partly sent head request.
        queue = ScheduledQueue(DownstreamQueue)
        reference = ReferenceQueue(limit_bytes=QUEUE_LIMIT_BYTES)
        _check_against_reference(queue, reference,
                                 _prefill(QUEUE_LIMIT_BYTES - room) + ops)
        assert queue.tcont.dropped_requests == reference.dropped_requests
        assert queue.tcont.dropped_bytes == reference.dropped_bytes

    def test_smaller_response_fits_after_a_larger_drop(self):
        scheduler = DownstreamScheduler()
        queue = scheduler.register_queue("ONU1", "t")
        assert scheduler.enqueue(RequestBatch(
            [("t", 0.0, [QUEUE_LIMIT_BYTES - 400, 500, 400])])) == 2
        assert queue.queued_bytes == QUEUE_LIMIT_BYTES
        assert (queue.dropped_requests, queue.dropped_bytes) == (1, 500)

    def test_same_instant_runs_merge_at_the_tail(self):
        scheduler = DbaScheduler()
        tcont = scheduler.register_tcont("ONU1", "t")
        scheduler.enqueue(RequestBatch([("t", 0.0, [100, 100])]))
        scheduler.enqueue(Request("t", 50, 0.0))
        scheduler.enqueue(Request("t", 70, 0.02))
        assert list(tcont.queue.runs) == [(0.0, array("q", [100, 100, 50])),
                                          (0.02, array("q", [70]))]
        assert tcont.drain(320, now=0.1) == (320, [(0.0, 3), (0.02, 1)])
        assert tcont.queued_bytes == 0 and not tcont.queue.runs

    def test_push_merges_onto_a_partly_popped_head(self):
        queue = RunQueue()
        queue.push(0.0, [100, 200, 300])
        assert queue.pop(150) == ([(0.0, array("q", [100]))], 100)
        assert queue.push(0.0, [50]) == 1
        assert (list(queue.runs), queue.head) == (
            [(0.0, array("q", [100, 200, 300, 50]))], 1)
        assert queue.pop(550) == ([(0.0, array("q", [200, 300, 50]))], 550)
        assert not queue.runs and queue.nbytes == 0 and queue.head == 0

    def test_runs_are_packed_copies(self):
        sizes = [100, 200]
        queue = RunQueue()
        queue.push(0.0, sizes)
        sizes.append(300)
        ((issued_at, packed),) = queue.runs
        assert (issued_at, packed.typecode, packed.itemsize) == (0.0, "q", 8)
        assert packed == array("q", [100, 200]) and queue.nbytes == 300

    def test_scheduler_enqueue_routes_runs_by_tenant(self):
        scheduler = DownstreamScheduler()
        scheduler.register_queue("ONU1", "a")
        scheduler.register_queue("ONU2", "b")
        # Each queue holds QUEUE_LIMIT_BYTES (1 MiB): a's third request
        # does not fit.
        batch = RequestBatch([("a", 0.0, [400_000, 400_000]),
                              ("b", 0.0, [900_000]),
                              ("a", 0.0, [400_000])])
        assert scheduler.enqueue(batch) == 3
        assert scheduler.queue("a").dropped_requests == 1
        assert scheduler.queue("b").queued_bytes == 900_000


# ---------------------------------------------------------------------------
# Latency summaries from (latency, count) runs
# ---------------------------------------------------------------------------


def _percentile_of_sorted_list(values, q):
    """The per-request nearest-rank p95 the load generator used to take."""
    if not values:
        return 0.0
    index = min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))
    return values[index]


class TestLatencyRunSummaries:
    @given(st.lists(st.tuples(st.floats(min_value=1e-6, max_value=10.0),
                              st.integers(min_value=1, max_value=40)),
                    max_size=40),
           st.sampled_from([0.5, 0.95, 0.99, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_expanded_sorted_list(self, runs, q):
        expanded = sorted(value for value, count in runs
                          for _ in range(count))
        ordered = sorted(runs)
        assert _percentile(ordered, q) == _percentile_of_sorted_list(
            expanded, q)
        # Bit-identical, not approximately equal: same floats, same order.
        assert _run_sum(ordered) == sum(expanded)
