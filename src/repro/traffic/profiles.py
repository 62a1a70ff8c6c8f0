"""Deterministic per-tenant workload profiles.

The traffic plane starts here: each tenant's workload is a
:class:`WorkloadProfile` that, asked for one scheduler cycle at a time,
emits a :class:`RequestBatch` of upstream requests. Every request a
tenant issues in one cycle shares its tenant and its issue time, so the
batch carries them as one *run* ``(tenant, issued_at, sizes)`` and the
layers after it keep it that way: the QoS backlog, the T-CONT and the
OLT downstream buffer are each one :class:`RunQueue`.
Profiles are driven entirely by the simulation clock and a seeded RNG
(string seeding, which CPython hashes with SHA-512 — stable across
processes), so every experiment replays byte-for-byte.

Four shapes cover the scenarios the E18 benchmark needs:

* :class:`SteadyProfile` — constant-rate service traffic (the well-behaved
  baseline);
* :class:`BurstyProfile` — on/off bursts around the same mean (batch
  analytics, backups);
* :class:`DiurnalProfile` — a sinusoidal day/night swing (residential
  subscriber load);
* :class:`HostileFloodProfile` — a T8 "monopolizing resources" tenant
  offering many times its subscribed rate.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter
from typing import (
    Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Type,
    Union,
)

from repro.common.checks import require_positive

__all__ = [
    "Request",
    "RequestBatch",
    "Run",
    "RunQueue",
    "as_batch",
    "WorkloadProfile",
    "SteadyProfile",
    "BurstyProfile",
    "DiurnalProfile",
    "HostileFloodProfile",
    "PROFILE_KINDS",
    "make_profile",
]

# The mean request size. Each request draws a jitter of up to 10% either
# way, so every size lies between 22,500 and 27,499 bytes.
REQUEST_BYTES = 25_000
# A bursty tenant offers BURST_FACTOR x its rate for 1/BURST_FACTOR of
# each BURST_PERIOD_S period.
BURST_FACTOR = 4.0
BURST_PERIOD_S = 0.2
# One compressed diurnal "day".
DAY_S = 2.0
# A hostile tenant floods at FLOOD_FACTOR x its subscribed rate.
FLOOD_FACTOR = 20.0


class _RequestFields(NamedTuple):
    tenant: str
    size_bytes: int
    issued_at: float


class Request(_RequestFields):
    """One upstream transfer request a tenant wants carried over the PON.

    A tuple-backed immutable record: a fleet run builds hundreds of
    thousands of these and most sit in T-CONT backlogs, so a request
    costs one 3-tuple rather than an object with a ``__dict__``. Every
    construction path — positional, keyword, ``_make``, ``_replace``
    and unpickling — goes through :meth:`__new__` and its size check.
    """

    __slots__ = ()

    def __new__(cls, tenant: str, size_bytes: int,
                issued_at: float) -> "Request":
        if size_bytes <= 0:
            raise ValueError("request size must be positive")
        return tuple.__new__(cls, (tenant, size_bytes, issued_at))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "Request":
        # NamedTuple's own _make calls tuple.__new__ directly, which
        # would skip the size check (and _replace goes through _make).
        return cls(*iterable)


# One tenant's requests issued at one instant: (tenant, issued_at, sizes).
# ``sizes`` is a list, or a packed array popped off a RunQueue.
Run = Tuple[str, float, Sequence[int]]


class RequestBatch(Sequence):
    """An ordered list of runs that behaves as a ``Sequence[Request]``.

    ``len()`` is the request count, and iteration and indexing build
    :class:`Request` records on demand; the layers on the hot path read
    :attr:`runs` instead and never build them. Adding a run refuses a
    non-positive size, so every request a batch yields keeps the
    ``size_bytes > 0`` guarantee of :class:`Request`; :meth:`trusted`
    skips that walk for runs their builder already knows are positive.
    A run's size list is shared, not copied: whoever adds it gives up
    mutating it.
    """

    __slots__ = ("runs", "_count")

    def __init__(self, runs: Iterable[Run] = ()) -> None:
        self.runs: List[Run] = []
        self._count = 0
        for tenant, issued_at, sizes in runs:
            self.add_run(tenant, issued_at, sizes)

    @classmethod
    def trusted(cls, runs: List[Run], count: int) -> "RequestBatch":
        """A batch over runs whose sizes are already known positive.

        The one unchecked path, for callers that built or validated
        every run themselves: ``runs`` holds no empty run and ``count``
        is its request total. The batch takes ``runs`` as its own list.
        """
        batch = cls.__new__(cls)
        batch.runs = runs
        batch._count = count
        return batch

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestBatch":
        """Group consecutive requests with one tenant and issue time."""
        return cls((tenant, issued_at, [size for _, size, _ in run])
                   for (tenant, issued_at), run
                   in groupby(requests, itemgetter(0, 2)))

    def add_run(self, tenant: str, issued_at: float,
                sizes: Sequence[int]) -> None:
        """Append one run; an empty ``sizes`` adds nothing."""
        if not sizes:
            return
        if min(sizes) <= 0:
            raise ValueError("request size must be positive")
        self.runs.append((tenant, issued_at, sizes))
        self._count += len(sizes)

    @property
    def nbytes(self) -> int:
        """Total bytes over every request in the batch."""
        return sum(sum(sizes) for _, _, sizes in self.runs)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Request]:
        for tenant, issued_at, sizes in self.runs:
            for size in sizes:
                yield Request(tenant, size, issued_at)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._count
        if 0 <= index < self._count:
            for tenant, issued_at, sizes in self.runs:
                if index < len(sizes):
                    return Request(tenant, sizes[index], issued_at)
                index -= len(sizes)
        raise IndexError("request batch index out of range")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RequestBatch, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RequestBatch({self.runs!r})"


def as_batch(requests: Union[Request, Iterable[Request]]) -> RequestBatch:
    """One request or any iterable of requests as a batch.

    A batch passes through unchanged; a single request becomes a
    one-request run; anything else is grouped into runs of consecutive
    requests sharing tenant and issue time.
    """
    if isinstance(requests, RequestBatch):
        return requests
    return RequestBatch.from_requests(
        (requests,) if isinstance(requests, Request) else requests)


class RunQueue:
    """One FIFO of waiting requests, held as runs ``(issued_at, sizes)``.

    Consecutive runs have distinct issue times, and the first ``head``
    requests of ``runs[0]`` are already popped. Each run's sizes are
    packed in an ``array('q')``: 8 bytes per waiting request instead of
    a boxed int plus a list slot, which is most of a long backlog's
    memory. ``nbytes`` is the bytes waiting; an owner that carries part
    of the head request before popping it (the T-CONT's partial head)
    takes those bytes off it, so ``limit_bytes`` bounds only what is
    still buffered. Over the limit a push tail-drops request by request,
    counting the drops: a smaller later request can still fit after a
    larger one drops. Without a limit the queue is unbounded.
    """

    __slots__ = ("runs", "head", "nbytes", "limit_bytes",
                 "dropped_requests", "dropped_bytes")

    def __init__(self, limit_bytes: Optional[float] = None) -> None:
        # ``not 0 <= value < inf`` refuses NaN and both infinities too.
        if limit_bytes is not None and not 0 <= limit_bytes < math.inf:
            raise ValueError("limit_bytes must be non-negative and finite, "
                             f"got {limit_bytes!r}")
        self.runs: Deque[Tuple[float, array]] = deque()
        self.head = self.nbytes = 0
        self.limit_bytes = limit_bytes
        self.dropped_requests = self.dropped_bytes = 0

    def push(self, issued_at: float, sizes: Sequence[int]) -> int:
        """Append one run (positive sizes); returns how many were kept.

        A run issued at the tail run's instant merges into it. The queue
        keeps its own packed copy of ``sizes``.
        """
        nbytes = sum(sizes)
        limit = self.limit_bytes
        if limit is not None and self.nbytes + nbytes > limit:
            room = limit - self.nbytes
            kept: List[int] = []
            for size in sizes:
                if size <= room:
                    kept.append(size)
                    room -= size
            self.dropped_requests += len(sizes) - len(kept)
            self.dropped_bytes += nbytes - sum(kept)
            sizes, nbytes = kept, sum(kept)
        if not sizes:
            return 0
        runs = self.runs
        if runs and runs[-1][0] == issued_at:
            runs[-1][1].extend(sizes)
        else:
            runs.append((issued_at, array("q", sizes)))
        self.nbytes += nbytes
        return len(sizes)

    def pop(self, budget: int) -> Tuple[List[Tuple[float, array]], int]:
        """Pop the longest whole-request prefix whose bytes fit ``budget``.

        Returns the popped runs ``(issued_at, sizes)`` in order and
        their byte total: the head requests popped one by one while
        each fits what is left of the budget.
        """
        runs = self.runs
        popped: List[Tuple[float, array]] = []
        left = budget
        index = self.head
        while runs:
            issued_at, sizes = runs[0]
            start = index
            end = len(sizes)
            while index < end and sizes[index] <= left:
                left -= sizes[index]
                index += 1
            if index < end:
                if index > start:
                    popped.append((issued_at, sizes[start:index]))
                break
            runs.popleft()
            popped.append((issued_at, sizes[start:] if start else sizes))
            index = 0
        self.head = index
        self.nbytes -= budget - left
        return popped, budget - left


class WorkloadProfile:
    """Base profile: a subscribed rate plus a deterministic request stream.

    ``rate_bps`` is the tenant's *nominal* (subscribed) rate; subclasses
    shape the actually-offered load around it. ``batch`` returns the
    requests issued during ``[now, now + interval_s)`` as one run of
    :data:`REQUEST_BYTES`-sized requests, each jittered by up to 10%.
    """

    kind = "steady"

    def __init__(self, tenant: str, rate_bps: float, seed: int = 0) -> None:
        require_positive("rate_bps", rate_bps)
        self.tenant = tenant
        self.rate_bps = float(rate_bps)
        self._rng = random.Random(f"{seed}:{self.kind}:{tenant}")
        self._carry_bytes = 0.0   # fractional-request remainder across cycles

    # -- the shape hook subclasses override -----------------------------------

    def offered_bps(self, now: float) -> float:
        """Instantaneous offered rate at simulated time ``now``."""
        return self.rate_bps

    # -- batch generation -------------------------------------------------------

    def batch(self, now: float, interval_s: float) -> RequestBatch:
        """Requests issued during one cycle, in deterministic order."""
        require_positive("interval", interval_s)
        target = self.offered_bps(now) / 8.0 * interval_s + self._carry_bytes
        # A float times a float skips one int-to-float conversion per
        # draw. Below 2**53 that conversion is exact, so the sizes and
        # the loop test are the same as with the int.
        mean = float(REQUEST_BYTES)
        draw = self._rng.random
        sizes: List[int] = []
        append = sizes.append
        while target >= mean:
            size = int(mean * (1.0 + (draw() - 0.5) * 0.2))
            append(size)
            target -= size
        self._carry_bytes = max(0.0, target)
        # The jitter keeps every size within 10% of REQUEST_BYTES, so at
        # least 22,500 and positive.
        if not sizes:
            return RequestBatch()
        return RequestBatch.trusted([(self.tenant, now, sizes)], len(sizes))


class SteadyProfile(WorkloadProfile):
    """Constant-rate offered load at the subscribed rate."""

    kind = "steady"


class BurstyProfile(WorkloadProfile):
    """On/off bursts: :data:`BURST_FACTOR` x rate while on, near-idle while
    off, over a :data:`BURST_PERIOD_S` period.

    Duty cycle is chosen so the long-run mean stays at ``rate_bps``.
    """

    kind = "bursty"

    def __init__(self, tenant: str, rate_bps: float, seed: int = 0) -> None:
        super().__init__(tenant, rate_bps, seed)
        # Deterministic per-tenant phase so tenants don't burst in lockstep.
        self._phase = self._rng.random() * BURST_PERIOD_S

    def offered_bps(self, now: float) -> float:
        position = ((now + self._phase) % BURST_PERIOD_S) / BURST_PERIOD_S
        on = position < (1.0 / BURST_FACTOR)
        return self.rate_bps * BURST_FACTOR if on else self.rate_bps * 0.05


class DiurnalProfile(WorkloadProfile):
    """A compressed day/night swing around the subscribed rate.

    :data:`DAY_S` is the length of one simulated "day" (compressed so the
    benchmarks sweep several cycles in seconds of simulated time). Load
    swings between 25% and 175% of the nominal rate.
    """

    kind = "diurnal"

    def __init__(self, tenant: str, rate_bps: float, seed: int = 0) -> None:
        super().__init__(tenant, rate_bps, seed)
        self._phase = self._rng.random() * DAY_S

    def offered_bps(self, now: float) -> float:
        angle = 2.0 * math.pi * ((now + self._phase) % DAY_S) / DAY_S
        return self.rate_bps * (1.0 + 0.75 * math.sin(angle))


class HostileFloodProfile(WorkloadProfile):
    """The T8 tenant: floods at :data:`FLOOD_FACTOR` x its subscribed rate."""

    kind = "hostile"

    def offered_bps(self, now: float) -> float:
        return self.rate_bps * FLOOD_FACTOR


PROFILE_KINDS: Dict[str, Type[WorkloadProfile]] = {
    "steady": SteadyProfile,
    "bursty": BurstyProfile,
    "diurnal": DiurnalProfile,
    "hostile": HostileFloodProfile,
}


def make_profile(kind: str, tenant: str, rate_bps: float,
                 seed: int = 0) -> WorkloadProfile:
    """Build a profile by kind name (the CLI/loadgen entry point)."""
    cls = PROFILE_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown profile kind {kind!r}; expected one of "
            f"{sorted(PROFILE_KINDS)}")
    return cls(tenant, rate_bps, seed=seed)
