"""Deterministic per-tenant workload profiles.

The traffic plane starts here: each tenant's workload is a
:class:`WorkloadProfile` that, asked for one scheduler cycle at a time,
emits a :class:`RequestBatch` of upstream requests. Every request a
tenant issues in one cycle shares its tenant and its issue time, so the
batch carries them as one *run* ``(tenant, issued_at, sizes)`` and the
layers after it (QoS, T-CONT, downstream queue) keep it that way.
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
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple, Type

__all__ = [
    "Request",
    "RequestBatch",
    "Run",
    "as_batch",
    "WorkloadProfile",
    "SteadyProfile",
    "BurstyProfile",
    "DiurnalProfile",
    "HostileFloodProfile",
    "PROFILE_KINDS",
    "make_profile",
]


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
Run = Tuple[str, float, List[int]]


class RequestBatch(Sequence):
    """An ordered list of runs that behaves as a ``Sequence[Request]``.

    ``len()`` is the request count, and iteration and indexing build
    :class:`Request` records on demand; the layers on the hot path read
    :attr:`runs` instead and never build them. Adding a run refuses a
    non-positive size, so every request a batch yields keeps the
    ``size_bytes > 0`` guarantee of :class:`Request`. A run's size list
    is shared, not copied: whoever adds it gives up mutating it.
    """

    __slots__ = ("runs", "_count")

    def __init__(self, runs: Iterable[Run] = ()) -> None:
        self.runs: List[Run] = []
        self._count = 0
        for tenant, issued_at, sizes in runs:
            self.add_run(tenant, issued_at, sizes)

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestBatch":
        """Group consecutive requests with one tenant and issue time."""
        batch = cls()
        key = None
        sizes: List[int] = []
        for tenant, size, issued_at in requests:
            if (tenant, issued_at) != key:
                if sizes:
                    batch.add_run(key[0], key[1], sizes)
                key = (tenant, issued_at)
                sizes = []
            sizes.append(size)
        if sizes:
            batch.add_run(key[0], key[1], sizes)
        return batch

    def add_run(self, tenant: str, issued_at: float,
                sizes: List[int]) -> None:
        """Append one run; an empty ``sizes`` adds nothing."""
        if not sizes:
            return
        if min(sizes) <= 0:
            raise ValueError("request size must be positive")
        self.runs.append((tenant, issued_at, sizes))
        self._count += len(sizes)

    def extend(self, other: "RequestBatch") -> None:
        """Append every run of ``other`` (already validated there)."""
        self.runs.extend(other.runs)
        self._count += other._count

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


def as_batch(requests: Iterable[Request]) -> RequestBatch:
    """Any iterable of requests as a batch.

    A batch passes through unchanged; anything else is grouped into
    runs of consecutive requests sharing tenant and issue time.
    """
    if isinstance(requests, RequestBatch):
        return requests
    return RequestBatch.from_requests(requests)


def _require_positive(name: str, value: float) -> None:
    # ``not value > 0`` also refuses NaN; isfinite refuses the infinities.
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")


class WorkloadProfile:
    """Base profile: a subscribed rate plus a deterministic request stream.

    ``rate_bps`` is the tenant's *nominal* (subscribed) rate; subclasses
    shape the actually-offered load around it. ``batch`` returns the
    requests issued during ``[now, now + interval_s)`` as one run.
    """

    kind = "steady"

    def __init__(self, tenant: str, rate_bps: float,
                 request_bytes: int = 25_000, seed: int = 0) -> None:
        _require_positive("rate_bps", rate_bps)
        if request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        self.tenant = tenant
        self.rate_bps = float(rate_bps)
        self.request_bytes = int(request_bytes)
        self._rng = random.Random(f"{seed}:{self.kind}:{tenant}")
        self._carry_bytes = 0.0   # fractional-request remainder across cycles

    # -- the shape hook subclasses override -----------------------------------

    def offered_bps(self, now: float) -> float:
        """Instantaneous offered rate at simulated time ``now``."""
        return self.rate_bps

    # -- batch generation -------------------------------------------------------

    def batch(self, now: float, interval_s: float) -> RequestBatch:
        """Requests issued during one cycle, in deterministic order."""
        _require_positive("interval", interval_s)
        target = self.offered_bps(now) / 8.0 * interval_s + self._carry_bytes
        request_bytes = self.request_bytes
        draw = self._rng.random
        sizes: List[int] = []
        append = sizes.append
        while target >= request_bytes:
            jitter = 1.0 + (draw() - 0.5) * 0.2
            size = int(request_bytes * jitter)
            if size < 64:
                size = 64
            append(size)
            target -= size
        self._carry_bytes = max(0.0, target)
        batch = RequestBatch()
        batch.add_run(self.tenant, now, sizes)
        return batch


class SteadyProfile(WorkloadProfile):
    """Constant-rate offered load at the subscribed rate."""

    kind = "steady"


class BurstyProfile(WorkloadProfile):
    """On/off bursts: ``burst_factor`` x rate while on, near-idle while off.

    Duty cycle is chosen so the long-run mean stays at ``rate_bps``.
    """

    kind = "bursty"

    def __init__(self, tenant: str, rate_bps: float,
                 request_bytes: int = 25_000, seed: int = 0,
                 burst_factor: float = 4.0, period_s: float = 0.2) -> None:
        super().__init__(tenant, rate_bps, request_bytes, seed)
        if not (burst_factor > 1.0 and math.isfinite(burst_factor)):
            raise ValueError("burst_factor must exceed 1 and be finite")
        _require_positive("period_s", period_s)
        self.burst_factor = burst_factor
        self.period_s = period_s
        # Deterministic per-tenant phase so tenants don't burst in lockstep.
        self._phase = self._rng.random() * period_s

    def offered_bps(self, now: float) -> float:
        position = ((now + self._phase) % self.period_s) / self.period_s
        on = position < (1.0 / self.burst_factor)
        return self.rate_bps * self.burst_factor if on else self.rate_bps * 0.05


class DiurnalProfile(WorkloadProfile):
    """A compressed day/night swing around the subscribed rate.

    ``day_s`` is the length of one simulated "day" (compressed so the
    benchmarks sweep several cycles in seconds of simulated time). Load
    swings between 25% and 175% of the nominal rate.
    """

    kind = "diurnal"

    def __init__(self, tenant: str, rate_bps: float,
                 request_bytes: int = 25_000, seed: int = 0,
                 day_s: float = 2.0) -> None:
        super().__init__(tenant, rate_bps, request_bytes, seed)
        _require_positive("day_s", day_s)
        self.day_s = day_s
        self._phase = self._rng.random() * day_s

    def offered_bps(self, now: float) -> float:
        angle = 2.0 * math.pi * ((now + self._phase) % self.day_s) / self.day_s
        return self.rate_bps * (1.0 + 0.75 * math.sin(angle))


class HostileFloodProfile(WorkloadProfile):
    """The T8 tenant: floods at ``flood_factor`` x its subscribed rate."""

    kind = "hostile"

    def __init__(self, tenant: str, rate_bps: float,
                 request_bytes: int = 25_000, seed: int = 0,
                 flood_factor: float = 20.0) -> None:
        super().__init__(tenant, rate_bps, request_bytes, seed)
        if not (flood_factor > 1.0 and math.isfinite(flood_factor)):
            raise ValueError("flood_factor must exceed 1 and be finite")
        self.flood_factor = flood_factor

    def offered_bps(self, now: float) -> float:
        return self.rate_bps * self.flood_factor


PROFILE_KINDS: Dict[str, Type[WorkloadProfile]] = {
    "steady": SteadyProfile,
    "bursty": BurstyProfile,
    "diurnal": DiurnalProfile,
    "hostile": HostileFloodProfile,
}


def make_profile(kind: str, tenant: str, rate_bps: float,
                 seed: int = 0, **kwargs: object) -> WorkloadProfile:
    """Build a profile by kind name (the CLI/loadgen entry point)."""
    cls = PROFILE_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown profile kind {kind!r}; expected one of "
            f"{sorted(PROFILE_KINDS)}")
    return cls(tenant, rate_bps, seed=seed, **kwargs)
