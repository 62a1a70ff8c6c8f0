"""Deterministic per-tenant workload profiles.

The traffic plane starts here: each tenant's workload is a
:class:`WorkloadProfile` that, asked for one scheduler cycle at a time,
emits a batch of upstream :class:`Request` objects. Profiles are driven
entirely by the simulation clock and a seeded RNG (string seeding, which
CPython hashes with SHA-512 — stable across processes), so every
experiment replays byte-for-byte.

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
from typing import Dict, Iterable, List, NamedTuple, Type

__all__ = [
    "Request",
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


class WorkloadProfile:
    """Base profile: a subscribed rate plus a deterministic request stream.

    ``rate_bps`` is the tenant's *nominal* (subscribed) rate; subclasses
    shape the actually-offered load around it. ``batch`` returns the
    requests issued during ``[now, now + interval_s)``.
    """

    kind = "steady"

    def __init__(self, tenant: str, rate_bps: float,
                 request_bytes: int = 25_000, seed: int = 0) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
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

    def batch(self, now: float, interval_s: float) -> List[Request]:
        """Requests issued during one cycle, in deterministic order."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        target = self.offered_bps(now) / 8.0 * interval_s + self._carry_bytes
        requests: List[Request] = []
        while target >= self.request_bytes:
            jitter = 1.0 + (self._rng.random() - 0.5) * 0.2
            size = max(64, int(self.request_bytes * jitter))
            requests.append(Request(self.tenant, size, now))
            target -= size
        self._carry_bytes = max(0.0, target)
        return requests


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
        if burst_factor <= 1.0:
            raise ValueError("burst_factor must exceed 1")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
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
        if day_s <= 0:
            raise ValueError("day_s must be positive")
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
        if flood_factor <= 1.0:
            raise ValueError("flood_factor must exceed 1")
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
