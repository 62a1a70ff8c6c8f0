"""Fiber spans, Ethernet links, and taps.

The physical layer of the simulation. A :class:`FiberSpan` carries GEM
frames between the OLT and the splitter/ONUs; an :class:`EthernetLink`
carries Ethernet frames point-to-point (inter-OLT, OLT-to-cloud). Both
support :class:`FiberTap` attachment — the paper's physical-tampering
vector (T1): a bend coupler on the fiber gives an attacker a copy of every
frame in flight. Taps are *passive* (copy) but links also expose
``inject`` so active on-path attacks (replay, hijack) can be expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, TypeVar

from repro.common.clock import SimClock
from repro.common.events import EventBus

FrameT = TypeVar("FrameT")

# Every span and link: 0.2 ms propagation at 10 Gb/s serialisation.
LINK_LATENCY_S = 0.0002
LINK_BANDWIDTH_BPS = 10e9


@dataclass
class FiberTap(Generic[FrameT]):
    """A passive optical tap: receives a copy of every frame on the link."""

    name: str
    captured: List[FrameT] = field(default_factory=list)

    def observe(self, frame: FrameT) -> None:
        self.captured.append(frame)

    def clear(self) -> None:
        self.captured.clear()


class _Link(Generic[FrameT]):
    """Shared machinery for fiber spans and Ethernet links."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.name = name
        self._clock = clock
        self._bus = bus
        self._taps: List[FiberTap[FrameT]] = []
        self._receivers: List[Callable[[FrameT], None]] = []
        self.frames_carried = 0
        self.bytes_carried = 0

    def attach_tap(self, tap: FiberTap[FrameT]) -> None:
        """Splice a passive tap into the span (the T1 physical attack)."""
        self._taps.append(tap)

    def detach_tap(self, tap: FiberTap[FrameT]) -> None:
        if tap in self._taps:
            self._taps.remove(tap)

    def attach_receiver(self, receiver: Callable[[FrameT], None]) -> None:
        """Register the legitimate endpoint(s) of the link."""
        self._receivers.append(receiver)

    def transmit(self, frame: FrameT, size: int) -> float:
        """Carry ``frame`` to every receiver and tap.

        Returns the transmission delay in seconds (latency + serialisation)
        so callers can account time without blocking the simulation.
        """
        self.frames_carried += 1
        self.bytes_carried += size
        for tap in self._taps:
            tap.observe(frame)
        for receiver in list(self._receivers):
            receiver(frame)
        if self._bus is not None:
            self._bus.emit(
                "pon.link", self.name, self._clock.now,
                frames=self.frames_carried, size=size,
            )
        return LINK_LATENCY_S + (size * 8) / LINK_BANDWIDTH_BPS

    def inject(self, frame: FrameT, size: int) -> float:
        """Active on-path injection: carried exactly as :meth:`transmit`
        carries a legitimate frame; nothing marks it as injected."""
        return self.transmit(frame, size)

    @property
    def tapped(self) -> bool:
        """True if at least one tap is spliced in."""
        return bool(self._taps)


class FiberSpan(_Link):
    """Optical span carrying GEM frames (OLT <-> splitter <-> ONUs)."""


class EthernetLink(_Link):
    """Point-to-point Ethernet segment (inter-OLT, OLT-to-cloud)."""
