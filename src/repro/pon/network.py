"""PON network assembly and traffic statistics.

Wires OLTs, fiber spans and ONUs into one plant, and provides the
measurement hooks the encryption-overhead experiment (E6) uses: frames and
bytes carried, cumulative transmission delay, and per-ONU delivery counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common import telemetry
from repro.common.clock import SimClock
from repro.common.events import EventBus
from repro.pon.fiber import EthernetLink, FiberSpan
from repro.pon.frames import Frame, FrameKind, GemFrame
from repro.pon.olt import Olt
from repro.pon.onu import Onu


@dataclass
class TrafficStats:
    """Aggregate counters for one measurement window."""

    frames_sent: int = 0
    bytes_sent: int = 0
    total_delay_s: float = 0.0
    upstream_frames: int = 0
    upstream_bytes: int = 0

    @property
    def goodput_bps(self) -> float:
        """Payload bits per second of simulated transfer time."""
        if self.total_delay_s <= 0:
            return 0.0
        return (self.bytes_sent * 8) / self.total_delay_s


class PonNetwork:
    """One OLT, its PON spans, and the ONUs behind them."""

    def __init__(
        self,
        olt: Olt,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.olt = olt
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self.onus: Dict[str, Onu] = {}
        self.stats = TrafficStats()
        self.uplinks: Dict[str, EthernetLink] = {}
        metrics = telemetry.active_registry()
        self._tx_delay_histogram = None if metrics is None else \
            metrics.histogram(
                "pon_tx_delay_seconds",
                "Simulated downstream transmission delay per frame.",
                buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.01))

    @classmethod
    def build(
        cls,
        olt_name: str = "olt-1",
        n_ports: int = 1,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
        auth_mode: str = "serial",
    ) -> "PonNetwork":
        """Construct an OLT with ``n_ports`` PON spans ready for ONUs."""
        clock = clock or SimClock()
        bus = bus or EventBus()
        olt = Olt(olt_name, clock=clock, bus=bus, auth_mode=auth_mode)
        for index in range(n_ports):
            span = FiberSpan(f"{olt_name}/pon{index}", clock, bus=bus,
                             latency_s=0.0002, bandwidth_bps=10e9)
            olt.add_port(index, span)
        return cls(olt, clock=clock, bus=bus)

    def attach_onu(self, onu: Onu, port_index: int = 0, **activation_kwargs: object) -> int:
        """Provision and activate an ONU; returns its GEM port."""
        self.olt.provision_serial(onu.serial)
        gem_port = self.olt.activate_onu(port_index, onu, **activation_kwargs)
        self.onus[onu.serial] = onu
        return gem_port

    def provision_only(self, serial: str) -> int:
        """Provision a subscriber serial without activating hardware."""
        return self.olt.provision_serial(serial)

    def send_downstream(self, serial: str, payload: bytes,
                        kind: FrameKind = FrameKind.DATA, port_index: int = 0,
                        size_override: Optional[int] = None) -> float:
        """Send one downstream frame and account it in :attr:`stats`.

        Delivery is synchronous and the transmission delay is *accounted*
        (stats, histogram) but never applied to the clock — time
        advancement belongs exclusively to the scheduler in
        :mod:`repro.common.sim`, so two networks sharing a clock cannot
        skew each other's timestamps.

        ``stats.bytes_sent`` accounts the frame's actual on-the-wire size
        as reported by the OLT (post-encryption ``gem.size``), never a
        re-derived header-overhead estimate — with GEM encryption on, the
        two disagree by the AEAD expansion, and the plant stats must
        match the ``pon_bytes_total`` counter byte for byte.
        ``size_override`` mirrors :meth:`send_upstream`: an aggregated
        downstream cycle's drain travels as one frame accounting as its
        full granted size.
        """
        delay, wire_bytes = self.olt.send_downstream(
            port_index, serial, payload, kind, size_override)
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += wire_bytes
        stats.total_delay_s += delay
        if self._tx_delay_histogram is not None:
            self._tx_delay_histogram.observe(delay)
        return delay

    def send_upstream(self, serial: str, payload: bytes,
                      kind: FrameKind = FrameKind.DATA,
                      size_override: Optional[int] = None) -> None:
        """Send one upstream frame from an activated ONU to the OLT.

        ``size_override`` lets a DBA cycle's aggregated grant travel as a
        single frame that *accounts* as its full granted size without
        materialising the payload bytes.
        """
        onu = self.onus.get(serial)
        if onu is None or not onu.activated:
            raise ValueError(f"ONU {serial} is not activated on this network")
        frame = Frame(serial, self.olt.name, kind, payload, False, None,
                      size_override)
        stats = self.stats
        stats.upstream_frames += 1
        stats.upstream_bytes += frame.size
        self.olt.receive_upstream(frame)

    def span(self, port_index: int = 0) -> FiberSpan:
        """The fiber span of one PON port (tap attachment point)."""
        return self.olt.ports[port_index].span

    def delivered_to(self, serial: str) -> List[Frame]:
        """Frames an ONU actually received (and could decrypt).

        Only the newest :data:`~repro.pon.frames.RETAINED_FRAMES` are
        kept; :attr:`stats` counts every frame.
        """
        onu = self.onus.get(serial)
        return list(onu.received) if onu else []
