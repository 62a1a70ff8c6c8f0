"""PON network assembly.

Wires OLTs, fiber spans and ONUs into one plant. The plant keeps no
traffic statistics of its own: frames and bytes are counted by the OLT's
``pon_frames_total``/``pon_bytes_total`` counters and each fiber span's
``frames_carried``/``bytes_carried`` (the encryption-overhead experiment,
E6, reads ``span().bytes_carried``), and the downstream transmission
delay by the ``pon_tx_delay_seconds`` histogram.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.common import telemetry
from repro.common.clock import SimClock
from repro.common.events import EventBus
from repro.pon.fiber import FiberSpan
from repro.pon.frames import Frame, FrameKind
from repro.pon.olt import Olt
from repro.pon.onu import Onu

# Every frame the plant carries for a caller is a data frame.
_DATA = FrameKind.DATA


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
        metrics = telemetry.active_registry()
        self._tx_delay_histogram = None if metrics is None else \
            metrics.histogram(
                "pon_tx_delay_seconds",
                "Simulated downstream transmission delay per frame.",
                buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.01))

    @property
    def onus(self) -> Mapping[str, Onu]:
        """Serial -> active device: the OLT's activation table, read live."""
        return self.olt.onus

    @classmethod
    def build(
        cls,
        olt_name: str = "olt-1",
        n_ports: int = 1,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
    ) -> "PonNetwork":
        """Construct an OLT with ``n_ports`` PON spans ready for ONUs.

        The OLT starts in serial-number activation, the stock GPON
        default; M4 switches it to certificate mode.
        """
        clock = clock or SimClock()
        bus = bus or EventBus()
        olt = Olt(olt_name, clock=clock, bus=bus)
        for index in range(n_ports):
            span = FiberSpan(f"{olt_name}/pon{index}", clock, bus=bus)
            olt.add_port(index, span)
        return cls(olt, clock=clock, bus=bus)

    def attach_onu(self, onu: Onu, port_index: int = 0, **activation_kwargs: object) -> int:
        """Provision and activate an ONU on the port every later send for
        its serial takes; returns its GEM port."""
        self.olt.provision_serial(onu.serial)
        return self.olt.activate_onu(port_index, onu, **activation_kwargs)

    def provision_only(self, serial: str) -> int:
        """Provision a subscriber serial without activating hardware."""
        return self.olt.provision_serial(serial)

    def send_downstream(self, serial: str, payload: bytes,
                        size_override: Optional[int] = None) -> float:
        """Send one downstream frame; returns its transmission delay.

        Delivery is synchronous and the transmission delay is *accounted*
        (the ``pon_tx_delay_seconds`` histogram) but never applied to the
        clock — time advancement belongs exclusively to the scheduler in
        :mod:`repro.common.sim`, so two networks sharing a clock cannot
        skew each other's timestamps.

        The OLT counts the frame's actual on-the-wire size
        (post-encryption ``gem.size``) in ``pon_bytes_total``, and the
        span in ``bytes_carried``. ``size_override`` mirrors
        :meth:`send_upstream`: an aggregated downstream cycle's drain
        travels as one frame accounting as its full granted size.
        """
        delay = self.olt.send_downstream(serial, payload, size_override)
        if self._tx_delay_histogram is not None:
            self._tx_delay_histogram.observe(delay)
        return delay

    def send_upstream(self, serial: str, payload: bytes,
                      size_override: Optional[int] = None) -> None:
        """Send one upstream frame from an activated ONU to the OLT.

        ``size_override`` lets a DBA cycle's aggregated grant travel as a
        single frame that *accounts* as its full granted size without
        materialising the payload bytes. The OLT refuses a serial no
        device is active under (``ValueError``), before any counter moves.
        """
        frame = Frame(serial, self.olt.name, _DATA, payload, False, None,
                      size_override)
        self.olt.receive_upstream(frame)

    def span(self, port_index: int = 0) -> FiberSpan:
        """The fiber span of one PON port (tap attachment point)."""
        return self.olt.ports[port_index].span

    def delivered_to(self, serial: str) -> List[Frame]:
        """Frames an ONU actually received (and could decrypt).

        Only the newest :data:`~repro.pon.frames.RETAINED_FRAMES` are
        kept; the ``pon_frames_total`` counter counts every frame.
        """
        onu = self.olt.onus.get(serial)
        return list(onu.received) if onu else []
