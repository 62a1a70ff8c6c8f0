"""Optical Line Terminal (OLT) model.

The OLT lives in the telecom central office and terminates the PON. In
GENIO it is repurposed as an edge-computing hub: x86 COTS hardware running
ONL Linux, KVM virtual machines and Kubernetes (Figure 2). This module
models the *network* face of the OLT — PON ports, ONU activation,
downstream broadcast, upstream reception, GEM encryption. The *compute*
face (the host OS, VMs, containers) is modelled by :mod:`repro.osmodel`
and :mod:`repro.virt` and attached by :mod:`repro.platform`.

ONU activation is deliberately two-mode:

* ``serial`` — legacy GPON behaviour: any device announcing a known serial
  number is activated. This is what makes T1 ONU impersonation work.
* ``certificate`` — the M4 mitigation: the announcing device must present
  a certificate chaining to the operator PKI *and* prove possession of the
  key via a signed challenge. The verifier is injected by the security
  layer so this substrate stays dependency-free.

The OLT is the one record of which device is active under each serial:
only :meth:`Olt.activate_onu` and :meth:`Olt.deactivate_onu` write its
activation table, the ports' splitters and ``Onu.activated``, and every
other layer reads the table through the live view :attr:`Olt.onus`.
Every activation attempt, accepted or refused, is one ``pon.activation``
bus event (serial, accepted, reason and mode, stamped with the time) and
one ``pon_activations_total`` count: that event is the onboarding audit
trail, and the OLT keeps no log of its own.

The G.984 line rates are module constants (:data:`UPSTREAM_BPS`,
:data:`DOWNSTREAM_BPS`), and the OLT knows nothing of the traffic
layer: a load generator turns each rate into a per-cycle byte budget
and runs its own DBA and downstream schedulers. Each :class:`PonPort`
receives its span's downstream frames through its
:meth:`PonPort.deliver` method, so the plant holds no closures and a
warm OLT pickles as plain data.
"""

from __future__ import annotations

import random
from collections import abc, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, Iterator, Mapping, NamedTuple, Optional

from repro.common import telemetry
from repro.common.clock import SimClock
from repro.common.errors import AuthenticationError, CapacityError, NotFoundError
from repro.common.events import EventBus
from repro.pon.fiber import FiberSpan
from repro.pon.frames import RETAINED_FRAMES, Frame, FrameKind, GemFrame
from repro.pon.gpon import GponKeyServer
from repro.pon.onu import Onu

# (certificate, challenge, signature) -> subject serial, or raise.
CertificateVerifier = Callable[[object, bytes, bytes], str]

# A 1:64 optical splitter: the most ONUs one PON port serves by default.
SPLIT_RATIO = 64

# The G.984 line rates, upstream and downstream.
UPSTREAM_BPS = 1.244e9
DOWNSTREAM_BPS = 2.488e9

# Every downstream frame the OLT sends for a subscriber is a data frame.
_DATA = FrameKind.DATA


@dataclass
class PonPort:
    """One PON port: a fiber span shared by up to ``split_ratio`` ONUs."""

    index: int
    span: FiberSpan
    onus: Dict[str, Onu] = field(default_factory=dict)
    split_ratio: int = SPLIT_RATIO

    def deliver(self, gem: GemFrame) -> None:
        """Hand a downstream GEM frame to every ONU behind the splitter."""
        for onu in self.onus.values():
            onu.receive_gem(gem)


class _Route(NamedTuple):
    """Where an active serial sits: its port, its GEM port and the device."""

    port: PonPort
    gem_port: int
    onu: Onu


class _ActiveOnus(abc.Mapping):
    """A read-only, live view of an OLT's activation table.

    Maps each active serial to the device active under it, in activation
    order. It holds only the OLT's own table, so it is made on each read
    and never stored: whoever needs the registry asks the OLT.
    """

    __slots__ = ("_active",)

    def __init__(self, active: Dict[str, _Route]) -> None:
        self._active = active

    def __getitem__(self, serial: str) -> Onu:
        return self._active[serial].onu

    def __contains__(self, serial: object) -> bool:
        return serial in self._active

    def __iter__(self) -> Iterator[str]:
        return iter(self._active)

    def __len__(self) -> int:
        return len(self._active)

    def __repr__(self) -> str:
        return f"_ActiveOnus({dict(self)!r})"


def _splitter_full(port: PonPort) -> str:
    return f"port {port.index} splitter (1:{port.split_ratio}) is full"


class Olt:
    """An OLT: PON ports plus the activation and encryption machinery."""

    def __init__(
        self,
        name: str,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
        auth_mode: str = "serial",
    ) -> None:
        if auth_mode not in ("serial", "certificate"):
            raise ValueError("auth_mode must be 'serial' or 'certificate'")
        self.name = name
        self._clock = clock or SimClock()
        self._bus = bus
        self.auth_mode = auth_mode
        self._rng = random.Random(0x017)
        self.key_server = GponKeyServer(rng=self._rng)
        self.encryption_enabled = False
        self.ports: Dict[int, PonPort] = {}
        self.provisioned_serials: Dict[str, int] = {}  # serial -> gem_port
        # The activation table: the one record of which device is active
        # under each serial, and where. Only activate_onu and
        # deactivate_onu write it (and PonPort.onus, and Onu.activated).
        self._active: Dict[str, _Route] = {}
        # serial -> expected firmware hash; when set for a serial, the ONU
        # must attest matching firmware at activation (anti-T2 on ONUs).
        self.expected_firmware: Dict[str, str] = {}
        self.certificate_verifier: Optional[CertificateVerifier] = None
        # The newest upstream frames only: a ring, so capture stays
        # bounded however long the run.
        self.upstream_frames: Deque[Frame] = deque(maxlen=RETAINED_FRAMES)
        self._next_gem_port = 1000
        metrics = telemetry.active_registry()
        self._metrics = metrics
        if metrics is not None:
            self._frames_counter = metrics.counter(
                "pon_frames_total", "PON frames transmitted, by direction.",
                ("direction",))
            self._bytes_counter = metrics.counter(
                "pon_bytes_total", "PON payload bytes carried, by direction.",
                ("direction",))
            self._encrypted_counter = metrics.counter(
                "pon_gem_encrypted_total",
                "Downstream GEM frames protected by G.987.3 encryption.")
            self._activation_counter = metrics.counter(
                "pon_activations_total", "ONU activation attempts, by outcome.",
                ("accepted",))

    # -- provisioning ----------------------------------------------------------

    def add_port(self, index: int, span: FiberSpan) -> PonPort:
        """Attach a PON port backed by ``span``."""
        if index in self.ports:
            raise ValueError(f"port {index} already exists on {self.name}")
        port = PonPort(index=index, span=span)
        span.attach_receiver(port.deliver)
        self.ports[index] = port
        return port

    def provision_serial(self, serial: str) -> int:
        """Pre-provision a subscriber serial, assigning it a GEM port."""
        if serial not in self.provisioned_serials:
            self.provisioned_serials[serial] = self._next_gem_port
            self._next_gem_port += 1
        return self.provisioned_serials[serial]

    def check_splitter(self, port_index: int, serials: Iterable[str]) -> None:
        """Refuse, before any activation, serials a port cannot all hold.

        :raises CapacityError: the serials not yet behind ``port_index``'s
            splitter outnumber its free slots (the error
            :meth:`activate_onu` raises for the first one that misses,
            followed by both counts).
        """
        port = self._port(port_index)
        joining = set(serials).difference(port.onus)
        free = port.split_ratio - len(port.onus)
        if len(joining) > free:
            raise CapacityError(f"{_splitter_full(port)}: {len(joining)} "
                                f"ONUs for {free} free slots")

    def enable_encryption(self) -> None:
        """Turn on G.987.3 downstream payload encryption (part of M3)."""
        self.encryption_enabled = True

    def set_certificate_verifier(self, verifier: CertificateVerifier) -> None:
        """Install the PKI verifier and switch activation to certificate mode."""
        self.certificate_verifier = verifier
        self.auth_mode = "certificate"

    # -- activation (the M4 battleground) ---------------------------------------

    def make_challenge(self) -> bytes:
        """Fresh nonce the activating ONU must sign in certificate mode."""
        return self._rng.getrandbits(128).to_bytes(16, "big")

    def activate_onu(
        self,
        port_index: int,
        onu: Onu,
        certificate: Optional[object] = None,
        challenge: Optional[bytes] = None,
        challenge_signature: Optional[bytes] = None,
    ) -> int:
        """Attempt to activate ``onu`` on a port; returns its GEM port.

        :raises AuthenticationError: unknown serial, or (in certificate
            mode) a missing/invalid credential.
        """
        port = self._port(port_index)
        serial = onu.serial
        if serial not in self.provisioned_serials:
            self._log_activation(serial, accepted=False, reason="unknown serial")
            raise AuthenticationError(f"serial {serial} is not provisioned")

        if self.auth_mode == "certificate":
            reason = self._verify_certificate(serial, certificate, challenge, challenge_signature)
            if reason is not None:
                self._log_activation(serial, accepted=False, reason=reason)
                raise AuthenticationError(f"activation of {serial} rejected: {reason}")

        expected_hash = self.expected_firmware.get(serial)
        if expected_hash is not None and onu.firmware_hash() != expected_hash:
            reason = (f"firmware measurement mismatch: expected "
                      f"{expected_hash[:12]}..., device reports "
                      f"{onu.firmware_hash()[:12]}...")
            self._log_activation(serial, accepted=False, reason=reason)
            raise AuthenticationError(
                f"activation of {serial} rejected: {reason}")

        if serial not in port.onus and len(port.onus) >= port.split_ratio:
            self._log_activation(serial, accepted=False,
                                 reason="splitter at capacity")
            raise CapacityError(_splitter_full(port))

        gem_port = self.provisioned_serials[serial]
        onu.assign_gem_port(gem_port)
        previous = self._active.get(serial)
        if previous is not None:
            # A different device under an active serial (impersonation)
            # displaces the one there; a serial sits behind one splitter.
            if previous.onu is not onu:
                previous.onu.activated = False
            if previous.port is not port:
                del previous.port.onus[serial]
        onu.activated = True
        port.onus[serial] = onu
        self._active[serial] = _Route(port, gem_port, onu)
        key = self.key_server.establish(gem_port)
        if self.encryption_enabled:
            onu.decryptor.install_key(gem_port, key.key, key.index)
        self._log_activation(serial, accepted=True, reason="activated")
        return gem_port

    def deactivate_onu(self, serial: str) -> Onu:
        """Take the device active under ``serial`` off its splitter.

        Returns the device, no longer ``activated``. The serial stays
        provisioned, so a later activation gets the same GEM port back.

        :raises NotFoundError: ``serial`` is not active on this OLT.
        """
        port, _, onu = self._route(serial)
        del self._active[serial]
        del port.onus[serial]
        onu.activated = False
        return onu

    @property
    def onus(self) -> Mapping[str, Onu]:
        """Serial -> the device active under it, in activation order.

        A read-only view of the activation table that follows every
        later activation and deactivation.
        """
        return _ActiveOnus(self._active)

    def _verify_certificate(
        self,
        serial: str,
        certificate: Optional[object],
        challenge: Optional[bytes],
        signature: Optional[bytes],
    ) -> Optional[str]:
        """Return a rejection reason, or None if the credential verifies."""
        if self.certificate_verifier is None:
            return "certificate mode enabled but no verifier installed"
        if certificate is None or challenge is None or signature is None:
            return "missing certificate, challenge, or signature"
        try:
            subject = self.certificate_verifier(certificate, challenge, signature)
        except AuthenticationError as exc:
            return str(exc)
        if subject != serial:
            return f"certificate subject {subject!r} does not match serial {serial!r}"
        return None

    # -- traffic -----------------------------------------------------------------

    def port_of(self, serial: str) -> PonPort:
        """The port the device active under ``serial`` sits on
        (NotFoundError if none)."""
        return self._route(serial).port

    def send_downstream(self, serial: str, payload: bytes,
                        size_override: Optional[int] = None) -> float:
        """Broadcast a downstream frame for one subscriber across its PON.

        Returns the transmission delay. The byte counter and the span
        account the frame's on-the-wire size (post-encryption
        ``gem.size``). ``size_override`` lets a scheduling cycle's
        aggregated drain travel as a single frame accounting as its full
        size without materialising payload bytes, mirroring the upstream
        path. The frame physically reaches every ONU (and tap) on the
        span of the port the serial activated on — only encryption limits
        who can read it.
        """
        port, gem_port, _ = self._route(serial)
        frame = Frame(self.name, serial, _DATA, payload, False, None,
                      size_override)
        gem = GemFrame(gem_port, frame)
        if self.encryption_enabled:
            gem = self.key_server.encrypt(gem)
        wire_bytes = gem.size
        if self._metrics is not None:
            self._frames_counter.inc(direction="downstream")
            self._bytes_counter.inc(wire_bytes, direction="downstream")
            if self.encryption_enabled:
                self._encrypted_counter.inc()
        return port.span.transmit(gem, wire_bytes)

    def receive_upstream(self, frame: Frame) -> None:
        """Accept an upstream frame from an activated ONU.

        :raises ValueError: no device is active under the frame's source.
        """
        if frame.src not in self._active:
            raise ValueError(f"ONU {frame.src} is not activated on this network")
        self.upstream_frames.append(frame)
        size = frame.size
        if self._metrics is not None:
            self._frames_counter.inc(direction="upstream")
            self._bytes_counter.inc(size, direction="upstream")
        if self._bus is not None:
            self._bus.emit(
                "pon.upstream", self.name, self._clock.now,
                src=frame.src, kind=frame.kind.value, size=size,
            )

    # -- internals ------------------------------------------------------------------

    def _port(self, index: int) -> PonPort:
        port = self.ports.get(index)
        if port is None:
            raise NotFoundError(f"OLT {self.name} has no port {index}")
        return port

    def _route(self, serial: str) -> _Route:
        route = self._active.get(serial)
        if route is None:
            raise NotFoundError(f"serial {serial} is not active on {self.name}")
        return route

    def _log_activation(self, serial: str, accepted: bool, reason: str) -> None:
        if self._metrics is not None:
            self._activation_counter.inc(accepted=str(accepted).lower())
        if self._bus is not None:
            self._bus.emit(
                "pon.activation", self.name, self._clock.now,
                serial=serial, accepted=accepted, reason=reason, mode=self.auth_mode,
            )

    def __repr__(self) -> str:
        return f"Olt(name={self.name!r}, ports={len(self.ports)}, auth={self.auth_mode})"
