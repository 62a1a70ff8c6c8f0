"""Optical Network Unit (ONU) model.

ONUs sit at residential/business premises — physically exposed hardware,
which is why the paper treats ONU impersonation and firmware tampering as
first-class threats. In GENIO, ONUs additionally carry low-end compute for
far-edge workloads (Figure 1).

An ONU has:

* a *serial number* — the only credential legacy GPON activation uses,
  and therefore trivially spoofable (T1);
* optionally a *device certificate* issued by the operator's PKI, used by
  the M4 mitigation for mutual authentication during onboarding;
* firmware with a measurable hash (target of T2 code tampering);
* GEM decryption state for M3 payload encryption;
* a small fixed compute capacity (:data:`ONU_CPU_CORES`,
  :data:`ONU_MEMORY_MB`) for far-edge workloads.

What an ONU received is kept in :attr:`Onu.received`, a ring of the
newest :data:`~repro.pon.frames.RETAINED_FRAMES` frames.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common import crypto
from repro.common.errors import IntegrityError, NotFoundError
from repro.pon.frames import RETAINED_FRAMES, Frame, GemFrame
from repro.pon.gpon import GponDecryptor


# The far-edge compute every ONU carries (Figure 1's low-end nodes).
ONU_CPU_CORES = 2
ONU_MEMORY_MB = 1024


class Onu:
    """A single ONU on the PON."""

    def __init__(
        self,
        serial: str,
        firmware: bytes = b"onu-firmware-v1.0",
    ) -> None:
        if not serial:
            raise ValueError("ONU serial must be non-empty")
        self.serial = serial
        self._firmware = firmware
        self.decryptor = GponDecryptor()
        self.gem_ports: List[int] = []
        self.activated = False
        self.identity_certificate: Optional[object] = None
        self.identity_keypair: Optional[crypto.RsaKeyPair] = None
        self.received: Deque[Frame] = deque(maxlen=RETAINED_FRAMES)
        self.undecryptable = 0
        self.rejected = 0
        self._runtime = None  # lazy far-edge container runtime

    def compute_runtime(self, clock=None, bus=None):
        """The ONU's far-edge container runtime (created on first use).

        GENIO ONUs carry low-end compute for ultra-low-latency workloads
        (Figure 1); this exposes it through the same runtime abstraction
        the OLT worker VMs use, so M16-M18 apply at the far edge too.
        """
        if self._runtime is None:
            from repro.virt.runtime import ContainerRuntime
            self._runtime = ContainerRuntime(
                node_name=f"onu/{self.serial}",
                cpu_capacity=float(ONU_CPU_CORES),
                memory_capacity_mb=float(ONU_MEMORY_MB),
                clock=clock, bus=bus)
        return self._runtime

    # -- firmware (T2 target) ------------------------------------------------

    @property
    def firmware(self) -> bytes:
        return self._firmware

    def firmware_hash(self) -> str:
        """Measured firmware hash, as attested during secure onboarding."""
        return crypto.sha256_hex(self._firmware)

    def flash_firmware(self, image: bytes) -> None:
        """Replace firmware — legitimate update or T2 tampering alike."""
        self._firmware = image

    # -- identity -------------------------------------------------------------

    def provision_identity(self, keypair: crypto.RsaKeyPair, certificate: object) -> None:
        """Install the PKI credential used for M4 mutual authentication."""
        self.identity_keypair = keypair
        self.identity_certificate = certificate

    # -- traffic --------------------------------------------------------------

    def assign_gem_port(self, gem_port: int) -> None:
        if gem_port not in self.gem_ports:
            self.gem_ports.append(gem_port)

    def receive_gem(self, gem: GemFrame) -> Optional[Frame]:
        """Handle a broadcast downstream GEM frame.

        Frames for other subscribers' GEM ports are filtered (or, if
        encrypted, undecryptable); frames for this ONU's ports are
        delivered to :attr:`received`, which keeps the newest
        :data:`~repro.pon.frames.RETAINED_FRAMES` of them.
        """
        if gem.gem_port not in self.gem_ports:
            if gem.encrypted:
                self.undecryptable += 1
            return None
        try:
            frame = self.decryptor.decrypt(gem)
        except (IntegrityError, NotFoundError):
            # Forged or corrupted frame: drop and count, as real hardware
            # does — one bad frame must not wedge the receive path.
            self.rejected += 1
            return None
        self.received.append(frame)
        return frame

    def __repr__(self) -> str:
        return f"Onu(serial={self.serial!r}, activated={self.activated})"
