"""MACsec (IEEE 802.1AE style) for point-to-point Ethernet segments.

GENIO's M3 mitigation encrypts inter-OLT and OLT-to-cloud Ethernet with
MACsec: AES-GCM over the frame payload with the MAC addresses and a
monotonically increasing packet number (PN) as authenticated associated
data. The PN gives *replay protection* — a receiver rejects any frame
whose PN is not strictly greater than the last accepted one, which is the
property the replay-attack experiment exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common import crypto, telemetry
from repro.common.errors import IntegrityError
from repro.pon.frames import Frame


@dataclass
class MacsecStats:
    """Counters mirroring the 802.1AE MIB (subset)."""

    protected: int = 0
    validated: int = 0
    replayed: int = 0
    tag_failures: int = 0


class MacsecChannel:
    """One secure channel direction between two stations sharing a SAK.

    A full MACsec deployment derives the Secure Association Key (SAK) via
    MKA/802.1X; here the SAK is provisioned directly (GENIO provisions it
    during authenticated onboarding, see :mod:`repro.security.comms`).
    """

    def __init__(self, sak: bytes, replay_protect: bool = True,
                 replay_window: int = 0) -> None:
        """``replay_window`` mirrors 802.1AE's bounded-out-of-order
        acceptance: a frame whose PN lags the highest seen by at most the
        window (and was not already accepted) still validates; window 0 is
        strict in-order."""
        if not sak:
            raise ValueError("SAK must be non-empty")
        if replay_window < 0:
            raise ValueError("replay window must be >= 0")
        self._sak = sak
        self.replay_protect = replay_protect
        self.replay_window = replay_window
        self._next_pn = 1
        self._highest_seen_pn = 0
        self._accepted_in_window: set = set()
        self.stats = MacsecStats()
        metrics = telemetry.active_registry()
        self._frames_counter = None if metrics is None else metrics.counter(
            "macsec_frames_total", "MACsec operations, by result.",
            ("result",))

    def _count(self, result: str) -> None:
        if self._frames_counter is not None:
            self._frames_counter.inc(result=result)

    def protect(self, frame: Frame) -> Frame:
        """Encapsulate a plaintext frame into a MACsec-protected frame."""
        pn = self._next_pn
        self._next_pn += 1
        aad = self._aad(frame.src, frame.dst, pn)
        blob = crypto.aead_encrypt(self._sak, frame.payload, associated_data=aad)
        self.stats.protected += 1
        self._count("protected")
        return (
            frame.with_payload(blob, secure=True)
            .with_header("macsec_pn", pn)
        )

    def validate(self, frame: Frame) -> Frame:
        """Verify and decapsulate a protected frame.

        :raises IntegrityError: replayed packet number, tampered payload,
            or a frame protected under a different SAK.
        """
        pn = frame.headers.get("macsec_pn")
        if not isinstance(pn, int):
            self.stats.tag_failures += 1
            self._count("tag_failure")
            raise IntegrityError("frame lacks a MACsec packet number")
        if self.replay_protect and pn <= self._highest_seen_pn:
            in_window = (self._highest_seen_pn - pn) < self.replay_window
            if not in_window or pn in self._accepted_in_window:
                self.stats.replayed += 1
                self._count("replay_rejected")
                raise IntegrityError(f"replayed packet number {pn}")
        aad = self._aad(frame.src, frame.dst, pn)
        try:
            plaintext = crypto.aead_decrypt(self._sak, frame.payload, associated_data=aad)
        except IntegrityError:
            self.stats.tag_failures += 1
            self._count("tag_failure")
            raise
        if pn > self._highest_seen_pn:
            self._highest_seen_pn = pn
            floor = self._highest_seen_pn - self.replay_window
            self._accepted_in_window = {
                seen for seen in self._accepted_in_window if seen >= floor}
        self._accepted_in_window.add(pn)
        self.stats.validated += 1
        self._count("validated")
        return frame.with_payload(plaintext, secure=False)

    @staticmethod
    def _aad(src: str, dst: str, pn: int) -> bytes:
        return f"{src}>{dst}#{pn}".encode()


class MacsecPair:
    """Convenience: the two unidirectional channels of one MACsec link."""

    def __init__(self, sak: bytes, replay_protect: bool = True) -> None:
        self.a_to_b = MacsecChannel(sak, replay_protect=replay_protect)
        self.b_to_a = MacsecChannel(sak, replay_protect=replay_protect)


def derive_sak(shared_secret: bytes, link_name: str) -> bytes:
    """Derive a per-link SAK from a handshake's shared secret (KDF-style)."""
    return crypto.hmac_sha256(shared_secret, b"macsec-sak:" + link_name.encode())
