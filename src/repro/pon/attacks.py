"""T1 network attacks against the PON plant.

Implements the attacker side of the paper's infrastructure-level network
threats so experiments can demonstrate that M3/M4 actually defeat them:

* :class:`FiberTapAttack` — passive interception via a spliced tap
  (succeeds iff it recovers plaintext payloads).
* :class:`ReplayAttack` — capture-and-reinject on an Ethernet segment
  (succeeds iff the receiver accepts the duplicate).
* :class:`OnuImpersonationAttack` — a rogue device announces a victim's
  serial number (succeeds iff the OLT activates it).
* :class:`DownstreamHijackAttack` — active injection of crafted downstream
  GEM frames (succeeds iff a victim ONU accepts the forged payload).

Every attack returns an :class:`AttackResult` so the E4 attack/defense
matrix can tabulate outcomes uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import AuthenticationError, IntegrityError, NotFoundError
from repro.pon.fiber import EthernetLink, FiberTap
from repro.pon.frames import Frame, FrameKind, GemFrame
from repro.pon.macsec import MacsecChannel
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu

# The firmware the field attacker flashes onto a victim ONU.
FIRMWARE_IMPLANT = b"onu-firmware-with-traffic-siphon"
# The payload of the forged downstream GEM frame.
FORGED_PAYLOAD = b"FORGED: redirect traffic to attacker"


@dataclass
class AttackResult:
    """Uniform outcome record for the attack/defense matrix."""

    attack: str
    succeeded: bool
    detail: str
    evidence: List[str] = field(default_factory=list)


class FiberTapAttack:
    """Splice a passive tap into a PON span and read what flows by."""

    def __init__(self, network: PonNetwork, port_index: int = 0) -> None:
        self.network = network
        self.tap: FiberTap[GemFrame] = FiberTap(name="bend-coupler")
        network.span(port_index).attach_tap(self.tap)

    def run(self) -> AttackResult:
        """Evaluate what the tap captured so far."""
        plaintexts = []
        for gem in self.tap.captured:
            if not gem.encrypted and gem.inner.payload:
                plaintexts.append(gem.inner.payload)
        if plaintexts:
            sample = plaintexts[0][:40].decode("utf-8", errors="replace")
            return AttackResult(
                attack="fiber-tap",
                succeeded=True,
                detail=f"recovered {len(plaintexts)} plaintext payloads",
                evidence=[sample],
            )
        return AttackResult(
            attack="fiber-tap",
            succeeded=False,
            detail=(
                f"captured {len(self.tap.captured)} frames, "
                "all payloads encrypted"
            ),
        )


class ReplayAttack:
    """Capture one protected frame on an Ethernet link and re-inject it."""

    def __init__(self, link: EthernetLink) -> None:
        self.tap: FiberTap[Frame] = FiberTap(name="inline-capture")
        link.attach_tap(self.tap)

    def run(self, receiver: Optional[MacsecChannel] = None) -> AttackResult:
        """Replay the last captured frame at the receiver.

        With no MACsec receiver (plaintext link) the duplicate is accepted
        by construction. With MACsec, replay protection must reject it.
        """
        if not self.tap.captured:
            return AttackResult("replay", False, "nothing captured to replay")
        frame = self.tap.captured[-1]
        if receiver is None:
            return AttackResult(
                "replay", True,
                "plaintext link: duplicate delivered and indistinguishable",
                evidence=[f"replayed frame {frame.src}->{frame.dst}"],
            )
        try:
            receiver.validate(frame)
        except IntegrityError as exc:
            return AttackResult("replay", False, f"receiver rejected replay: {exc}")
        return AttackResult(
            "replay", True, "receiver accepted a replayed protected frame",
            evidence=[f"pn={frame.headers.get('macsec_pn')}"],
        )


class OnuImpersonationAttack:
    """Announce a victim subscriber's serial from rogue hardware."""

    def __init__(self, network: PonNetwork, victim_serial: str) -> None:
        self.network = network
        self.victim_serial = victim_serial
        self.rogue = Onu(serial=victim_serial, firmware=b"rogue-firmware")

    def run(self, port_index: int = 0) -> AttackResult:
        """Attempt activation. No certificate is presented (the attacker
        cloned the serial, not the keypair)."""
        try:
            gem_port = self.network.olt.activate_onu(port_index, self.rogue)
        except (AuthenticationError, NotFoundError) as exc:
            return AttackResult(
                "onu-impersonation", False, f"OLT rejected rogue device: {exc}"
            )
        return AttackResult(
            "onu-impersonation", True,
            f"rogue device activated as {self.victim_serial} on GEM port {gem_port}",
            evidence=[f"gem_port={gem_port}"],
        )


class FirmwareTamperAttack:
    """Reflash a legitimate ONU in the field (T2 at the far edge).

    The attacker has physical access to the premises device and replaces
    its firmware (keys survive: they model a flash-resident credential).
    Whether the tampered device can (re)join the PON depends on whether
    the OLT was given the golden firmware measurement at enrollment.
    """

    def __init__(self, network: PonNetwork, victim_serial: str) -> None:
        self.network = network
        self.victim_serial = victim_serial

    def run(self, activate: Optional[object] = None) -> AttackResult:
        """Tamper and attempt re-activation on the victim's own port.

        ``activate`` is an optional callable ``(network, onu, port_index)
        -> gem_port`` performing the secure activation flow (certificate
        mode needs the channel manager); else the legacy serial flow runs.
        """
        olt = self.network.olt
        if self.victim_serial not in olt.onus:
            return AttackResult("onu-firmware-tamper", False,
                                "victim ONU not found")
        port_index = olt.port_of(self.victim_serial).index
        # Reflashing takes the device off the PON until it re-activates.
        victim = olt.deactivate_onu(self.victim_serial)
        victim.flash_firmware(FIRMWARE_IMPLANT)
        try:
            if activate is not None:
                activate(self.network, victim, port_index)
            else:
                olt.activate_onu(port_index, victim)
        except AuthenticationError as exc:
            return AttackResult(
                "onu-firmware-tamper", False,
                f"tampered device rejected at activation: {exc}")
        return AttackResult(
            "onu-firmware-tamper", True,
            "tampered ONU rejoined the PON and can siphon traffic",
            evidence=[f"firmware hash {victim.firmware_hash()[:12]}..."])


class DownstreamHijackAttack:
    """Inject a forged downstream GEM frame toward a victim ONU."""

    def __init__(self, network: PonNetwork, victim_serial: str) -> None:
        self.network = network
        self.victim_serial = victim_serial

    def run(self) -> AttackResult:
        """Craft a GEM frame for the victim and inject it on its span.

        With encryption enabled the attacker cannot produce a frame that
        authenticates under the victim's key, so the ONU rejects it.
        """
        victim = self.network.onus.get(self.victim_serial)
        if victim is None:
            return AttackResult("downstream-hijack", False, "victim not on network")
        gem_port = self.network.olt.provisioned_serials[self.victim_serial]

        frame = Frame(src=self.network.olt.name, dst=self.victim_serial,
                      kind=FrameKind.DATA, payload=FORGED_PAYLOAD)
        encrypted_plant = self.network.olt.encryption_enabled
        forged = GemFrame(gem_port=gem_port, inner=frame,
                          encrypted=encrypted_plant,
                          key_index=0 if not encrypted_plant else
                          self.network.olt.key_server.key_for(gem_port).index)

        # ``received`` is a ring that may already be full, so compare
        # its newest frame rather than its length.
        newest = victim.received[-1] if victim.received else None
        self.network.olt.port_of(self.victim_serial).span.inject(forged, forged.size)
        delivered = victim.received[-1] if victim.received else None
        if delivered is not newest \
                and delivered.payload == FORGED_PAYLOAD:
            return AttackResult(
                "downstream-hijack", True,
                "victim ONU accepted forged downstream frame",
                evidence=[FORGED_PAYLOAD.decode(errors="replace")],
            )
        return AttackResult(
            "downstream-hijack", False,
            "forged frame failed authentication at the victim ONU",
        )
