#!/usr/bin/env python3
"""Secure ONU onboarding: T1 network attacks vs the M3/M4 mitigations.

Walks the exact scenario Section IV-B of the paper protects against:
a fiber tap on the shared PON, a rogue device cloning a subscriber's
serial number, and a replayed command on the OLT uplink — each tried
against the unprotected plant and then against the secured one.

Run:  python examples/secure_onboarding.py
"""

from repro.common.clock import SimClock
from repro.pon.attacks import FiberTapAttack, OnuImpersonationAttack, ReplayAttack
from repro.pon.fiber import EthernetLink
from repro.pon.frames import Frame
from repro.pon.macsec import MacsecChannel, derive_sak
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.security.comms import SecureChannelManager


def show(result) -> None:
    status = "ATTACK SUCCEEDED" if result.succeeded else "defended"
    print(f"  [{status:>16}] {result.attack}: {result.detail}")


def unprotected_plant() -> None:
    print("--- Unprotected PON (GPON defaults) ---")
    network = PonNetwork.build("olt-legacy")
    network.attach_onu(Onu("GNIO010001"))

    tap = FiberTapAttack(network)
    network.send_downstream("GNIO010001", b"meter reading: 482.7 kWh, acct 9913")
    show(tap.run())
    show(OnuImpersonationAttack(network, "GNIO010001").run())


def secured_plant() -> None:
    print("\n--- Secured PON (M3 encryption + M4 PKI onboarding) ---")
    manager = SecureChannelManager()
    network = PonNetwork.build("olt-secure")
    manager.secure_pon(network)

    onu = Onu("GNIO010001")
    manager.enroll_onu(onu)
    manager.activate_onu_securely(network, onu)
    print(f"  enrolled + activated {onu.serial} with certificate "
          f"{onu.identity_certificate.serial}")

    tap = FiberTapAttack(network)
    network.send_downstream("GNIO010001", b"meter reading: 482.7 kWh, acct 9913")
    show(tap.run())
    show(OnuImpersonationAttack(network, "GNIO010001").run())
    print(f"  (legitimate ONU still received "
          f"{len(network.delivered_to('GNIO010001'))} frames fine)")


def uplink_replay() -> None:
    print("\n--- OLT uplink replay (M3 MACsec) ---")
    manager = SecureChannelManager()
    manager.enroll("olt-1")
    manager.enroll("cloud-ctl")
    secured = manager.secure_link("uplink-1", "olt-1", "cloud-ctl")
    print(f"  handshake cost: {secured.handshake.cost_units} asymmetric ops, "
          f"{secured.handshake.round_trips} round trips")

    link = EthernetLink("uplink-1", SimClock())
    attack = ReplayAttack(link)

    sak = derive_sak(secured.handshake.shared_secret, "uplink-1")
    receiver = MacsecChannel(sak)
    frame = secured.macsec.a_to_b.protect(
        Frame("olt-1", "cloud-ctl", payload=b"reboot onu GNIO010001"))
    link.transmit(frame, frame.size)
    receiver.validate(frame)
    show(attack.run(receiver=receiver))

    plain_link = EthernetLink("uplink-legacy", SimClock())
    plain_attack = ReplayAttack(plain_link)
    plain = Frame("olt-1", "cloud-ctl", payload=b"reboot onu GNIO010001")
    plain_link.transmit(plain, plain.size)
    show(plain_attack.run(receiver=None))


def main() -> None:
    print("=== Secure onboarding walkthrough (T1 vs M3/M4) ===\n")
    unprotected_plant()
    secured_plant()
    uplink_replay()


if __name__ == "__main__":
    main()
