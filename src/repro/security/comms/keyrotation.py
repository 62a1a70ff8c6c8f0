"""Scheduled GPON key rotation (operational M3).

ITU-T G.987.3 supports key rotation via the key index carried in the GEM
header; GENIO rotates subscriber keys on a schedule so a key compromised
by tampering protects only one rotation window of traffic. The rotation
runs over the *authenticated management channel*: the OLT's key server
rotates, then each affected ONU receives its new key.

The test suite asserts the window property directly: frames captured by
a tap before rotation cannot be decrypted with keys stolen after it, and
vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.checks import require_positive
from repro.common.sim import PeriodicTask, Scheduler
from repro.pon.network import PonNetwork


@dataclass
class RotationRecord:
    """One completed rotation sweep."""

    at: float
    gem_ports: List[int]
    new_indexes: Dict[int, int]


class KeyRotationService:
    """Rotates every active subscriber's GEM key on a fixed period."""

    def __init__(self, network: PonNetwork, period_s: float = 3600.0) -> None:
        require_positive("period_s", period_s)
        self.network = network
        self.period_s = period_s
        self.history: List[RotationRecord] = []

    def rotate_now(self) -> RotationRecord:
        """One sweep: rotate server-side, redistribute to activated ONUs."""
        olt = self.network.olt
        new_indexes: Dict[int, int] = {}
        rotated_ports: List[int] = []
        for serial, onu in sorted(olt.onus.items()):
            gem_port = olt.provisioned_serials[serial]
            key = olt.key_server.rotate(gem_port)
            onu.decryptor.install_key(gem_port, key.key, key.index)
            new_indexes[gem_port] = key.index
            rotated_ports.append(gem_port)
        record = RotationRecord(at=self.network.clock.now,
                                gem_ports=rotated_ports,
                                new_indexes=new_indexes)
        self.history.append(record)
        return record

    def schedule(self, scheduler: Scheduler,
                 horizon_s: Optional[float] = None) -> PeriodicTask:
        """Register the rotation sweep as a periodic task on ``scheduler``.

        With no ``horizon_s`` the task rotates forever (fleet/operations
        mode); with one it stops at the horizon, matching :meth:`start`.
        """
        until = None if horizon_s is None else scheduler.now + horizon_s
        return scheduler.every(self.period_s, self.rotate_now,
                               name=f"keyrotation/{self.network.olt.name}",
                               until=until)

    def start(self, horizon_s: float) -> None:
        """Schedule periodic rotation until ``horizon_s`` from now.

        The timers land on the network's clock, so legacy callers that
        advance the clock directly still get their sweeps.
        """
        self.schedule(Scheduler(clock=self.network.clock), horizon_s)
