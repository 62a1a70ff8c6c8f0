"""End-to-end SDN provisioning: ONOS -> VOLTHA -> OLT.

Wires the three network-management planes together the way GENIO operates
them: the management service account (TLS-certificate-bound after M10)
registers the OLT with the controller, VOLTHA pre-provisions and enables
it, and subscriber flows are pushed down to the physical OLT's GEM port
table. One call, fully authenticated at each hop — and auditable at each
hop, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import NotFoundError
from repro.pon.network import PonNetwork
from repro.sdn.controller import ApiCapability, SdnController
from repro.sdn.voltha import VolthaCore


@dataclass
class ProvisioningRecord:
    """One completed OLT provisioning run."""

    olt: str
    controller_registered: bool
    voltha_state: str
    subscribers_provisioned: List[str] = field(default_factory=list)


class SdnProvisioningService:
    """The operator's provisioning workflow across the SDN planes."""

    def __init__(self, controller: SdnController, voltha: VolthaCore,
                 account: str, credential: Dict[str, str]) -> None:
        """``credential`` carries either ``password`` or
        ``tls_certificate_fp`` depending on the hardening state."""
        self.controller = controller
        self.voltha = voltha
        self.account = account
        self.credential = dict(credential)
        self.records: List[ProvisioningRecord] = []

    def _call_controller(self, capability: ApiCapability,
                         **params: str) -> Dict[str, str]:
        return self.controller.call(self.account, capability,
                                    password=self.credential.get("password", ""),
                                    tls_certificate_fp=self.credential.get(
                                        "tls_certificate_fp", ""),
                                    **params)

    def bring_up_olt(self, network: PonNetwork) -> ProvisioningRecord:
        """Register + enable one OLT across ONOS and VOLTHA."""
        olt = network.olt
        self._call_controller(ApiCapability.DEVICE_REGISTRATION,
                              device_id=olt.name)
        tls_fp = self.credential.get("tls_certificate_fp", "")
        self.voltha.preprovision(self.account, olt.name, "openolt",
                                 tls_certificate_fp=tls_fp)
        device = self.voltha.enable(self.account, olt.name,
                                    tls_certificate_fp=tls_fp)
        record = ProvisioningRecord(
            olt=olt.name,
            controller_registered=self.controller.devices[olt.name].registered,
            voltha_state=device.admin_state)
        self.records.append(record)
        return record

    def provision_subscriber(self, network: PonNetwork, serial: str,
                             vlan: int) -> int:
        """Push one subscriber's logical network config down to the OLT.

        Returns the GEM port assigned on the physical device.
        """
        olt = network.olt
        if olt.name not in self.voltha.devices:
            raise NotFoundError(f"OLT {olt.name} not provisioned in VOLTHA")
        if self.voltha.devices[olt.name].admin_state != "ENABLED":
            raise NotFoundError(f"OLT {olt.name} is not enabled")
        gem_port = olt.provision_serial(serial)
        self._call_controller(ApiCapability.FLOW_PROGRAMMING,
                              device_id=olt.name,
                              match=f"vlan={vlan},serial={serial}",
                              action=f"gem_port={gem_port}")
        self._call_controller(ApiCapability.NETWORK_CONFIG,
                              device_id=olt.name,
                              subscriber=serial)
        for record in self.records:
            if record.olt == olt.name:
                record.subscribers_provisioned.append(serial)
        return gem_port
