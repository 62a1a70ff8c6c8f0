"""VOLTHA-like OLT hardware abstraction.

VOLTHA sits between the SDN controller and the physical OLT: it
pre-provisions and enables OLT/ONU devices and relays PON management.
GENIO restricts its management API to administrative service accounts
secured by TLS certificates (M10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import AuthenticationError, AuthorizationError, NotFoundError

# The VOLTHA release the deployment runs.
VOLTHA_VERSION = "2.11"


@dataclass
class VolthaDevice:
    """One device VOLTHA manages."""

    device_id: str
    device_type: str            # "openolt" | "brcm_openomci_onu"
    admin_state: str = "PREPROVISIONED"   # -> ENABLED | DISABLED


@dataclass
class ServiceAccount:
    """A VOLTHA management principal bound to a client certificate."""

    name: str
    tls_certificate_fp: str
    admin: bool = False


class VolthaCore:
    """The VOLTHA core with its device table and management API."""

    def __init__(self) -> None:
        self.devices: Dict[str, VolthaDevice] = {}
        self.accounts: Dict[str, ServiceAccount] = {}
        self.require_client_certs = False

    def add_account(self, account: ServiceAccount) -> None:
        self.accounts[account.name] = account

    def enforce_client_certs(self) -> None:
        self.require_client_certs = True

    def _authorize(self, name: str, tls_certificate_fp: str,
                   need_admin: bool) -> ServiceAccount:
        account = self.accounts.get(name)
        if account is None:
            raise AuthenticationError(f"unknown service account {name!r}")
        if self.require_client_certs and account.tls_certificate_fp != tls_certificate_fp:
            raise AuthenticationError("client certificate mismatch")
        if need_admin and not account.admin:
            raise AuthorizationError(f"{name} is not an administrative account")
        return account

    # -- device lifecycle -------------------------------------------------------------

    def preprovision(self, account: str, device_id: str, device_type: str,
                     tls_certificate_fp: str = "") -> VolthaDevice:
        self._authorize(account, tls_certificate_fp, need_admin=True)
        device = VolthaDevice(device_id=device_id, device_type=device_type)
        self.devices[device_id] = device
        return device

    def enable(self, account: str, device_id: str,
               tls_certificate_fp: str = "") -> VolthaDevice:
        self._authorize(account, tls_certificate_fp, need_admin=True)
        device = self.devices.get(device_id)
        if device is None:
            raise NotFoundError(f"no device {device_id}")
        device.admin_state = "ENABLED"
        return device

    def disable(self, account: str, device_id: str,
                tls_certificate_fp: str = "") -> VolthaDevice:
        self._authorize(account, tls_certificate_fp, need_admin=True)
        device = self.devices.get(device_id)
        if device is None:
            raise NotFoundError(f"no device {device_id}")
        device.admin_state = "DISABLED"
        return device

    def list_devices(self, account: str,
                     tls_certificate_fp: str = "") -> List[VolthaDevice]:
        self._authorize(account, tls_certificate_fp, need_admin=False)
        return sorted(self.devices.values(), key=lambda d: d.device_id)
