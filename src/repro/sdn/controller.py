"""ONOS-like SDN controller.

Ships with the infamous insecure defaults (a well-known default admin
credential, every API capability enabled); the M10/M11 hardening pass
changes credentials, enforces TLS-certificate service accounts, and
blocks the capability classes production does not need — after which the
controller's exposure is measurably smaller (E9).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.common.errors import AuthenticationError, AuthorizationError, NotFoundError


class ApiCapability(enum.Enum):
    """Northbound API capability classes (paper's M10 list)."""

    DEVICE_REGISTRATION = "device_registration"
    NETWORK_CONFIG = "network_config"
    DIAGNOSTIC_LOGGING = "diagnostic_logging"
    FLOW_PROGRAMMING = "flow_programming"
    SHELL_ACCESS = "shell_access"              # blocked in production
    LOW_LEVEL_DEBUG = "low_level_debug"        # blocked in production
    RAW_LOG_RETRIEVAL = "raw_log_retrieval"    # blocked in production


PRODUCTION_REQUIRED = {
    ApiCapability.DEVICE_REGISTRATION,
    ApiCapability.NETWORK_CONFIG,
    ApiCapability.DIAGNOSTIC_LOGGING,
    ApiCapability.FLOW_PROGRAMMING,
}


@dataclass
class ApiAccount:
    """A northbound API principal."""

    username: str
    password: str = ""
    tls_certificate_fp: str = ""    # certificate-bound service account
    capabilities: Set[ApiCapability] = field(default_factory=set)
    is_default_credential: bool = False


@dataclass
class SdnDevice:
    """A device (OLT) under controller management."""

    device_id: str
    registered: bool = False
    flows: List[Dict[str, str]] = field(default_factory=list)


class SdnController:
    """One ONOS-like controller instance."""

    def __init__(self, version: str = "2.7.0") -> None:
        self.version = version
        self.accounts: Dict[str, ApiAccount] = {}
        self.devices: Dict[str, SdnDevice] = {}
        self.blocked_capabilities: Set[ApiCapability] = set()
        self.tls_required = False
        self.active_apps: List[str] = ["org.onosproject.drivers",
                                       "org.onosproject.openflow",
                                       "org.onosproject.gui2",
                                       "org.onosproject.cli"]
        self._install_insecure_defaults()

    def _install_insecure_defaults(self) -> None:
        """ONOS out of the box: default credential, everything enabled."""
        self.accounts["onos"] = ApiAccount(
            username="onos", password="rocks",
            capabilities=set(ApiCapability),
            is_default_credential=True,
        )

    # -- hardening knobs (M10) ----------------------------------------------------

    def block_capability(self, capability: ApiCapability) -> None:
        self.blocked_capabilities.add(capability)

    def require_tls(self) -> None:
        self.tls_required = True

    def remove_account(self, username: str) -> None:
        self.accounts.pop(username, None)

    def add_account(self, account: ApiAccount) -> None:
        self.accounts[account.username] = account

    def deactivate_app(self, app: str) -> None:
        if app in self.active_apps:
            self.active_apps.remove(app)

    # -- the API -----------------------------------------------------------------------

    def _authenticate(self, username: str, password: str = "",
                      tls_certificate_fp: str = "") -> ApiAccount:
        account = self.accounts.get(username)
        if account is None:
            raise AuthenticationError(f"unknown account {username!r}")
        if self.tls_required:
            if not account.tls_certificate_fp:
                raise AuthenticationError(
                    f"{username} is not a TLS-certificate service account"
                )
            if tls_certificate_fp != account.tls_certificate_fp:
                raise AuthenticationError("client certificate mismatch")
            return account
        if account.password and password != account.password:
            raise AuthenticationError("bad password")
        return account

    def call(self, username: str, capability: ApiCapability,
             password: str = "", tls_certificate_fp: str = "",
             **params: str) -> Dict[str, str]:
        """Invoke one northbound API capability.

        :raises AuthenticationError: credential failure.
        :raises AuthorizationError: capability blocked platform-wide or
            not granted to this account.
        """
        account = self._authenticate(username, password, tls_certificate_fp)
        if capability in self.blocked_capabilities:
            raise AuthorizationError(
                f"capability {capability.value} is blocked in production"
            )
        if capability not in account.capabilities:
            raise AuthorizationError(
                f"{username} lacks capability {capability.value}"
            )
        return self._execute(capability, params)

    def _execute(self, capability: ApiCapability,
                 params: Dict[str, str]) -> Dict[str, str]:
        if capability is ApiCapability.DEVICE_REGISTRATION:
            device_id = params.get("device_id", "")
            if not device_id:
                raise ValueError("device_id required")
            self.devices.setdefault(device_id, SdnDevice(device_id)).registered = True
            return {"status": "registered", "device_id": device_id}
        if capability is ApiCapability.FLOW_PROGRAMMING:
            device = self.devices.get(params.get("device_id", ""))
            if device is None:
                raise NotFoundError("no such device")
            device.flows.append(dict(params))
            return {"status": "flow installed"}
        if capability is ApiCapability.NETWORK_CONFIG:
            return {"status": "config applied"}
        if capability is ApiCapability.DIAGNOSTIC_LOGGING:
            return {"status": "log level set"}
        if capability is ApiCapability.SHELL_ACCESS:
            return {"status": "shell opened", "warning": "full host control"}
        if capability is ApiCapability.LOW_LEVEL_DEBUG:
            return {"status": "debug port open"}
        if capability is ApiCapability.RAW_LOG_RETRIEVAL:
            return {"status": "logs dumped", "content": "credentials, topology, ..."}
        raise ValueError(f"unhandled capability {capability}")

    # -- analysis --------------------------------------------------------------------

    def exposure_report(self) -> Dict[str, object]:
        """What an auditor sees: default creds, open capability classes."""
        open_caps = set(ApiCapability) - self.blocked_capabilities
        return {
            "default_credentials": [a.username for a in self.accounts.values()
                                    if a.is_default_credential],
            "open_capabilities": sorted(c.value for c in open_caps),
            "unnecessary_open": sorted(
                c.value for c in open_caps if c not in PRODUCTION_REQUIRED
            ),
            "tls_required": self.tls_required,
            "active_apps": list(self.active_apps),
        }
