"""Proxmox-like VM management layer with its own path-based ACL model.

GENIO uses Proxmox alongside Kubernetes for VM orchestration (Section II).
Proxmox authorization is path-based (``/vms/<id>``, ``/nodes/<node>``,
``/storage/<id>``) with role->privilege mappings — structurally different
from Kubernetes RBAC, which is part of why Lesson 5 notes that hardening
must be repeated per-middleware. Its vulnerability disclosures arrive only
via the web UI (Lesson 6), which the M12 feed-latency experiment models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.common.errors import AuthenticationError, AuthorizationError, NotFoundError
from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VirtualMachine, VmSpec

# The Proxmox cluster fronting the OLT hypervisors.
PVE_CLUSTER_NAME = "genio-pve"

# Built-in roles (subset of the real ones).
ROLE_PRIVILEGES: Dict[str, Set[str]] = {
    "Administrator": {"VM.Allocate", "VM.Config", "VM.PowerMgmt", "VM.Console",
                      "VM.Audit", "Datastore.Allocate", "Sys.Modify", "Sys.Audit",
                      "Permissions.Modify"},
    "PVEVMAdmin": {"VM.Allocate", "VM.Config", "VM.PowerMgmt", "VM.Console",
                   "VM.Audit"},
    "PVEVMUser": {"VM.PowerMgmt", "VM.Console", "VM.Audit"},
    "PVEAuditor": {"VM.Audit", "Sys.Audit"},
    "NoAccess": set(),
}


@dataclass
class PveUser:
    """A Proxmox realm user."""

    userid: str                 # e.g. PVE_ADMIN
    enabled: bool = True
    token: str = ""


# GENIO's two Proxmox accounts: the operator who administers the OLT
# VMs, and the read-only auditor.
PVE_ADMIN = "alice@pve"
PVE_AUDITOR = "auditor@pve"


@dataclass
class AclEntry:
    """Grant of a role on a path subtree."""

    path: str
    userid: str
    role: str
    propagate: bool = True

    def covers(self, path: str) -> bool:
        if self.path == path:
            return True
        return self.propagate and path.startswith(self.path.rstrip("/") + "/")


@dataclass
class PveConfig:
    """Cluster-level settings the compliance checks audit."""

    web_ui_tls: bool = False
    two_factor_required: bool = False
    root_password_login: bool = True
    version: str = "7.2-3"


class ProxmoxCluster:
    """One Proxmox cluster fronting the OLT hypervisors."""

    def __init__(self) -> None:
        self.config = PveConfig()
        self.users: Dict[str, PveUser] = {}
        self.acl: List[AclEntry] = []
        self.hypervisors: Dict[str, Hypervisor] = {}
        self.vm_paths: Dict[str, str] = {}     # vm_id -> acl path

    # -- identity -------------------------------------------------------------

    def add_user(self, user: PveUser) -> None:
        self.users[user.userid] = user

    def authenticate(self, userid: str, token: str) -> PveUser:
        user = self.users.get(userid)
        if user is None or not user.enabled or user.token != token:
            raise AuthenticationError(f"authentication failed for {userid}")
        return user

    # -- authorization -----------------------------------------------------------

    def grant(self, path: str, userid: str, role: str,
              propagate: bool = True) -> None:
        if role not in ROLE_PRIVILEGES:
            raise ValueError(f"unknown role {role!r}")
        self.acl.append(AclEntry(path=path, userid=userid, role=role,
                                 propagate=propagate))

    def revoke_all(self, userid: str) -> None:
        self.acl = [e for e in self.acl if e.userid != userid]

    def check(self, userid: str, path: str, privilege: str) -> bool:
        allowed = any(
            entry.covers(path) and privilege in ROLE_PRIVILEGES[entry.role]
            for entry in self.acl if entry.userid == userid
        )
        return allowed

    def privileges_on(self, userid: str, path: str) -> Set[str]:
        granted: Set[str] = set()
        for entry in self.acl:
            if entry.userid == userid and entry.covers(path):
                granted |= ROLE_PRIVILEGES[entry.role]
        return granted

    # -- VM operations -----------------------------------------------------------------

    def add_hypervisor(self, node: str, hypervisor: Hypervisor) -> None:
        self.hypervisors[node] = hypervisor

    def create_vm(self, userid: str, node: str, spec: VmSpec) -> VirtualMachine:
        """Create a VM through the authorization layer.

        :raises AuthorizationError: missing ``VM.Allocate`` on the node path.
        """
        path = f"/nodes/{node}"
        if not self.check(userid, path, "VM.Allocate"):
            raise AuthorizationError(f"{userid} lacks VM.Allocate on {path}")
        hypervisor = self.hypervisors.get(node)
        if hypervisor is None:
            raise NotFoundError(f"no node {node} in cluster {PVE_CLUSTER_NAME}")
        vm = hypervisor.create_vm(spec)
        self.vm_paths[vm.id] = f"/vms/{vm.id}"
        return vm

    def power_off(self, userid: str, vm_id: str) -> None:
        path = self.vm_paths.get(vm_id)
        if path is None:
            raise NotFoundError(f"unknown VM {vm_id}")
        if not self.check(userid, path, "VM.PowerMgmt"):
            raise AuthorizationError(f"{userid} lacks VM.PowerMgmt on {path}")
        for hypervisor in self.hypervisors.values():
            if vm_id in hypervisor.vms:
                hypervisor.get_vm(vm_id).shutdown()
                return
        raise NotFoundError(f"VM {vm_id} not found on any node")
