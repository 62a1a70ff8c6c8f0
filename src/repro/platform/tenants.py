"""Tenancy: business users, end users, and IaaS resource leases.

Business users provide edge applications through the GENIO registry and
lease compute/storage/network on the edge (IaaS); end users consume
those applications (SaaS). The lease model is what makes T8's resource
abuse meaningful: a tenant is entitled to what it leased, no more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import CapacityError, NotFoundError


@dataclass
class ResourceLease:
    """One tenant's leased slice of an OLT's resources."""

    tenant: str
    cpu_cores: int
    memory_mb: int
    storage_gb: int
    isolation: str = "soft"      # "hard" (dedicated VM) | "soft" (containers)

    def __post_init__(self) -> None:
        if self.isolation not in ("hard", "soft"):
            raise ValueError("isolation must be 'hard' or 'soft'")
        if min(self.cpu_cores, self.memory_mb, self.storage_gb) <= 0:
            raise ValueError("lease resources must be positive")


@dataclass
class BusinessUser:
    """A provider of edge applications (IaaS customer)."""

    name: str
    namespace: str
    images: List[str] = field(default_factory=list)
    leases: List[ResourceLease] = field(default_factory=list)
    verified_publisher: bool = False


@dataclass
class EndUser:
    """A consumer of edge applications (SaaS customer)."""

    name: str
    onu_serial: str
    subscribed_services: List[str] = field(default_factory=list)


class TenantDirectory:
    """The platform's tenancy registry."""

    def __init__(self) -> None:
        self.business_users: Dict[str, BusinessUser] = {}
        self.end_users: Dict[str, EndUser] = {}

    def register_business_user(self, user: BusinessUser) -> None:
        if user.name in self.business_users:
            raise ValueError(f"business user {user.name} already registered")
        self.business_users[user.name] = user

    def register_end_user(self, user: EndUser) -> None:
        if user.name in self.end_users:
            raise ValueError(f"end user {user.name} already registered")
        self.end_users[user.name] = user

    def business_user(self, name: str) -> BusinessUser:
        user = self.business_users.get(name)
        if user is None:
            raise NotFoundError(f"no business user {name}")
        return user

    def lease(self, tenant: str, cpu_cores: int, memory_mb: int,
              storage_gb: int, isolation: str = "soft",
              available_cpu: Optional[int] = None) -> ResourceLease:
        """Record a lease for a tenant, optionally capacity-checked."""
        user = self.business_user(tenant)
        if available_cpu is not None and cpu_cores > available_cpu:
            raise CapacityError(
                f"lease of {cpu_cores} cores exceeds available {available_cpu}")
        lease = ResourceLease(tenant=tenant, cpu_cores=cpu_cores,
                              memory_mb=memory_mb, storage_gb=storage_gb,
                              isolation=isolation)
        user.leases.append(lease)
        return lease

