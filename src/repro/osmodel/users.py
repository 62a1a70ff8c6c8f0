"""User accounts and local privilege state.

The T3 privilege-abuse threat exploits unrestricted accounts (passwordless
sudo, shared root logins, dormant accounts); the M1 hardening pass locks
these down, and the SCAP engine audits them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class User:
    """One local account."""

    name: str
    uid: int
    groups: Set[str] = field(default_factory=set)
    password_set: bool = True
    password_locked: bool = False
    sudo: bool = False
    sudo_nopasswd: bool = False
    shell: str = "/bin/bash"
    ssh_authorized_keys: List[str] = field(default_factory=list)

    @property
    def is_root_equivalent(self) -> bool:
        return self.uid == 0 or self.sudo

    @property
    def login_disabled(self) -> bool:
        return self.password_locked or self.shell in ("/usr/sbin/nologin", "/bin/false")


class UserDatabase:
    """All accounts on one host."""

    def __init__(self) -> None:
        self._users: Dict[str, User] = {}

    def add(self, user: User) -> User:
        if user.name in self._users:
            raise ValueError(f"user {user.name} already exists")
        self._users[user.name] = user
        return user

    def get(self, name: str) -> Optional[User]:
        return self._users.get(name)

    def remove(self, name: str) -> None:
        self._users.pop(name, None)

    def all(self) -> List[User]:
        return sorted(self._users.values(), key=lambda u: u.uid)

    def root_equivalents(self) -> List[User]:
        return [u for u in self.all() if u.is_root_equivalent]

    def passwordless_sudoers(self) -> List[User]:
        return [u for u in self.all() if u.sudo and u.sudo_nopasswd]

    def __contains__(self, name: str) -> bool:
        return name in self._users
