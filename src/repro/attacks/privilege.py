"""T3: privilege abuse through OS misconfiguration.

The attack models an intruder with an unprivileged foothold who walks
the classic escalation checklist: passwordless sudo, passwordless
accounts with login shells, writable setuid binaries, world-writable
paths on privileged execution routes, and permissive SSH. Hardening (M1)
removes every rung; the attack reports which rungs were available.
"""

from __future__ import annotations

from typing import List

from repro.osmodel.host import Host
from repro.pon.attacks import AttackResult

# The unprivileged account the intruder starts from: the ONL
# diagnostics login.
FOOTHOLD_USER = "diag"


class PrivilegeEscalationAttack:
    """Escalate from an unprivileged account to root on a host."""

    def __init__(self, host: Host) -> None:
        self.host = host

    def _available_rungs(self) -> List[str]:
        host = self.host
        rungs: List[str] = []

        if host.users.passwordless_sudoers():
            names = ", ".join(u.name for u in host.users.passwordless_sudoers())
            rungs.append(f"NOPASSWD sudo via {names}")

        weak_logins = [u.name for u in host.users.all()
                       if not u.password_set and not u.login_disabled]
        if weak_logins:
            rungs.append(f"passwordless login as {', '.join(weak_logins)}")

        writable_setuid = [n.path for n in host.fs.glob_setuid()
                           if n.mode & 0o022]
        if writable_setuid:
            rungs.append(f"overwrite writable setuid {writable_setuid[0]}")

        sshd = host.services.get("sshd")
        if sshd and sshd.running and sshd.config.get("PermitRootLogin") == "yes" \
                and sshd.config.get("PasswordAuthentication") == "yes":
            rungs.append("brute-force root over password SSH")

        telnet = host.services.get("telnetd")
        if telnet and telnet.running:
            rungs.append("hijack plaintext telnet session")

        world_writable = [n.path for n in host.fs.glob_world_writable()
                          if not n.path.startswith("/tmp")]
        if world_writable:
            rungs.append(f"plant payload in world-writable {world_writable[0]}")

        return rungs

    def run(self) -> AttackResult:
        rungs = self._available_rungs()
        self.host.syscall(FOOTHOLD_USER, "execve", path="/usr/bin/id")
        if rungs:
            self.host.login("root", method="escalation", success=True)
            return AttackResult(
                "privilege-escalation", True,
                f"{len(rungs)} escalation paths available",
                evidence=rungs)
        self.host.login("root", method="escalation", success=False)
        return AttackResult(
            "privilege-escalation", False,
            "no escalation path: hardened configuration closed every rung")
