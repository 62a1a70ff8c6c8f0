"""OpenSCAP-like configuration-compliance engine and the ONL profile (M1).

A :class:`ScapProfile` is an ordered set of :class:`ScapRule` objects,
each with a ``check`` over a :class:`~repro.osmodel.host.Host` and, where
automation is safe, a ``remediate`` action. Evaluating a profile yields a
:class:`ScapReport` with the pass-rate metric the E5 experiment tracks
before/after hardening.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.osmodel.host import Host


class Severity(enum.Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


# check(host) -> (passed, detail)
CheckFn = Callable[[Host], Tuple[bool, str]]
RemediateFn = Callable[[Host], None]


@dataclass(frozen=True)
class ScapRule:
    """One SCAP/STIG-style rule."""

    rule_id: str
    title: str
    severity: Severity
    check: CheckFn
    remediate: Optional[RemediateFn] = None

    @property
    def automated(self) -> bool:
        return self.remediate is not None


@dataclass
class CheckResult:
    """Outcome of one rule against one host."""

    rule_id: str
    title: str
    severity: Severity
    passed: bool
    detail: str
    automated: bool


@dataclass
class ScapReport:
    """Aggregated evaluation of a profile on a host."""

    profile: str
    host: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    @property
    def pass_rate(self) -> float:
        return self.passed / len(self.results) if self.results else 1.0

    def failures(self, severity: Optional[Severity] = None) -> List[CheckResult]:
        found = [r for r in self.results if not r.passed]
        if severity is not None:
            found = [r for r in found if r.severity == severity]
        return found


class ScapProfile:
    """A named, ordered rule set."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rules: List[ScapRule] = []

    def add(self, rule: ScapRule) -> None:
        self.rules.append(rule)

    def evaluate(self, host: Host) -> ScapReport:
        report = ScapReport(profile=self.name, host=host.hostname)
        for rule in self.rules:
            passed, detail = rule.check(host)
            report.results.append(CheckResult(
                rule_id=rule.rule_id, title=rule.title, severity=rule.severity,
                passed=passed, detail=detail, automated=rule.automated,
            ))
        return report

    def remediate(self, host: Host) -> List[str]:
        """Apply every automated remediation whose check currently fails.

        Returns the rule ids that were applied.
        """
        applied = []
        for rule in self.rules:
            if rule.remediate is None:
                continue
            passed, _ = rule.check(host)
            if not passed:
                rule.remediate(host)
                applied.append(rule.rule_id)
        return applied


# ---------------------------------------------------------------------------
# The ONL SCAP profile (paper: secure SSH, NTP, APT repositories, kernel files)
# ---------------------------------------------------------------------------

def _ssh_option(host: Host, key: str) -> str:
    sshd = host.services.get("sshd")
    return sshd.config.get(key, "") if sshd else ""


def _set_ssh_option(host: Host, key: str, value: str) -> None:
    sshd = host.services.get("sshd")
    if sshd is not None:
        sshd.set_option(key, value)


_WEAK_CIPHERS = ("cbc", "3des", "arcfour")


def onl_scap_profile() -> ScapProfile:
    """SCAP benchmark adapted to ONL (the M1 rule set)."""
    profile = ScapProfile("onl-scap")

    profile.add(ScapRule(
        "SCAP-SSH-01", "SSH root login disabled", Severity.HIGH,
        lambda h: (_ssh_option(h, "PermitRootLogin") == "no",
                   f"PermitRootLogin={_ssh_option(h, 'PermitRootLogin') or 'unset'}"),
        lambda h: _set_ssh_option(h, "PermitRootLogin", "no")))
    profile.add(ScapRule(
        "SCAP-SSH-02", "SSH password authentication disabled", Severity.HIGH,
        lambda h: (_ssh_option(h, "PasswordAuthentication") == "no",
                   f"PasswordAuthentication="
                   f"{_ssh_option(h, 'PasswordAuthentication') or 'unset'}"),
        lambda h: _set_ssh_option(h, "PasswordAuthentication", "no")))
    profile.add(ScapRule(
        "SCAP-SSH-03", "SSH MaxAuthTries <= 4", Severity.MEDIUM,
        lambda h: ((_ssh_option(h, "MaxAuthTries") or "99").isdigit()
                   and int(_ssh_option(h, "MaxAuthTries") or "99") <= 4,
                   f"MaxAuthTries={_ssh_option(h, 'MaxAuthTries') or 'unset'}"),
        lambda h: _set_ssh_option(h, "MaxAuthTries", "3")))
    profile.add(ScapRule(
        "SCAP-SSH-04", "No weak SSH ciphers", Severity.MEDIUM,
        lambda h: (not any(w in _ssh_option(h, "Ciphers").lower()
                           for w in _WEAK_CIPHERS),
                   f"Ciphers={_ssh_option(h, 'Ciphers') or 'unset'}"),
        lambda h: _set_ssh_option(h, "Ciphers",
                                  "chacha20-poly1305,aes256-gcm")))
    profile.add(ScapRule(
        "SCAP-NTP-01", "NTP synchronization enabled", Severity.MEDIUM,
        lambda h: (bool(h.services.get("ntpd")) and h.services.get("ntpd").running,
                   "ntpd running" if (h.services.get("ntpd")
                                      and h.services.get("ntpd").running)
                   else "ntpd not running"),
        lambda h: _enable_ntp(h)))
    profile.add(ScapRule(
        "SCAP-APT-01", "No untrusted APT repositories", Severity.HIGH,
        _check_apt_sources,
        _remediate_apt_sources))
    profile.add(ScapRule(
        "SCAP-APT-02", "APT signature verification required", Severity.HIGH,
        lambda h: (h.apt_verify_signatures,
                   "signature policy " + ("on" if h.apt_verify_signatures else "off")),
        lambda h: h.require_signed_apt()))
    profile.add(ScapRule(
        "SCAP-SVC-01", "Legacy telnet service removed", Severity.HIGH,
        lambda h: (not (h.services.get("telnetd") and h.services.get("telnetd").running),
                   "telnetd present" if h.services.get("telnetd") else "absent"),
        lambda h: h.services.remove("telnetd")))
    profile.add(ScapRule(
        "SCAP-SVC-02", "Legacy tftp service removed", Severity.MEDIUM,
        lambda h: (not (h.services.get("tftpd") and h.services.get("tftpd").running),
                   "tftpd present" if h.services.get("tftpd") else "absent"),
        lambda h: h.services.remove("tftpd")))
    profile.add(ScapRule(
        "SCAP-SVC-03", "SNMP default community string changed", Severity.MEDIUM,
        lambda h: (not h.services.get("snmpd")
                   or h.services.get("snmpd").config.get("community") != "public",
                   "community=" + (h.services.get("snmpd").config.get("community", "?")
                                   if h.services.get("snmpd") else "n/a")),
        lambda h: (h.services.get("snmpd").set_option("community", "genio-ro-7f3a")
                   if h.services.get("snmpd") else None)))
    profile.add(ScapRule(
        "SCAP-FILE-01", "Kernel images not world-accessible", Severity.HIGH,
        _check_kernel_file_modes,
        _remediate_kernel_file_modes))
    profile.add(ScapRule(
        "SCAP-FILE-02", "/etc/shadow mode 0640 or stricter", Severity.HIGH,
        lambda h: (h.fs.exists("/etc/shadow")
                   and (h.fs.node("/etc/shadow").mode & 0o137) == 0,
                   f"mode={oct(h.fs.node('/etc/shadow').mode) if h.fs.exists('/etc/shadow') else 'missing'}"),
        lambda h: h.fs.chmod("/etc/shadow", 0o640)))
    profile.add(ScapRule(
        "SCAP-FILE-03", "No world-writable system files outside /tmp",
        Severity.MEDIUM,
        lambda h: (_world_writable_outside_tmp(h) == [],
                   f"{len(_world_writable_outside_tmp(h))} world-writable files"),
        _remediate_world_writable))
    profile.add(ScapRule(
        "SCAP-FILE-04", "No setuid binaries with group/other write",
        Severity.HIGH,
        lambda h: (_writable_setuid(h) == [],
                   f"{len(_writable_setuid(h))} writable setuid binaries"),
        _remediate_writable_setuid))
    profile.add(ScapRule(
        "SCAP-USER-01", "No passwordless sudo", Severity.HIGH,
        lambda h: (h.users.passwordless_sudoers() == [],
                   f"{len(h.users.passwordless_sudoers())} NOPASSWD sudoers"),
        _remediate_nopasswd_sudo))
    profile.add(ScapRule(
        "SCAP-USER-02", "No login-capable accounts without passwords",
        Severity.HIGH,
        lambda h: (_passwordless_logins(h) == [],
                   f"{len(_passwordless_logins(h))} passwordless accounts"),
        _remediate_passwordless_logins))
    profile.add(ScapRule(
        "SCAP-MISC-01", "Unencrypted management HTTP disabled", Severity.MEDIUM,
        lambda h: (not h.services.get("http-mgmt")
                   or not h.services.get("http-mgmt").running
                   or h.services.get("http-mgmt").tls,
                   "http-mgmt plaintext" if h.services.get("http-mgmt") else "absent"),
        lambda h: _tls_wrap_mgmt(h)))
    return profile


# -- helper checks/remediations ------------------------------------------------

def _enable_ntp(host: Host) -> None:
    ntpd = host.services.get("ntpd")
    if ntpd is None:
        from repro.osmodel.services import Service
        ntpd = host.services.add(Service("ntpd"))
    ntpd.enabled = True
    ntpd.running = True


_UNTRUSTED_MARKERS = ("[trusted=yes]", "sketchy", "unofficial")


def _check_apt_sources(host: Host) -> Tuple[bool, str]:
    if not host.fs.exists("/etc/apt/sources.list"):
        return True, "no sources.list"
    content = host.fs.read("/etc/apt/sources.list").decode()
    bad = [line for line in content.splitlines()
           if any(marker in line for marker in _UNTRUSTED_MARKERS)]
    return (not bad, f"{len(bad)} untrusted repository lines")


def _remediate_apt_sources(host: Host) -> None:
    content = host.fs.read("/etc/apt/sources.list").decode()
    kept = [line for line in content.splitlines()
            if not any(marker in line for marker in _UNTRUSTED_MARKERS)]
    host.fs.write("/etc/apt/sources.list", ("\n".join(kept) + "\n").encode())


def _kernel_files(host: Host):
    return [n for n in host.fs.walk("/boot") if "vmlinuz" in n.path or "grub" in n.path]


def _check_kernel_file_modes(host: Host) -> Tuple[bool, str]:
    loose = [n.path for n in _kernel_files(host) if n.mode & 0o077]
    return (not loose, f"{len(loose)} kernel files with loose modes")


def _remediate_kernel_file_modes(host: Host) -> None:
    for node in _kernel_files(host):
        host.fs.chmod(node.path, 0o600)


def _world_writable_outside_tmp(host: Host):
    return [n for n in host.fs.glob_world_writable()
            if not n.path.startswith("/tmp")]


def _remediate_world_writable(host: Host) -> None:
    for node in _world_writable_outside_tmp(host):
        host.fs.chmod(node.path, node.mode & ~0o022)


def _writable_setuid(host: Host):
    return [n for n in host.fs.glob_setuid() if n.mode & 0o022]


def _remediate_writable_setuid(host: Host) -> None:
    for node in _writable_setuid(host):
        host.fs.chmod(node.path, node.mode & ~0o022)


def _remediate_nopasswd_sudo(host: Host) -> None:
    for user in host.users.passwordless_sudoers():
        user.sudo_nopasswd = False
    if host.fs.exists("/etc/sudoers"):
        content = host.fs.read("/etc/sudoers").decode().replace("NOPASSWD:", "")
        host.fs.write("/etc/sudoers", content.encode())


def _passwordless_logins(host: Host):
    return [u for u in host.users.all()
            if not u.password_set and not u.login_disabled]


def _remediate_passwordless_logins(host: Host) -> None:
    for user in _passwordless_logins(host):
        user.password_locked = True
        user.shell = "/usr/sbin/nologin"


def _tls_wrap_mgmt(host: Host) -> None:
    mgmt = host.services.get("http-mgmt")
    if mgmt is not None:
        mgmt.tls = True
        mgmt.port = 443
