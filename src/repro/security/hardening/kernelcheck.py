"""kernel-hardening-checker-like engine (M2).

Validates a :class:`~repro.osmodel.kernel.KernelConfig` against a
hardened baseline across all three configuration planes the real tool
covers — kconfig, cmdline and sysctl — plus module blacklisting, LSM
presence and speculative-execution microcode.

:func:`harden_kernel` applies every baseline setting it can. Settings
that collide with the SDN stack's requirements (Lesson 1) are recorded
as *unappliable* rather than forced, reproducing the paper's
security/compatibility balancing act.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import ConfigurationError
from repro.osmodel.kernel import KernelConfig

# Baselines mirror kernel-hardening-checker's recommendations (subset).
KCONFIG_BASELINE: Dict[str, str] = {
    "CONFIG_KEXEC": "n",
    "CONFIG_KPROBES": "n",
    "CONFIG_STACKPROTECTOR": "y",
    "CONFIG_STACKPROTECTOR_STRONG": "y",
    "CONFIG_RANDOMIZE_BASE": "y",
    "CONFIG_STRICT_KERNEL_RWX": "y",
    "CONFIG_DEBUG_FS": "n",
    "CONFIG_MODULE_SIG": "y",
    "CONFIG_LEGACY_VSYSCALL_EMULATE": "n",
    "CONFIG_SECURITY": "y",
    # The checker's strict attack-surface profile wants eBPF off entirely —
    # but GENIO's SDN datapath requires it, the canonical Lesson 1 conflict.
    "CONFIG_BPF_SYSCALL": "n",
}

CMDLINE_BASELINE: Dict[str, str] = {
    "mitigations": "auto",
    "slab_nomerge": "present",
}

SYSCTL_BASELINE: Dict[str, str] = {
    "kernel.kptr_restrict": "2",
    "kernel.dmesg_restrict": "1",
    "kernel.unprivileged_bpf_disabled": "1",
    "kernel.yama.ptrace_scope": "1",
    "kernel.sysrq": "0",
    "fs.protected_symlinks": "1",
    "fs.protected_hardlinks": "1",
}

MODULE_BLACKLIST = ("usb_storage", "firewire_core", "dccp", "sctp", "rds", "tipc")

MIN_MICROCODE_REVISION = 40   # Spectre-class mitigations (paper ref [33])


@dataclass
class KernelFinding:
    """One baseline deviation."""

    plane: str        # kconfig | cmdline | sysctl | module | lsm | microcode
    key: str
    expected: str
    actual: str
    passed: bool


@dataclass
class KernelCheckReport:
    """Full baseline evaluation of one kernel."""

    kernel_version: str
    findings: List[KernelFinding] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for f in self.findings if f.passed)

    @property
    def total(self) -> int:
        return len(self.findings)

    @property
    def pass_rate(self) -> float:
        return self.passed / self.total if self.findings else 1.0

    def failures(self) -> List[KernelFinding]:
        return [f for f in self.findings if not f.passed]


class KernelHardeningChecker:
    """Evaluates kernels against the module's hardened baselines."""

    def check(self, kernel: KernelConfig) -> KernelCheckReport:
        report = KernelCheckReport(kernel_version=kernel.version)
        for option, expected in sorted(KCONFIG_BASELINE.items()):
            actual = kernel.kconfig.get(option, "not set")
            report.findings.append(KernelFinding(
                "kconfig", option, expected, actual, actual == expected))
        for key, expected in sorted(CMDLINE_BASELINE.items()):
            actual = kernel.cmdline.get(key, "absent")
            report.findings.append(KernelFinding(
                "cmdline", key, expected, actual, actual == expected))
        for key, expected in sorted(SYSCTL_BASELINE.items()):
            actual = kernel.sysctl.get(key, "unset")
            report.findings.append(KernelFinding(
                "sysctl", key, expected, actual, actual == expected))
        for module in MODULE_BLACKLIST:
            loaded = module in kernel.loaded_modules
            report.findings.append(KernelFinding(
                "module", module, "not loaded",
                "loaded" if loaded else "not loaded", not loaded))
        report.findings.append(KernelFinding(
            "lsm", "lsm", "apparmor or selinux", kernel.lsm or "none",
            kernel.lsm in ("apparmor", "selinux")))
        report.findings.append(KernelFinding(
            "microcode", "revision", f">={MIN_MICROCODE_REVISION}",
            str(kernel.microcode_revision),
            kernel.microcode_revision >= MIN_MICROCODE_REVISION))
        return report


def harden_kernel(kernel: KernelConfig,
                  microcode_revision: int = 45) -> List[str]:
    """Apply the baseline; returns keys that could NOT be applied.

    SDN-required kconfig options refuse disablement
    (:class:`~repro.common.errors.ConfigurationError`) and are reported
    instead of forced — Lesson 1's compatibility constraint.
    """
    unappliable: List[str] = []
    for option, value in KCONFIG_BASELINE.items():
        try:
            kernel.set_kconfig(option, value)
        except ConfigurationError:
            unappliable.append(option)
    for key, value in CMDLINE_BASELINE.items():
        kernel.set_cmdline(key, value)
    for key, value in SYSCTL_BASELINE.items():
        kernel.set_sysctl(key, value)
    for module in MODULE_BLACKLIST:
        kernel.unload_module(module)
    if kernel.lsm is None:
        kernel.enable_lsm("apparmor")
    if kernel.microcode_revision < microcode_revision:
        kernel.apply_microcode(microcode_revision)
    return unappliable
