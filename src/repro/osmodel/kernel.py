"""Kernel configuration model: kconfig, cmdline, sysctl, modules, LSM.

This is the surface the M2 mitigation hardens and the
kernel-hardening-checker-like tool (:mod:`repro.security.hardening.kernelcheck`)
audits. GENIO runs a *custom* kernel configuration to support its SDN
stack (the paper's T4 concern), so the model tracks which options the SDN
software requires and refuses hardening changes that would break them —
reproducing Lesson 1's security/compatibility tension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.common.errors import ConfigurationError


@dataclass
class KernelConfig:
    """One host's kernel-level security state."""

    version: str = "4.19.0-onl"
    kconfig: Dict[str, str] = field(default_factory=dict)
    cmdline: Dict[str, str] = field(default_factory=dict)
    sysctl: Dict[str, str] = field(default_factory=dict)
    loaded_modules: Set[str] = field(default_factory=set)
    lsm: Optional[str] = None  # "apparmor" | "selinux" | None
    microcode_revision: int = 0
    sdn_required_options: Set[str] = field(default_factory=set)

    # -- kconfig -----------------------------------------------------------------

    def set_kconfig(self, option: str, value: str) -> None:
        """Set a build-time option (simulates a rebuild + reboot).

        :raises ConfigurationError: disabling an option the SDN stack needs.
        """
        if option in self.sdn_required_options and value in ("n", "not set"):
            raise ConfigurationError(
                f"{option} is required by the SDN stack and cannot be disabled"
            )
        self.kconfig[option] = value

    def kconfig_enabled(self, option: str) -> bool:
        return self.kconfig.get(option) == "y"

    # -- runtime knobs -------------------------------------------------------------

    def set_sysctl(self, key: str, value: str) -> None:
        self.sysctl[key] = value

    def set_cmdline(self, key: str, value: str) -> None:
        self.cmdline[key] = value

    def load_module(self, name: str) -> None:
        if self.sysctl.get("kernel.modules_disabled") == "1":
            raise ConfigurationError("module loading is disabled")
        self.loaded_modules.add(name)

    def unload_module(self, name: str) -> None:
        self.loaded_modules.discard(name)

    def enable_lsm(self, lsm: str) -> None:
        if lsm not in ("apparmor", "selinux"):
            raise ConfigurationError(f"unknown LSM {lsm!r}")
        self.lsm = lsm

    def apply_microcode(self, revision: int) -> None:
        """Apply a speculative-execution microcode mitigation package."""
        if revision <= self.microcode_revision:
            raise ConfigurationError(
                f"microcode revision {revision} is not newer than "
                f"{self.microcode_revision}"
            )
        self.microcode_revision = revision

    # -- convenience used by attacks/experiments -------------------------------------

    @property
    def kexec_enabled(self) -> bool:
        return self.kconfig_enabled("CONFIG_KEXEC")

    @property
    def kprobes_enabled(self) -> bool:
        return self.kconfig_enabled("CONFIG_KPROBES")

    @property
    def stack_protector(self) -> bool:
        return self.kconfig_enabled("CONFIG_STACKPROTECTOR")


def stock_onl_kernel() -> KernelConfig:
    """The un-hardened ONL kernel as shipped (Lesson 1's starting point)."""
    kernel = KernelConfig(version="4.19.0-onl")
    kernel.kconfig.update({
        "CONFIG_KEXEC": "y",
        "CONFIG_KPROBES": "y",
        "CONFIG_STACKPROTECTOR": "n",
        "CONFIG_STACKPROTECTOR_STRONG": "n",
        "CONFIG_RANDOMIZE_BASE": "n",
        "CONFIG_STRICT_KERNEL_RWX": "n",
        "CONFIG_DEBUG_FS": "y",
        "CONFIG_MODULE_SIG": "n",
        "CONFIG_BPF_SYSCALL": "y",          # VOLTHA/ONOS datapath needs eBPF
        "CONFIG_NET_SWITCHDEV": "y",        # SDN requirement
        "CONFIG_VLAN_8021Q": "y",           # SDN requirement
        "CONFIG_LEGACY_VSYSCALL_EMULATE": "y",
        "CONFIG_SECURITY": "n",
    })
    kernel.sdn_required_options.update({
        "CONFIG_BPF_SYSCALL", "CONFIG_NET_SWITCHDEV", "CONFIG_VLAN_8021Q",
    })
    kernel.cmdline.update({
        "mitigations": "off",
        "slab_nomerge": "absent",
    })
    kernel.sysctl.update({
        "kernel.kptr_restrict": "0",
        "kernel.dmesg_restrict": "0",
        "kernel.unprivileged_bpf_disabled": "0",
        "kernel.yama.ptrace_scope": "0",
        "net.ipv4.ip_forward": "1",         # required for SDN forwarding
        "kernel.sysrq": "1",
        "kernel.modules_disabled": "0",
        "fs.protected_symlinks": "0",
        "fs.protected_hardlinks": "0",
    })
    kernel.loaded_modules.update({"openvswitch", "8021q", "veth", "usb_storage",
                                  "firewire_core", "dccp"})
    return kernel
