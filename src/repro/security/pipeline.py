"""The end-to-end security-by-design pipeline.

Applies the paper's mitigations M1-M18, in dependency order, to a
:class:`~repro.platform.genio.GenioDeployment`, and returns a
:class:`SecurityPosture` holding every security artifact (channel
manager, boot provisioner, FIM monitors, scanners, compliance suite,
monitoring engine) so callers can keep operating them.

The pipeline is organised around a **public step registry**: each
mitigation group is a :class:`PipelineStep` with a name, the mitigation
ids it implements, and an apply function. Experiments flip individual
mitigations on and off through :meth:`SecurityPipeline.apply`'s
``skip=``/``only=`` selectors (accepting step names or mitigation ids
like ``"M18"``) instead of reaching into private methods, and can
register their own steps with :meth:`SecurityPipeline.register_step`.

Every applied step is telemetered: its wall-clock duration in the
``pipeline_step_duration_seconds`` histogram and its outcome in the
``pipeline_steps_total`` counter of the active registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import telemetry
from repro.platform.genio import GenioDeployment
from repro.security.access.compliance import ComplianceSuite
from repro.security.access.leastprivilege import (
    harden_proxmox, harden_sdn_controller, harden_voltha, tighten_cluster,
)
from repro.security.appsec.dast import CatsFuzzer, NmapScanner
from repro.security.appsec.sast import SastEngine
from repro.security.appsec.sca import ScaScanner
from repro.security.comms.channels import SecureChannelManager
from repro.security.hardening.remediate import HardeningSummary, harden_host
from repro.security.integrity.fim import FileIntegrityMonitor
from repro.security.integrity.secureboot import SecureBootProvisioner
from repro.security.integrity.securestorage import (
    StorageProvisioningResult, provision_secure_storage,
)
from repro.security.malware.yara import YaraScanner, make_admission_hook
from repro.security.monitor.falco import FalcoEngine
from repro.security.sandbox.lsm import default_tenant_policy, install_policy
from repro.security.vulnmgmt.corpus import build_cve_corpus
from repro.security.vulnmgmt.cvedb import CveDatabase
from repro.security.vulnmgmt.feeds import FeedAggregator, genio_feed_landscape
from repro.security.vulnmgmt.hostscan import HostScanner

# M8: the most prioritized patches one scan-and-patch pass applies to a
# host.
PATCH_BUDGET_PER_HOST = 50


@dataclass
class SecurityPosture:
    """Everything the pipeline built, plus per-step outcomes."""

    deployment: GenioDeployment
    hardening: Dict[str, HardeningSummary] = field(default_factory=dict)
    channels: Optional[SecureChannelManager] = None
    boot: Optional[SecureBootProvisioner] = None
    storage: Dict[str, StorageProvisioningResult] = field(default_factory=dict)
    fim: Dict[str, FileIntegrityMonitor] = field(default_factory=dict)
    cvedb: Optional[CveDatabase] = None
    host_scanner: Optional[HostScanner] = None
    patches_applied: Dict[str, int] = field(default_factory=dict)
    feeds: Optional[FeedAggregator] = None
    compliance: Optional[ComplianceSuite] = None
    sca: Optional[ScaScanner] = None
    sast: Optional[SastEngine] = None
    fuzzer: Optional[CatsFuzzer] = None
    port_scanner: Optional[NmapScanner] = None
    malware_scanner: Optional[YaraScanner] = None
    falco: Optional[FalcoEngine] = None
    # The steps that ran to completion, in order: the one record their
    # names and mitigation ids are read from.
    completed: List["PipelineStep"] = field(default_factory=list)
    steps_skipped: List[str] = field(default_factory=list)

    @property
    def steps_completed(self) -> List[str]:
        """The completed steps' names, in completion order."""
        return [step.name for step in self.completed]

    @property
    def mitigations_applied(self) -> List[str]:
        """The completed steps' mitigation ids, in completion order."""
        return [m for step in self.completed for m in step.mitigations]


class UnknownStepError(KeyError, ValueError):
    """No registered step matches a selector.

    A ``KeyError`` to registry lookups and a ``ValueError`` to callers
    that refuse bad arguments; its message reads unquoted.
    """

    def __str__(self) -> str:
        return str(self.args[0])


# A step body receives the pipeline (configuration, deployment, cvedb)
# and the posture it mutates.
StepFn = Callable[["SecurityPipeline", SecurityPosture], None]


@dataclass(frozen=True)
class PipelineStep:
    """One registered mitigation group.

    :param name: stable public name, e.g. ``"M1/M2 hardening"`` — this is
        what lands in :attr:`SecurityPosture.steps_completed`.
    :param mitigations: mitigation ids the step implements (``"M1"``...),
        each usable as a ``skip=``/``only=`` selector.
    :param apply_fn: the step body.
    """

    name: str
    mitigations: Tuple[str, ...]
    apply_fn: StepFn
    description: str = ""

    def matches(self, token: str) -> bool:
        """True if ``token`` selects this step (by name or mitigation id)."""
        return token == self.name or token in self.mitigations


# ---------------------------------------------------------------------------
# The default step bodies (public module-level functions, in dependency
# order: hardening before integrity baselines, comms before runtime, etc.)
# ---------------------------------------------------------------------------


def step_hardening(pipeline: "SecurityPipeline",
                   posture: SecurityPosture) -> None:
    """M1/M2: OS and kernel hardening on every host."""
    for host in pipeline.deployment.all_hosts():
        posture.hardening[host.hostname] = harden_host(host)


def step_comms(pipeline: "SecurityPipeline",
               posture: SecurityPosture) -> None:
    """M3/M4: PON encryption, PKI activation, MACsec uplinks."""
    deployment = pipeline.deployment
    # Certificates are issued, and handshakes validate them, at the
    # deployment's current time.
    now = deployment.clock.now
    manager = SecureChannelManager()
    for olt_node in deployment.olts:
        pon = olt_node.pon
        manager.secure_pon(pon)
        # Enroll the hardware the operator installed, not whichever device
        # answers under its serial: a rogue active there is displaced. A
        # GENIO OLT has one PON port, which every installed ONU sits on.
        for _, onu in sorted(olt_node.installed_onus.items()):
            manager.enroll_onu(onu, now=now)
            manager.activate_onu_securely(pon, onu)
        manager.enroll(olt_node.name, now=now)
    manager.enroll(deployment.cloud_node.hostname, now=now)
    for olt_node in deployment.olts:
        manager.secure_link(f"uplink-{olt_node.name}", olt_node.name,
                            deployment.cloud_node.hostname, now=now)
    # Inter-OLT links (the paper's T1 names them explicitly).
    olt_names = [olt.name for olt in deployment.olts]
    for a, b in zip(olt_names, olt_names[1:]):
        manager.secure_link(f"interolt-{a}--{b}", a, b, now=now)
    posture.channels = manager


def step_integrity(pipeline: "SecurityPipeline",
                   posture: SecurityPosture) -> None:
    """M5/M6/M7: secure boot, encrypted storage, FIM baselines."""
    provisioner = SecureBootProvisioner()
    for host in pipeline.deployment.all_hosts():
        provisioner.provision(host)
        provisioner.record_golden_state(host)
        posture.storage[host.hostname] = provision_secure_storage(
            host, force_install=pipeline.force_clevis_install)
        monitor = FileIntegrityMonitor(host)
        monitor.baseline()
        posture.fim[host.hostname] = monitor
    posture.boot = provisioner


def step_vuln_management(pipeline: "SecurityPipeline",
                         posture: SecurityPosture) -> None:
    """M8/M9/M12: scan + patch hosts, signed APT policy, feed landscape."""
    scanner = HostScanner(pipeline.cvedb)
    for host in pipeline.deployment.all_hosts():
        host.require_signed_apt()     # the M9 APT policy
        applied, _ = scanner.patch_prioritized(
            host, budget=PATCH_BUDGET_PER_HOST)
        posture.patches_applied[host.hostname] = applied
    for olt_node in pipeline.deployment.olts:
        olt_node.hypervisor.patch("CVE-2019-14378")
    posture.host_scanner = scanner
    posture.feeds = genio_feed_landscape()


def step_access_control(pipeline: "SecurityPipeline",
                        posture: SecurityPosture) -> None:
    """M10/M11: least privilege across the middleware, compliance suite."""
    deployment = pipeline.deployment
    tighten_cluster(deployment.cloud_cluster)
    harden_sdn_controller(deployment.sdn)
    harden_voltha(deployment.voltha)
    harden_proxmox(deployment.proxmox)
    posture.compliance = ComplianceSuite(
        deployment.cloud_cluster,
        runtimes=[vm.runtime for vm in deployment.worker_vms()])


def step_appsec(pipeline: "SecurityPipeline",
                posture: SecurityPosture) -> None:
    """M13/M14/M15: SCA, SAST, fuzzing and port-audit tooling."""
    posture.sca = ScaScanner(pipeline.cvedb)
    posture.sast = SastEngine()
    posture.fuzzer = CatsFuzzer()
    posture.port_scanner = NmapScanner()


def step_runtime_security(pipeline: "SecurityPipeline",
                          posture: SecurityPosture) -> None:
    """M16/M17/M18: admission gate, LSM sandboxing, runtime monitoring."""
    scanner = YaraScanner()
    posture.malware_scanner = scanner
    for vm in pipeline.deployment.worker_vms():
        vm.runtime.add_admission_hook(make_admission_hook(scanner))
        install_policy(vm.runtime, default_tenant_policy("tenant-*"))
    engine = FalcoEngine(publish_alerts=True)
    engine.attach(pipeline.deployment.bus)
    posture.falco = engine


def default_steps() -> List[PipelineStep]:
    """The M1-M18 programme as registered steps, in dependency order."""
    return [
        PipelineStep("M1/M2 hardening", ("M1", "M2"), step_hardening,
                     "OS/kernel hardening (OpenSCAP, STIG, sysctl)"),
        PipelineStep("M3/M4 communication security", ("M3", "M4"), step_comms,
                     "GPON encryption, PKI ONU activation, MACsec uplinks"),
        PipelineStep("M5/M6/M7 integrity", ("M5", "M6", "M7"), step_integrity,
                     "secure/measured boot, LUKS storage, Tripwire FIM"),
        PipelineStep("M8/M9/M12 vulnerability management",
                     ("M8", "M9", "M12"), step_vuln_management,
                     "host scanning + prioritised patching, signed updates"),
        PipelineStep("M10/M11 access control & compliance",
                     ("M10", "M11"), step_access_control,
                     "RBAC/ACL least privilege, compliance checkers"),
        PipelineStep("M13/M14/M15 application security",
                     ("M13", "M14", "M15"), step_appsec,
                     "SCA, SAST, DAST tooling"),
        PipelineStep("M16/M17/M18 runtime security",
                     ("M16", "M17", "M18"), step_runtime_security,
                     "malware gate, LSM sandboxing, Falco monitoring"),
    ]


class SecurityPipeline:
    """Runs the M1-M18 programme over a deployment.

    The programme is the public :attr:`steps` registry; ``apply()`` with
    no arguments runs every step (backward compatible with the original
    monolithic pipeline), while ``apply(skip=...)`` / ``apply(only=...)``
    ablate individual mitigations for experiments.
    """

    def __init__(self, deployment: GenioDeployment,
                 force_clevis_install: bool = False,
                 steps: Optional[Sequence[PipelineStep]] = None,
                 metrics: Optional[telemetry.MetricsRegistry] = None) -> None:
        self.deployment = deployment
        self.cvedb = build_cve_corpus()
        self.force_clevis_install = force_clevis_install
        self.steps: List[PipelineStep] = list(
            steps if steps is not None else default_steps())
        self._metrics = metrics if metrics is not None \
            else telemetry.active_registry()
        if self._metrics is not None:
            self._step_duration = self._metrics.histogram(
                "pipeline_step_duration_seconds",
                "Wall-clock duration of one pipeline step.", ("step",))
            self._steps_counter = self._metrics.counter(
                "pipeline_steps_total", "Pipeline steps run, by outcome.",
                ("step", "outcome"))

    # -- the registry ----------------------------------------------------------

    def step_names(self) -> List[str]:
        return [step.name for step in self.steps]

    def step(self, token: str) -> PipelineStep:
        """Look a step up by name or mitigation id."""
        for step in self.steps:
            if step.matches(token):
                return step
        raise UnknownStepError(f"no pipeline step matches {token!r}; "
                               f"registered: {self.step_names()}")

    def register_step(self, step: PipelineStep, *,
                      before: Optional[str] = None,
                      after: Optional[str] = None) -> None:
        """Insert a step; by default appended, else anchored to a neighbour."""
        if before is not None and after is not None:
            raise ValueError("give at most one of before=/after=")
        if any(existing.name == step.name for existing in self.steps):
            raise ValueError(f"step {step.name!r} already registered")
        if before is not None:
            index = self.steps.index(self.step(before))
        elif after is not None:
            index = self.steps.index(self.step(after)) + 1
        else:
            index = len(self.steps)
        self.steps.insert(index, step)

    def remove_step(self, token: str) -> PipelineStep:
        """Unregister and return the step matching ``token``."""
        step = self.step(token)
        self.steps.remove(step)
        return step

    def _select(self, skip: Optional[Iterable[str]],
                only: Optional[Iterable[str]]) -> List[PipelineStep]:
        if skip is not None and only is not None:
            raise ValueError("give at most one of skip=/only=")
        tokens = list(skip if skip is not None else only or [])
        for token in tokens:
            self.step(token)     # raises UnknownStepError on unknown selectors
        if only is not None:
            return [s for s in self.steps
                    if any(s.matches(t) for t in tokens)]
        if skip is not None:
            return [s for s in self.steps
                    if not any(s.matches(t) for t in tokens)]
        return list(self.steps)

    # -- execution -------------------------------------------------------------

    def apply(self, skip: Optional[Iterable[str]] = None,
              only: Optional[Iterable[str]] = None) -> SecurityPosture:
        """Run the selected steps in registry order.

        :param skip: step names or mitigation ids to leave out.
        :param only: run just the steps matching these selectors.
        :raises UnknownStepError: a selector matches no registered step.
        """
        selected = self._select(skip, only)
        posture = SecurityPosture(deployment=self.deployment, cvedb=self.cvedb)
        posture.steps_skipped = [step.name for step in self.steps
                                 if step not in selected]
        for step in selected:
            self._run_step(step, posture)
        return posture

    def _run_step(self, step: PipelineStep, posture: SecurityPosture) -> None:
        started = time.perf_counter()
        outcome = "ok"
        try:
            step.apply_fn(self, posture)
        except Exception:
            outcome = "error"
            raise
        finally:
            if self._metrics is not None:
                self._step_duration.observe(
                    time.perf_counter() - started, step=step.name)
                self._steps_counter.inc(step=step.name, outcome=outcome)
        posture.completed.append(step)
