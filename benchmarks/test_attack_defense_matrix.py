"""E4 — the attack/defense matrix over threats T1-T8.

For every threat the paper models, runs a representative attack twice:
against the platform with the relevant mitigations OFF (the attack must
succeed — the threat is real) and ON (the attack must fail — the
mitigation works). This is the headline result of the reproduction: the
full table of who wins under which configuration.
"""

from typing import Callable, List, Tuple

import pytest

from repro.attacks import (
    AnonymousApiAttack, BinaryImplantAttack, BootKitAttack,
    CapabilityAbuseAttack, DefaultCredentialAttack, HypervisorEscapeAttack,
    KernelExploitAttack, MaliciousImageAttack, MaliciousUpdateAttack,
    PrivilegeEscalationAttack, ResourceAbuseAttack, VulnerableAppExploit,
)
from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.objects import Namespace
from repro.orchestrator.kube.rbac import permissive_default_rbac
from repro.osmodel.boot import BootComponent, BootStage
from repro.osmodel.presets import stock_onl_olt_host
from repro.platform.workloads import malicious_miner_image, vulnerable_webapp_image, ml_inference_image
from repro.pon.attacks import (
    AttackResult, DownstreamHijackAttack, FiberTapAttack, OnuImpersonationAttack,
)
from repro.pon.network import PonNetwork
from repro.pon.onu import Onu
from repro.sdn.controller import SdnController
from repro.security.access.leastprivilege import harden_sdn_controller, tighten_cluster
from repro.security.comms import SecureChannelManager
from repro.security.comms.pki import CertificateAuthority
from repro.security.hardening import harden_host
from repro.security.integrity.fim import FileIntegrityMonitor
from repro.security.integrity.secureboot import SecureBootProvisioner
from repro.security.malware import make_admission_hook
from repro.security.sandbox import default_tenant_policy, install_policy
from repro.security.updates import (
    RELEASE_SIGNER, OnieImage, OnieInstaller, sign_onie_image,
)
from repro.security.vulnmgmt.corpus import build_cve_corpus
from repro.virt.container import ContainerSpec, ResourceLimits
from repro.virt.hypervisor import Hypervisor
from repro.virt.runtime import ContainerRuntime
from repro.virt.vm import VmSpec

Case = Tuple[str, str, str, Callable[[], AttackResult], Callable[[], AttackResult]]


def _t1_tap() -> Tuple[Callable, Callable]:
    def off():
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        attack = FiberTapAttack(network)
        network.send_downstream("ONU-A", b"subscriber traffic")
        return attack.run()

    def on():
        manager = SecureChannelManager()
        network = PonNetwork.build()
        manager.secure_pon(network)
        onu = Onu("ONU-A")
        manager.enroll_onu(onu)
        manager.activate_onu_securely(network, onu)
        attack = FiberTapAttack(network)
        network.send_downstream("ONU-A", b"subscriber traffic")
        return attack.run()

    return off, on


def _t1_impersonation() -> Tuple[Callable, Callable]:
    def off():
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        return OnuImpersonationAttack(network, "ONU-A").run()

    def on():
        manager = SecureChannelManager()
        network = PonNetwork.build()
        manager.secure_pon(network)
        onu = Onu("ONU-A")
        manager.enroll_onu(onu)
        manager.activate_onu_securely(network, onu)
        return OnuImpersonationAttack(network, "ONU-A").run()

    return off, on


def _t1_hijack() -> Tuple[Callable, Callable]:
    def off():
        network = PonNetwork.build()
        network.attach_onu(Onu("ONU-A"))
        return DownstreamHijackAttack(network, "ONU-A").run()

    def on():
        manager = SecureChannelManager()
        network = PonNetwork.build()
        manager.secure_pon(network)
        onu = Onu("ONU-A")
        manager.enroll_onu(onu)
        manager.activate_onu_securely(network, onu)
        return DownstreamHijackAttack(network, "ONU-A").run()

    return off, on


def _t2_bootkit() -> Tuple[Callable, Callable]:
    def off():
        host = stock_onl_olt_host()
        for stage, image in [(BootStage.SHIM, b"shim"),
                             (BootStage.GRUB, b"grub"),
                             (BootStage.KERNEL, b"vmlinuz")]:
            host.boot_chain.install(BootComponent(stage, image))
        return BootKitAttack(host).run()

    def on():
        host = stock_onl_olt_host()
        provisioner = SecureBootProvisioner()
        provisioner.provision(host)
        provisioner.record_golden_state(host)
        return BootKitAttack(host, provisioner).run()

    return off, on


def _t2_implant() -> Tuple[Callable, Callable]:
    def off():
        return BinaryImplantAttack(stock_onl_olt_host()).run()

    def on():
        host = stock_onl_olt_host()
        fim = FileIntegrityMonitor(host)
        fim.baseline()
        return BinaryImplantAttack(host, fim).run()

    return off, on


def _t2_update() -> Tuple[Callable, Callable]:
    ca = CertificateAuthority()
    signer_kp, signer_cert = ca.enroll_device(RELEASE_SIGNER)
    legitimate = sign_onie_image(OnieImage("onl", "5.0", payload=b"KERNEL"),
                                 signer_kp, signer_cert)

    def off():
        return MaliciousUpdateAttack(stock_onl_olt_host(), None,
                                     legitimate).run()

    def on():
        return MaliciousUpdateAttack(stock_onl_olt_host(), OnieInstaller(ca),
                                     legitimate).run()

    return off, on


def _t3_escalation() -> Tuple[Callable, Callable]:
    def off():
        return PrivilegeEscalationAttack(stock_onl_olt_host()).run()

    def on():
        host = stock_onl_olt_host()
        harden_host(host)
        return PrivilegeEscalationAttack(host).run()

    return off, on


def _t4_kernel() -> Tuple[Callable, Callable]:
    corpus = build_cve_corpus()

    def off():
        return KernelExploitAttack(stock_onl_olt_host(), corpus).run()

    def on():
        host = stock_onl_olt_host()
        harden_host(host)
        return KernelExploitAttack(host, corpus).run()

    return off, on


def _t4_hypervisor() -> Tuple[Callable, Callable]:
    def off():
        hv = Hypervisor("olt-1")
        hv.mark_unpatched("CVE-2019-14378")
        vm = hv.create_vm(VmSpec("victim", vcpus=1, memory_mb=1024))
        return HypervisorEscapeAttack(hv, vm.id).run()

    def on():
        hv = Hypervisor("olt-1")   # patched (M8/M12 vuln management)
        vm = hv.create_vm(VmSpec("victim", vcpus=1, memory_mb=1024))
        return HypervisorEscapeAttack(hv, vm.id).run()

    return off, on


def _t5_anonymous() -> Tuple[Callable, Callable]:
    def _cluster(tightened):
        cluster = KubeCluster(rbac=permissive_default_rbac())
        cluster.add_namespace(Namespace("tenant-a"))
        if tightened:
            tighten_cluster(cluster)
        return cluster

    return (lambda: AnonymousApiAttack(_cluster(False)).run(),
            lambda: AnonymousApiAttack(_cluster(True)).run())


def _t5_default_creds() -> Tuple[Callable, Callable]:
    def off():
        return DefaultCredentialAttack(SdnController()).run()

    def on():
        controller = SdnController()
        harden_sdn_controller(controller)
        return DefaultCredentialAttack(controller).run()

    return off, on


def _t6_middleware_cve() -> Tuple[Callable, Callable]:
    from repro.attacks import MiddlewareCveExploit, patch_controller
    corpus = build_cve_corpus()

    def off():
        return MiddlewareCveExploit(SdnController(), corpus).run()

    def on():
        controller = SdnController()
        patch_controller(controller, corpus)   # the M12 loop did its job
        return MiddlewareCveExploit(controller, corpus).run()

    return off, on


def _t7_app() -> Tuple[Callable, Callable]:
    return (lambda: VulnerableAppExploit(vulnerable_webapp_image()).run(),
            lambda: VulnerableAppExploit(ml_inference_image()).run())


def _t8_malicious_image() -> Tuple[Callable, Callable]:
    def off():
        return MaliciousImageAttack(ContainerRuntime("n"),
                                    malicious_miner_image()).run()

    def on():
        runtime = ContainerRuntime("n")
        runtime.add_admission_hook(make_admission_hook())
        return MaliciousImageAttack(runtime, malicious_miner_image()).run()

    return off, on


def _t8_escape() -> Tuple[Callable, Callable]:
    def off():
        runtime = ContainerRuntime("n")
        container = runtime.run(ContainerSpec(
            image=malicious_miner_image(), privileged=True, tenant="tenant-m"))
        return CapabilityAbuseAttack(runtime, container).run()

    def on():
        runtime = ContainerRuntime("n")
        install_policy(runtime, default_tenant_policy("tenant-*"))
        container = runtime.run(ContainerSpec(
            image=malicious_miner_image(), privileged=True, tenant="tenant-m"))
        return CapabilityAbuseAttack(runtime, container).run()

    return off, on


def _t8_resources() -> Tuple[Callable, Callable]:
    def off():
        runtime = ContainerRuntime("n", cpu_capacity=8.0)
        container = runtime.run(ContainerSpec(image=malicious_miner_image(),
                                              tenant="tenant-m"))
        return ResourceAbuseAttack(runtime, container).run()

    def on():
        runtime = ContainerRuntime("n", cpu_capacity=8.0)
        container = runtime.run(ContainerSpec(
            image=malicious_miner_image(), tenant="tenant-m",
            limits=ResourceLimits(cpu_shares=2048, memory_mb=2048)))
        return ResourceAbuseAttack(runtime, container).run()

    return off, on


def _t8_traffic_flood() -> Tuple[Callable, Callable]:
    from repro.traffic import run_traffic_experiment

    def _run(defended: bool) -> AttackResult:
        traffic = run_traffic_experiment(n_tenants=3, seconds=0.4,
                                         dba=defended, qos=defended)
        hostile = traffic.tenants["tenant-hostile"]
        return AttackResult(
            attack="upstream traffic flood",
            succeeded=hostile.bandwidth_share > 0.5,
            detail=(f"hostile delivered share {hostile.bandwidth_share:.0%}, "
                    f"Jain {traffic.jain():.2f}"))

    return (lambda: _run(False), lambda: _run(True))


CASES: List[Case] = [
    ("T1", "fiber tap interception", "M3 GPON encryption", *_t1_tap()),
    ("T1", "ONU impersonation", "M4 PKI activation", *_t1_impersonation()),
    ("T1", "downstream hijack", "M3 GPON encryption", *_t1_hijack()),
    ("T2", "bootkit install", "M5 Secure/Measured Boot", *_t2_bootkit()),
    ("T2", "binary implant", "M7 Tripwire FIM", *_t2_implant()),
    ("T2", "malicious OS update", "M9 ONIE signed updates", *_t2_update()),
    ("T3", "privilege escalation", "M1/M2 hardening", *_t3_escalation()),
    ("T4", "kernel exploit (Sequoia)", "M2 hardening / M8 patching", *_t4_kernel()),
    ("T4", "hypervisor escape", "M8/M12 patching", *_t4_hypervisor()),
    ("T5", "anonymous API abuse", "M10 RBAC + authn", *_t5_anonymous()),
    ("T5", "default SDN credentials", "M10 controller hardening", *_t5_default_creds()),
    ("T6", "ONOS northbound CVE", "M12 tracking + patching", *_t6_middleware_cve()),
    ("T7", "webapp exploitation", "M13-M15 appsec gate", *_t7_app()),
    ("T8", "malicious image deploy", "M16 malware gate", *_t8_malicious_image()),
    ("T8", "container escape", "M17 LSM sandboxing", *_t8_escape()),
    ("T8", "resource monopolization", "limits + M18 detection", *_t8_resources()),
    ("T8", "upstream traffic flood", "DBA fairness + QoS policing", *_t8_traffic_flood()),
]


def test_attack_defense_matrix(benchmark, report):
    def run_matrix():
        return [(threat, name, mitigation, off().succeeded, on().succeeded)
                for threat, name, mitigation, off, on in CASES]

    outcomes = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    lines = ["E4 — attack/defense matrix (every attack, mitigations OFF vs ON)",
             "",
             f"{'threat':<7} {'attack':<26} {'mitigation':<28} "
             f"{'OFF':<10} {'ON'}"]
    for threat, name, mitigation, off_ok, on_ok in outcomes:
        lines.append(f"{threat:<7} {name:<26} {mitigation:<28} "
                     f"{'SUCCEEDS' if off_ok else 'fails':<10} "
                     f"{'SUCCEEDS' if on_ok else 'blocked'}")
    blocked = sum(1 for *_, on_ok in outcomes if not on_ok)
    lines.append("")
    lines.append(f"mitigations ON blocked {blocked}/{len(outcomes)} attacks; "
                 f"mitigations OFF allowed "
                 f"{sum(1 for *_, off_ok, _ in outcomes if off_ok)}"
                 f"/{len(outcomes)}")
    report("E4_attack_defense_matrix", "\n".join(lines))

    for threat, name, _, off_ok, on_ok in outcomes:
        assert off_ok, f"{threat} {name}: attack should succeed unmitigated"
        assert not on_ok, f"{threat} {name}: mitigation should block it"


def test_matrix_rows_via_pipeline_step_registry(benchmark, report):
    """Representative matrix rows driven by ``apply(skip=...)``.

    The hand-wired cases above construct each OFF configuration manually;
    here the SecurityPipeline's public step registry produces them — the
    OFF run skips the mitigation's step by selector (mitigation id or step
    name), the ON run applies everything — against a *full* deployment.
    """
    from repro.platform import build_genio_deployment
    from repro.security.pipeline import SecurityPipeline

    def attack_t5(posture):
        return DefaultCredentialAttack(posture.deployment.sdn).run()

    def attack_t8(posture):
        runtime = posture.deployment.worker_vms()[0].runtime
        return MaliciousImageAttack(runtime, malicious_miner_image()).run()

    def attack_t3(posture):
        host = posture.deployment.olts[0].host
        return PrivilegeEscalationAttack(host).run()

    rows = [("T3", "privilege escalation", "M1", attack_t3),
            ("T5", "default SDN credentials", "M10", attack_t5),
            ("T8", "malicious image deploy",
             "M16/M17/M18 runtime security", attack_t8)]

    def run_rows():
        outcomes = []
        for threat, name, selector, attack in rows:
            off_deployment = build_genio_deployment(n_olts=1, onus_per_olt=2)
            off_posture = SecurityPipeline(off_deployment).apply(
                skip=[selector])
            on_deployment = build_genio_deployment(n_olts=1, onus_per_olt=2)
            on_posture = SecurityPipeline(on_deployment).apply()
            outcomes.append((threat, name, selector,
                             attack(off_posture).succeeded,
                             attack(on_posture).succeeded))
        return outcomes

    outcomes = benchmark.pedantic(run_rows, rounds=1, iterations=1)

    lines = ["E4b — matrix rows via the pipeline step registry "
             "(skip= selector builds the OFF column)",
             "",
             f"{'threat':<7} {'attack':<26} {'skip selector':<30} "
             f"{'OFF':<10} {'ON'}"]
    for threat, name, selector, off_ok, on_ok in outcomes:
        lines.append(f"{threat:<7} {name:<26} {selector:<30} "
                     f"{'SUCCEEDS' if off_ok else 'fails':<10} "
                     f"{'SUCCEEDS' if on_ok else 'blocked'}")
    lines.append("")
    lines.append("reading: ablating one registered step re-opens exactly "
                 "that threat while the fully-applied pipeline blocks it — "
                 "the matrix's OFF column is now reproducible from the "
                 "public API instead of hand-wired setups.")
    report("E4b_matrix_via_step_registry", "\n".join(lines))

    for threat, name, selector, off_ok, on_ok in outcomes:
        assert off_ok, f"{threat} {name}: skipping {selector} should re-open it"
        assert not on_ok, f"{threat} {name}: full pipeline should block it"
