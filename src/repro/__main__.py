"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``inventory`` — print the Figure 1 deployment inventory.
* ``threats``   — print the Figure 3 threat/mitigation matrix.
* ``secure``    — build the platform, run the M1-M18 pipeline, and print
                  the operator security report.
* ``attack``    — run the full attack/defense demonstration (all threats,
                  mitigations on) and print outcomes.
* ``traffic``   — run per-tenant load through the PON upstream under the
                  DBA + QoS traffic plane and print the fairness report
                  (with ``--no-dba``/``--no-qos`` ablations).
* ``fleet``     — run N self-contained OLT shards through the shard pool
                  (``--workers N`` spreads them over worker processes;
                  same-seed output is byte-identical for any worker
                  count) and print per-OLT plus fleet-aggregate metrics
                  (throughput, Jain across OLTs, alert latency).

``secure`` and ``attack`` accept ``--metrics``: the run starts from a
fresh process-wide registry and ends by printing the Prometheus-style
telemetry snapshot, so every experiment's overhead is measurable.
``secure`` additionally accepts ``--skip``/``--only`` (step names or
mitigation ids, comma-separated) to ablate pipeline steps.

The CLI checks no argument itself: the library refuses bad ones with a
``ValueError`` (an unknown ``--skip``/``--only`` selector included), a
:class:`~repro.common.errors.CapacityError` or a
:class:`~repro.common.errors.ShardWorkerError`, and :func:`main` turns
each refusal into one ``error: <the library's message>`` line on stderr
and exit code 2. Any other exception is a fault and propagates.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import CapacityError, ShardWorkerError


def _metrics_prologue(args: argparse.Namespace):
    """Fresh registry for a ``--metrics`` run; returns it (or None)."""
    if not getattr(args, "metrics", False):
        return None
    from repro.common import telemetry
    telemetry.reset_default_registry()
    telemetry.set_telemetry_enabled(True)
    return telemetry.default_registry()


def _metrics_epilogue(registry) -> None:
    if registry is not None:
        print("\n# --- telemetry snapshot (Prometheus text format) ---")
        print(registry.render(), end="")


def _cmd_inventory(_: argparse.Namespace) -> int:
    from repro.platform import build_genio_deployment
    deployment = build_genio_deployment()
    for layer, info in deployment.deployment_inventory().items():
        print(f"[{layer}] {len(info['devices'])} x {info['device_type']} "
              f"@ {info['location']} (~{info['latency_ms']} ms)")
        for device in info["devices"]:
            print(f"    {device}")
    return 0


def _cmd_threats(_: argparse.Namespace) -> int:
    from repro.security.threatmodel import render_matrix
    print(render_matrix())
    return 0


def _cmd_secure(args: argparse.Namespace) -> int:
    registry = _metrics_prologue(args)
    from repro.platform import build_genio_deployment
    from repro.security.pipeline import SecurityPipeline
    from repro.security.report import generate_report
    deployment = build_genio_deployment(n_olts=args.olts)
    selectors = {}
    if args.skip:
        selectors["skip"] = [t.strip() for t in args.skip.split(",") if t.strip()]
    if args.only:
        selectors["only"] = [t.strip() for t in args.only.split(",") if t.strip()]
    posture = SecurityPipeline(deployment).apply(**selectors)
    report = generate_report(posture)
    print(report.render())
    if posture.steps_skipped:
        print(f"\n(steps skipped: {', '.join(posture.steps_skipped)})")
    _metrics_epilogue(registry)
    return 0 if report.ready else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    registry = _metrics_prologue(args)
    from repro.attacks import (
        DefaultCredentialAttack, MaliciousImageAttack,
        PrivilegeEscalationAttack,
    )
    from repro.osmodel.presets import stock_onl_olt_host
    from repro.platform.workloads import malicious_miner_image
    from repro.pon.attacks import FiberTapAttack
    from repro.pon.network import PonNetwork
    from repro.pon.onu import Onu
    from repro.sdn.controller import SdnController
    from repro.security.access.leastprivilege import harden_sdn_controller
    from repro.security.comms import SecureChannelManager
    from repro.security.hardening import harden_host
    from repro.security.malware import make_admission_hook
    from repro.virt.runtime import ContainerRuntime

    def tap(secured):
        network = PonNetwork.build()
        if secured:
            manager = SecureChannelManager()
            manager.secure_pon(network)
            onu = Onu("ONU-A")
            manager.enroll_onu(onu)
            manager.activate_onu_securely(network, onu)
        else:
            network.attach_onu(Onu("ONU-A"))
        attack = FiberTapAttack(network)
        network.send_downstream("ONU-A", b"traffic")
        return attack.run()

    def escalation(secured):
        host = stock_onl_olt_host()
        if secured:
            harden_host(host)
        return PrivilegeEscalationAttack(host).run()

    def sdn(secured):
        controller = SdnController()
        if secured:
            harden_sdn_controller(controller)
        return DefaultCredentialAttack(controller).run()

    def image(secured):
        runtime = ContainerRuntime("node")
        if secured:
            runtime.add_admission_hook(make_admission_hook())
        return MaliciousImageAttack(runtime, malicious_miner_image()).run()

    cases = [("T1 fiber tap", tap), ("T3 privilege escalation", escalation),
             ("T5 default SDN creds", sdn), ("T8 malicious image", image)]
    failures = 0
    print(f"{'attack':<26} {'mitigations OFF':<16} mitigations ON")
    for name, runner in cases:
        off_result, on_result = runner(False), runner(True)
        ok = off_result.succeeded and not on_result.succeeded
        failures += not ok
        print(f"{name:<26} "
              f"{'SUCCEEDS' if off_result.succeeded else 'fails':<16} "
              f"{'SUCCEEDS' if on_result.succeeded else 'blocked'}")
    print("\n(run `pytest benchmarks/test_attack_defense_matrix.py "
          "--benchmark-only` for all 16 scenarios)")
    _metrics_epilogue(registry)
    return 1 if failures else 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    registry = _metrics_prologue(args)
    from repro.security.monitor.abuse import ResourceAbuseDetector
    from repro.traffic import run_traffic_experiment
    report = run_traffic_experiment(
        n_tenants=args.tenants, seconds=args.seconds,
        hostile=not args.no_hostile, dba=not args.no_dba,
        qos=not args.no_qos, seed=args.seed,
        downstream=args.downstream)
    print(report.render())
    if registry is not None:
        findings = ResourceAbuseDetector(registry=registry).sample_metrics()
        flagged = sorted({f.tenant for f in findings})
        print(f"\nmetrics-driven abuse findings: "
              f"{', '.join(flagged) if flagged else 'none'}")
    _metrics_epilogue(registry)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.traffic.fleet import run_fleet_parallel
    report = run_fleet_parallel(
        n_olts=args.olts, n_tenants=args.tenants, seconds=args.seconds,
        seed=args.seed, hostile=not args.no_hostile,
        workers=args.workers, downstream=args.downstream)
    print(report.render())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GENIO security-by-design reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("inventory", help="Figure 1 deployment inventory")
    sub.add_parser("threats", help="Figure 3 threat/mitigation matrix")
    secure = sub.add_parser("secure", help="run the M1-M18 pipeline + report")
    secure.add_argument("--olts", type=int, default=2)
    secure.add_argument("--metrics", action="store_true",
                        help="print a Prometheus-style telemetry snapshot")
    secure.add_argument("--skip", default="",
                        help="comma-separated steps/mitigations to skip")
    secure.add_argument("--only", default="",
                        help="comma-separated steps/mitigations to run alone")
    attack = sub.add_parser("attack", help="attack/defense demonstration")
    attack.add_argument("--metrics", action="store_true",
                        help="print a Prometheus-style telemetry snapshot")
    traffic = sub.add_parser(
        "traffic", help="per-tenant traffic generation under DBA + QoS")
    traffic.add_argument("--tenants", type=int, default=5,
                         help="number of well-behaved tenants")
    traffic.add_argument("--seconds", type=float, default=2.0,
                         help="simulated duration of the run")
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--no-hostile", action="store_true",
                         help="omit the flooding T8 tenant")
    traffic.add_argument("--no-dba", action="store_true",
                         help="disable the DBA fair scheduler (contention "
                              "becomes demand-proportional)")
    traffic.add_argument("--no-qos", action="store_true",
                         help="disable per-tenant admission control")
    traffic.add_argument("--downstream", action="store_true",
                         help="also schedule the downstream direction "
                              "(per-ONU OLT queues, bidirectional QoS)")
    traffic.add_argument("--metrics", action="store_true",
                         help="print a Prometheus-style telemetry snapshot "
                              "and the metrics-driven abuse findings")
    fleet = sub.add_parser(
        "fleet", help="multi-OLT fleet of self-contained shards")
    fleet.add_argument("--olts", type=int, default=4,
                       help="number of OLT shards")
    fleet.add_argument("--tenants", type=int, default=32,
                       help="total tenants, split across the OLT shards")
    fleet.add_argument("--seconds", type=float, default=2.0,
                       help="simulated duration of the run")
    fleet.add_argument("--seed", type=int, default=0,
                       help="seed for workloads and event tie-breaking")
    fleet.add_argument("--no-hostile", action="store_true",
                       help="omit the flooding T8 tenant on the first OLT")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes for the shard pool (1 = "
                            "in-process; output is byte-identical for "
                            "any value)")
    fleet.add_argument("--downstream", action="store_true",
                       help="run the downstream scheduling plane in every "
                            "shard (bidirectional traffic; output stays "
                            "byte-identical for any --workers)")
    cra = sub.add_parser("cra", help="Cyber Resilience Act readiness")
    cra.add_argument("--mitigations", default="all",
                     help="comma-separated mitigation ids, or 'all'/'none'")
    args = parser.parse_args(argv)
    handlers = {"inventory": _cmd_inventory, "threats": _cmd_threats,
                "secure": _cmd_secure, "attack": _cmd_attack,
                "traffic": _cmd_traffic, "fleet": _cmd_fleet,
                "cra": _cmd_cra}
    try:
        return handlers[args.command](args)
    except (ValueError, CapacityError, ShardWorkerError) as exc:
        # A refusal from the library: a usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_cra(args: argparse.Namespace) -> int:
    from repro.security.threatmodel.regulatory import assess_cra_readiness
    from repro.security.threatmodel.risk import ALL_MITIGATIONS
    if args.mitigations == "all":
        applied = ALL_MITIGATIONS
    elif args.mitigations == "none":
        applied = []
    else:
        applied = [m.strip() for m in args.mitigations.split(",") if m.strip()]
    assessment = assess_cra_readiness(applied)
    print(assessment.render())
    return 0 if assessment.ready else 1


if __name__ == "__main__":
    sys.exit(main())
