"""Platform security report generator.

Collates the state of every mitigation into one operator-facing document
— the kind of artifact the GENIO project would hand a CE-marking / Cyber
Resilience Act assessor: threat coverage, hardening pass rates, integrity
posture, vulnerability backlog, compliance results and runtime-security
activity, with an overall readiness verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common import telemetry
from repro.security.pipeline import SecurityPosture
from repro.security.threatmodel import build_genio_threat_model
from repro.security.threatmodel.matrix import coverage_matrix
from repro.security.threatmodel.regulatory import assess_cra_readiness
from repro.security.threatmodel.risk import (
    ALL_MITIGATIONS, assess_residual_risk, portfolio_risk,
)


@dataclass
class ReportSection:
    title: str
    lines: List[str] = field(default_factory=list)
    satisfied: bool = True


@dataclass
class SecurityReport:
    """The assembled report."""

    sections: List[ReportSection] = field(default_factory=list)

    @property
    def ready(self) -> bool:
        return all(section.satisfied for section in self.sections)

    def render(self) -> str:
        out = ["GENIO PLATFORM SECURITY REPORT", "=" * 64, ""]
        for section in self.sections:
            marker = "OK " if section.satisfied else "GAP"
            out.append(f"[{marker}] {section.title}")
            out.extend(f"      {line}" for line in section.lines)
            out.append("")
        verdict = ("READY: all mitigation areas satisfied"
                   if self.ready else
                   "NOT READY: gaps listed above require remediation")
        out.append(verdict)
        return "\n".join(out)


def telemetry_section(
        metrics: telemetry.MetricsRegistry) -> ReportSection:
    """Summarise the measurement substrate's key series for the assessor.

    Lesson 8 demands that control overhead be continuously monitored;
    this section proves the monitoring exists and is live.
    """
    key_series = [
        ("bus events", "bus_events_total"),
        ("PON frames", "pon_frames_total"),
        ("MACsec operations", "macsec_frames_total"),
        ("vulnerability scans", "vuln_scans_total"),
        ("patches applied", "vuln_patches_applied_total"),
        ("pipeline steps timed", "pipeline_step_duration_seconds"),
        ("falco alerts", "falco_alerts_total"),
    ]
    lines = [f"{label}: {metrics.total(name):.0f}"
             for label, name in key_series if name in metrics]
    if not lines:
        lines = ["no instrumented series recorded yet"]
    return ReportSection("Observability (telemetry substrate)", lines,
                         satisfied=bool(metrics.families()))


def generate_report(posture: SecurityPosture) -> SecurityReport:
    """Build the report from a pipeline posture.

    The observability section reads the active process-wide registry,
    and is left out while telemetry is disabled.
    """
    report = SecurityReport()
    deployment = posture.deployment
    metrics = telemetry.active_registry()

    # -- threat coverage --------------------------------------------------------
    model = build_genio_threat_model()
    unmitigated = model.unmitigated()
    section = ReportSection(
        "Threat model coverage (STRIDE, T1-T8)",
        [f"{len(model.threats())} threats modeled, "
         f"{len(coverage_matrix())} threat-mitigation pairings, "
         f"{len(unmitigated)} unmitigated"],
        satisfied=not unmitigated)
    report.sections.append(section)

    # -- hardening -----------------------------------------------------------------
    rates = [(hostname, summary.pass_rate_after.get("onl-scap", 0.0))
             for hostname, summary in posture.hardening.items()]
    weakest = min(rates, key=lambda kv: kv[1]) if rates else ("n/a", 0.0)
    report.sections.append(ReportSection(
        "M1/M2 host and kernel hardening",
        [f"{hostname}: SCAP {summary.pass_rate_after.get('onl-scap', 0):.0%}, "
         f"kernel {summary.pass_rate_after.get('kernel', 0):.0%}, "
         f"manual rules: {len(set(summary.manual_rules))}"
         for hostname, summary in posture.hardening.items()],
        satisfied=bool(rates) and weakest[1] >= 0.9))

    # -- communications --------------------------------------------------------------
    channels = posture.channels
    pon_secured = all(olt.pon.olt.encryption_enabled
                      and olt.pon.olt.auth_mode == "certificate"
                      for olt in deployment.olts)
    report.sections.append(ReportSection(
        "M3/M4 communication security",
        [f"PON ports encrypted + certificate-gated: {pon_secured}",
         f"MACsec uplinks established: "
         f"{len(channels.secured_links) if channels else 0}",
         f"enrolled identities: {len(channels.endpoints) if channels else 0}"],
        satisfied=pon_secured and bool(channels and channels.secured_links)))

    # -- integrity ---------------------------------------------------------------------
    attested = []
    if posture.boot is not None:
        for host in deployment.all_hosts():
            attested.append(posture.boot.attest_host(host).trusted)
    storage_lines = [
        f"{hostname}: unlock={result.unlock_mode}"
        + (" (conflict risk)" if result.conflict_risk else "")
        for hostname, result in posture.storage.items()]
    report.sections.append(ReportSection(
        "M5/M6/M7 integrity",
        [f"hosts attesting trusted: {sum(attested)}/{len(attested)}"]
        + storage_lines
        + [f"FIM baselines active: {len(posture.fim)}"],
        satisfied=bool(attested) and all(attested) and bool(posture.fim)))

    # -- vulnerability management ----------------------------------------------------------
    backlog_lines = []
    satisfied_vuln = True
    if posture.host_scanner is not None:
        for host in deployment.all_hosts():
            scan = posture.host_scanner.scan(host)
            critical = len(scan.critical_or_exploitable)
            backlog_lines.append(
                f"{host.hostname}: {len(scan.findings)} open findings "
                f"({critical} critical/exploitable)")
            if critical > 5:
                satisfied_vuln = False
    report.sections.append(ReportSection(
        "M8/M9/M12 vulnerability management",
        backlog_lines
        + [f"patches applied: {sum(posture.patches_applied.values())}",
           "update channels: APT signatures required, ONIE verified"],
        satisfied=satisfied_vuln))

    # -- access control & compliance ----------------------------------------------------------
    compliance_lines = []
    satisfied_compliance = True
    if posture.compliance is not None:
        for name, result in posture.compliance.run().items():
            compliance_lines.append(
                f"{name}: {result.passed}/{len(result.checks)}")
            if name in ("kube-bench", "kube-hunter") and result.pass_rate < 1.0:
                satisfied_compliance = False
    report.sections.append(ReportSection(
        "M10/M11 access control & compliance",
        compliance_lines, satisfied=satisfied_compliance))

    # -- residual risk --------------------------------------------------------------------------
    applied = [m for m in posture.mitigations_applied if m in ALL_MITIGATIONS]
    assessments = assess_residual_risk(applied)
    portfolio = portfolio_risk(assessments)
    top = assessments[0]
    report.sections.append(ReportSection(
        "Residual risk posture",
        [f"portfolio risk {portfolio['inherent_total']:.0f} -> "
         f"{portfolio['residual_total']:.1f} "
         f"({portfolio['overall_reduction']:.0%} reduction)",
         f"threats still above MEDIUM: {portfolio['threats_above_medium']}",
         f"highest residual: {top.threat_id} {top.name} "
         f"(score {top.residual_score})"],
        satisfied=portfolio["threats_above_medium"] == 0))

    # -- regulatory alignment (the project's stated objective) ------------------------------------
    cra = assess_cra_readiness(applied)
    counts = cra.counts()
    report.sections.append(ReportSection(
        "Cyber Resilience Act alignment",
        [f"{counts['satisfied']}/{len(cra.statuses)} essential requirements "
         f"satisfied, {counts['partial']} partial, "
         f"{counts['unsatisfied']} unsatisfied"],
        satisfied=cra.ready))

    # -- runtime security ------------------------------------------------------------------------
    falco = posture.falco
    report.sections.append(ReportSection(
        "M16/M17/M18 runtime security",
        [f"malware admission gate: "
         f"{'active' if posture.malware_scanner else 'missing'}",
         f"monitor attached: {falco is not None}, "
         f"events={falco.events_processed if falco else 0}, "
         f"alerts={len(falco.alerts) if falco else 0}"],
        satisfied=posture.malware_scanner is not None and falco is not None))

    # -- observability ---------------------------------------------------------------------------
    if metrics is not None:
        report.sections.append(telemetry_section(metrics))

    return report
