"""Business-user onboarding: the GENIO application publication workflow.

Section II's use case, operationalized with the Section VI tooling: a
business user submits a container image; the *publication gate* runs the
full application-security battery (M13 SCA, M14 SAST, M15 DAST where a
REST surface exists, M16 malware signatures, plus image-configuration
hygiene); only passing images are signed into the GENIO registry, and
worker nodes pull with signature verification — so "image in the
registry" *means* "image that passed the gate".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common import crypto
from repro.common.errors import QuarantineError
from repro.orchestrator.registry import ImageRegistry
from repro.security.appsec.dast import CatsFuzzer
from repro.security.appsec.sast import SastEngine
from repro.security.appsec.sca import ScaScanner
from repro.security.malware.yara import YaraScanner
from repro.security.vulnmgmt.corpus import build_cve_corpus
from repro.security.vulnmgmt.cvedb import CveDatabase, Severity
from repro.virt.image import ContainerImage


@dataclass
class GateFinding:
    """One reason an image failed (or was flagged by) the gate."""

    stage: str       # sca | sast | dast | malware | config
    blocking: bool
    detail: str


@dataclass
class GateVerdict:
    """The publication decision for one image."""

    image: str
    admitted: bool
    findings: List[GateFinding] = field(default_factory=list)

    @property
    def blocking_findings(self) -> List[GateFinding]:
        return [f for f in self.findings if f.blocking]

    @property
    def advisories(self) -> List[GateFinding]:
        return [f for f in self.findings if not f.blocking]


class PublicationGate:
    """The M13-M16 battery applied at publication time."""

    _SEVERITY_ORDER = [Severity.LOW, Severity.MEDIUM, Severity.HIGH,
                       Severity.CRITICAL]

    def __init__(self, cvedb: CveDatabase,
                 block_at: Severity = Severity.HIGH) -> None:
        self.sca = ScaScanner(cvedb)
        self.sast = SastEngine()
        self.fuzzer = CatsFuzzer()
        self.malware = YaraScanner()
        self.block_at = block_at

    def _blocks(self, severity: Severity) -> bool:
        return (self._SEVERITY_ORDER.index(severity)
                >= self._SEVERITY_ORDER.index(self.block_at))

    def evaluate(self, image: ContainerImage) -> GateVerdict:
        verdict = GateVerdict(image=image.reference, admitted=True)
        findings = verdict.findings

        # M16 first: malware is an immediate, unconditional block.
        malware_report = self.malware.scan_image(image)
        for match in malware_report.matches:
            findings.append(GateFinding(
                "malware", True,
                f"{match.rule} in {match.path}: {match.description}"))

        # M13 SCA: severity-gated. The tool cannot see reachability, so
        # unused-dependency findings block too (the Lesson 7 friction).
        sca_report = self.sca.scan(image)
        for finding in sca_report.findings:
            blocking = self._blocks(finding.severity)
            unused = "" if finding.reachable else " (dependency never imported)"
            findings.append(GateFinding(
                "sca", blocking,
                f"{finding.cve.cve_id} in {finding.package.name}=="
                f"{finding.package.version}{unused}"))

        # M14 SAST: HIGH-severity security findings block.
        sast_report = self.sast.scan_image(image)
        for finding in sast_report.security_findings:
            findings.append(GateFinding(
                "sast", finding.severity == "HIGH",
                f"{finding.rule_id} {finding.path}:{finding.line} "
                f"{finding.message}"))

        # M15 DAST where a REST surface exists.
        fuzz_report = self.fuzzer.fuzz_image(image)
        if not fuzz_report.fuzzable:
            findings.append(GateFinding("dast", False, fuzz_report.note))
        for finding in fuzz_report.findings:
            findings.append(GateFinding(
                "dast", True,
                f"{finding.kind} on {finding.operation} "
                f"({finding.payload_family})"))

        # Configuration hygiene.
        for key in image.env_secrets():
            findings.append(GateFinding(
                "config", True, f"credential material in env var {key}"))
        if image.user == "root":
            findings.append(GateFinding(
                "config", False, "image runs as root (advisory)"))

        verdict.admitted = not verdict.blocking_findings
        return verdict


class OnboardingService:
    """Runs submissions through the gate and into the signed registry."""

    def __init__(self) -> None:
        self.signing_key = crypto.RsaKeyPair.generate(bits=512, seed=0x9A7E)
        self.registry = ImageRegistry(signing_keypair=self.signing_key)
        self.gate = PublicationGate(build_cve_corpus())
        self.verdicts: List[GateVerdict] = []

    def submit(self, image: ContainerImage, publisher: str) -> GateVerdict:
        """Evaluate and, on success, sign-publish the image.

        :raises QuarantineError: the image failed the gate.
        """
        verdict = self.gate.evaluate(image)
        self.verdicts.append(verdict)
        if not verdict.admitted:
            reasons = "; ".join(f.detail for f in verdict.blocking_findings[:3])
            raise QuarantineError(
                f"{image.reference} rejected by publication gate: {reasons}")
        self.registry.publish(image, publisher=publisher, sign=True)
        return verdict

    def pull_verified(self, reference: str) -> ContainerImage:
        """Node-side pull with signature enforcement."""
        return self.registry.pull(
            reference, require_signature=True,
            trusted_keys=[self.signing_key.public])
