"""T5/T6: middleware privilege abuse and middleware software vulnerabilities."""

from __future__ import annotations

from typing import List

from repro.common.errors import AuthenticationError, AuthorizationError
from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.rbac import TENANT_NAMESPACES
from repro.pon.attacks import AttackResult
from repro.sdn.controller import ApiCapability, SdnController
from repro.security.vulnmgmt.cvedb import CveDatabase

# The disclosed ONOS flaw the T6 attacker fires by default and the one
# M12 patches the controller past.
MIDDLEWARE_CVE = "CVE-2021-38363"


class AnonymousApiAttack:
    """Abuse anonymous access / AlwaysAllow on the Kubernetes API.

    The attacker holds no credential at all and tries to read secrets and
    create workloads. Defeated by M10/M11 (anonymous auth off, RBAC mode).
    """

    def __init__(self, cluster: KubeCluster) -> None:
        self.cluster = cluster

    def run(self) -> AttackResult:
        api = self.cluster.api
        wins: List[str] = []
        try:
            api.request(None, "list", "secrets", "")
            wins.append("listed all secrets anonymously")
        except (AuthenticationError, AuthorizationError):
            pass
        try:
            api.request(None, "create", "pods", "kube-system", "backdoor",
                        obj={"image": "attacker/backdoor"})
            wins.append("created a pod in kube-system anonymously")
        except (AuthenticationError, AuthorizationError):
            pass
        if wins:
            return AttackResult("anonymous-api", True,
                                f"{len(wins)} anonymous operations succeeded",
                                evidence=wins)
        return AttackResult("anonymous-api", False,
                            "API rejected every anonymous operation")


class TokenAbuseAttack:
    """Lateral movement with a stolen tenant service-account token.

    Under permissive defaults the tenant token is cluster-admin; under
    least privilege it can read its own configmaps and nothing else.
    """

    def __init__(self, cluster: KubeCluster, stolen_token: str) -> None:
        self.cluster = cluster
        self.stolen_token = stolen_token
        # The attacker holds another tenant's token and targets the last one.
        self.victim_namespace = TENANT_NAMESPACES[-1]

    def run(self) -> AttackResult:
        api = self.cluster.api
        wins: List[str] = []
        attempts = [
            ("get", "secrets", self.victim_namespace,
             "read another tenant's secrets"),
            ("create", "rolebindings", "kube-system",
             "granted self cluster admin"),
            ("delete", "pods", self.victim_namespace,
             "killed another tenant's workload"),
        ]
        for verb, resource, namespace, description in attempts:
            try:
                api.request(self.stolen_token, verb, resource, namespace,
                            "target", obj={})
                wins.append(description)
            except (AuthenticationError, AuthorizationError):
                continue
        if wins:
            return AttackResult("token-abuse", True,
                                "stolen tenant token enabled lateral movement",
                                evidence=wins)
        return AttackResult("token-abuse", False,
                            "stolen token confined to its least-privilege scope")


class MiddlewareCveExploit:
    """T6: exploit a known vulnerability in network-management middleware.

    The attacker fingerprints the SDN controller's version and fires a
    public exploit for a disclosed CVE (e.g. an improper-authorization or
    deserialization flaw in the northbound API). It works iff the deployed
    version falls in the CVE's affected range — which is exactly what the
    M12 tracking-and-patching loop exists to prevent: once vulnerability
    management upgrades the controller past the fixed version, the same
    exploit bounces.
    """

    def __init__(self, controller: SdnController, cvedb: CveDatabase,
                 cve_id: str = MIDDLEWARE_CVE) -> None:
        self.controller = controller
        self.cvedb = cvedb
        self.cve_id = cve_id

    def run(self) -> AttackResult:
        cve = self.cvedb.get(self.cve_id)
        if cve is None:
            return AttackResult("middleware-cve", False,
                                f"{self.cve_id} unknown to the attacker")
        version = self.controller.version
        if not cve.affects("onos", version, "middleware"):
            return AttackResult(
                "middleware-cve", False,
                f"{self.cve_id} does not affect ONOS {version} "
                "(patched via M12 tracking)")
        # The flaw bypasses the API authorization layer entirely — no
        # credential needed, which is what distinguishes T6 from T5.
        device_ids = list(self.controller.devices) or ["(topology dump)"]
        return AttackResult(
            "middleware-cve", True,
            f"{self.cve_id} ({cve.summary}) against ONOS {version}: "
            "northbound API reached without authorization",
            evidence=[f"accessed: {', '.join(device_ids)}"])


def patch_controller(controller: SdnController, cvedb: CveDatabase) -> bool:
    """The M12 remediation: upgrade the controller past the fixed version
    of :data:`MIDDLEWARE_CVE`.

    Returns True if an upgrade was applied.
    """
    cve = cvedb.get(MIDDLEWARE_CVE)
    if cve is None or cve.fixed is None:
        return False
    if not cve.affects("onos", controller.version, "middleware"):
        return False
    controller.version = cve.fixed
    return True


class DefaultCredentialAttack:
    """Log into the SDN controller with its shipped default credential
    and open a shell on the network OS. Defeated by M10's hardening."""

    def __init__(self, controller: SdnController) -> None:
        self.controller = controller

    def run(self) -> AttackResult:
        try:
            result = self.controller.call("onos", ApiCapability.SHELL_ACCESS,
                                          password="rocks")
        except (AuthenticationError, AuthorizationError) as exc:
            return AttackResult("default-credential", False,
                                f"controller rejected the default credential: {exc}")
        return AttackResult(
            "default-credential", True,
            "onos/rocks accepted; shell capability open",
            evidence=[str(result)])
