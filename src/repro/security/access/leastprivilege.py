"""M10: least privilege across the middleware stack.

The paper's rule: each role and service holds only the permissions its
legitimate GENIO workflow needs. The workflows are:

* **tenant workloads** read their own configuration and nothing else;
* **tenant deployers** manage deployments/pods in their own namespace;
* **platform operators** administer ``kube-system`` and the nodes, but do
  not read tenant secrets;
* **SDN management** gets device registration, network configuration,
  flow programming and diagnostic logging — never shell access, debug
  endpoints or raw log retrieval;
* **VOLTHA administration** is restricted to TLS-certificate service
  accounts.
"""

from __future__ import annotations

from typing import Optional

from repro.orchestrator.kube.cluster import KubeCluster
from repro.orchestrator.kube.objects import PodSpec
from repro.orchestrator.kube.rbac import (
    OPERATORS, TENANT_NAMESPACES, PolicyRule, RbacAuthorizer, Role,
    RoleBinding, Subject,
)
from repro.orchestrator.proxmox import PVE_ADMIN, PVE_AUDITOR, ProxmoxCluster
from repro.sdn.controller import (
    PRODUCTION_REQUIRED, ApiAccount, ApiCapability, SdnController,
)
from repro.sdn.voltha import ServiceAccount as VolthaAccount, VolthaCore

# Fingerprints of the TLS client certificates M10 pins for the SDN
# management account and the VOLTHA admin account.
SDN_MGMT_CERT_FP = "fp-genio-mgmt"
VOLTHA_ADMIN_CERT_FP = "fp-genio-voltha"


def genio_least_privilege_rbac() -> RbacAuthorizer:
    """Build the M10 RBAC state for the GENIO tenants and operators."""
    rbac = RbacAuthorizer()

    # Tenant workload identity: read own config, nothing else.
    for namespace in TENANT_NAMESPACES:
        rbac.add_role(Role(
            name="workload", namespace=namespace,
            rules=[PolicyRule(("get", "list"), ("configmaps",))]))
        rbac.bind(RoleBinding(
            name=f"workload-{namespace}", role_name="workload",
            namespace=namespace,
            subjects=[Subject("ServiceAccount", f"{namespace}:default")]))

        # Tenant deployer: manage its own application objects.
        rbac.add_role(Role(
            name="deployer", namespace=namespace,
            rules=[
                PolicyRule(("get", "list", "watch", "create", "update",
                            "patch", "delete"),
                           ("deployments", "pods", "services", "configmaps")),
                PolicyRule(("get", "list"), ("pods/log", "events")),
            ]))
        rbac.bind(RoleBinding(
            name=f"deployer-{namespace}", role_name="deployer",
            namespace=namespace,
            subjects=[Subject("ServiceAccount", f"{namespace}:deployer")]))

    # Platform operators: admin in kube-system, read elsewhere, no secrets.
    rbac.add_role(Role(
        name="platform-operator", namespace="kube-system",
        rules=[PolicyRule(("*",), ("pods", "deployments", "services",
                                   "configmaps", "nodes", "networkpolicies"))]))
    rbac.add_role(Role(
        name="cluster-viewer", cluster_wide=True,
        rules=[PolicyRule(("get", "list", "watch"),
                          ("pods", "deployments", "services", "events"))]))
    for operator in OPERATORS:
        rbac.bind(RoleBinding(
            name=f"operator-{operator}", role_name="platform-operator",
            namespace="kube-system", subjects=[Subject("User", operator)]))
        rbac.bind(RoleBinding(
            name=f"viewer-{operator}", role_name="cluster-viewer",
            cluster_wide=True, subjects=[Subject("User", operator)]))
    return rbac


def tighten_cluster(cluster: KubeCluster) -> None:
    """Apply M10 + control-plane hardening to a cluster in place."""
    cluster.api.rbac = genio_least_privilege_rbac()
    config = cluster.api.config
    config.anonymous_auth = False
    config.insecure_port_enabled = False
    config.tls_enabled = True
    config.audit_logging = True
    config.etcd_encryption = True
    config.authorization_mode = "RBAC"
    cluster.api.add_admission_controller(
        "PodSecurity", _restricted_pod_admission)


def _restricted_pod_admission(verb: str, resource: str,
                              obj: object) -> Optional[str]:
    """Admission controller enforcing a restricted profile on tenants."""
    if resource != "pods" or not isinstance(obj, PodSpec):
        return None
    if obj.namespace not in TENANT_NAMESPACES:
        return None
    if obj.security.privileged:
        return "privileged pods are forbidden in tenant namespaces"
    if obj.host_network or obj.host_pid:
        return "host namespaces are forbidden in tenant namespaces"
    if obj.host_path_volumes:
        return "hostPath volumes are forbidden in tenant namespaces"
    if obj.security.added_capabilities:
        return "added capabilities are forbidden in tenant namespaces"
    return None


def harden_sdn_controller(controller: SdnController) -> ApiAccount:
    """Apply M10 to an ONOS-like controller (Lesson 5's 'straightforward'
    case: required capabilities are well-defined)."""
    controller.remove_account("onos")
    account = ApiAccount(username="genio-mgmt",
                         tls_certificate_fp=SDN_MGMT_CERT_FP,
                         capabilities=set(PRODUCTION_REQUIRED))
    controller.add_account(account)
    controller.require_tls()
    for capability in (ApiCapability.SHELL_ACCESS,
                       ApiCapability.LOW_LEVEL_DEBUG,
                       ApiCapability.RAW_LOG_RETRIEVAL):
        controller.block_capability(capability)
    for app in ("org.onosproject.gui2", "org.onosproject.cli"):
        controller.deactivate_app(app)
    return account


def harden_voltha(voltha: VolthaCore) -> VolthaAccount:
    """Restrict VOLTHA management to TLS-certificate admin accounts."""
    account = VolthaAccount("genio-voltha-admin", VOLTHA_ADMIN_CERT_FP,
                            admin=True)
    voltha.add_account(account)
    voltha.enforce_client_certs()
    return account


def harden_proxmox(pve: ProxmoxCluster) -> None:
    """Scope Proxmox ACLs and fix its insecure cluster settings."""
    pve.config.web_ui_tls = True
    pve.config.two_factor_required = True
    pve.config.root_password_login = False
    pve.revoke_all(PVE_ADMIN)
    for node in pve.hypervisors:
        pve.grant(f"/nodes/{node}", PVE_ADMIN, "PVEVMAdmin")
    pve.grant("/vms", PVE_ADMIN, "PVEVMAdmin")
    pve.revoke_all(PVE_AUDITOR)
    pve.grant("/", PVE_AUDITOR, "PVEAuditor")
