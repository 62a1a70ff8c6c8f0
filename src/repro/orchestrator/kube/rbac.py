"""Role-Based Access Control, Kubernetes-style.

T5 in the paper is exactly this surface: over-privileged roles and
insecure-default bindings enable privilege escalation and lateral
movement. The M10 mitigation replaces wildcard grants with
least-privilege roles; the E9 experiment quantifies the before/after
privilege surface using :meth:`RbacAuthorizer.privilege_surface`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

VERBS = ("get", "list", "watch", "create", "update", "patch", "delete", "escalate")
RESOURCES = ("pods", "pods/exec", "pods/log", "deployments", "secrets",
             "configmaps", "nodes", "services", "networkpolicies",
             "roles", "rolebindings", "serviceaccounts", "events")

# The GENIO tenants' namespaces and the platform operators' user names:
# the deployment creates these, and the RBAC defaults and the M10/M11
# hardening and checks name them.
TENANT_NAMESPACES = ("tenant-a", "tenant-b")
OPERATORS = ("ops-alice", "ops-bob")

# (verb, resource) pairs that enable further escalation if granted broadly.
ESCALATION_SENSITIVE: Set[Tuple[str, str]] = {
    ("create", "pods/exec"), ("get", "secrets"), ("list", "secrets"),
    ("create", "rolebindings"), ("update", "roles"), ("escalate", "roles"),
    ("create", "pods"), ("update", "deployments"), ("delete", "nodes"),
}


@dataclass(frozen=True)
class PolicyRule:
    """verbs x resources, with '*' wildcards."""

    verbs: Tuple[str, ...]
    resources: Tuple[str, ...]

    def matches(self, verb: str, resource: str) -> bool:
        verb_ok = "*" in self.verbs or verb in self.verbs
        res_ok = "*" in self.resources or resource in self.resources
        return verb_ok and res_ok

    def expanded(self) -> Set[Tuple[str, str]]:
        """Concrete (verb, resource) pairs this rule grants."""
        verbs = VERBS if "*" in self.verbs else self.verbs
        resources = RESOURCES if "*" in self.resources else self.resources
        return {(v, r) for v in verbs for r in resources}


@dataclass
class Role:
    """Namespaced role; ``cluster_wide=True`` makes it a ClusterRole."""

    name: str
    rules: List[PolicyRule] = field(default_factory=list)
    namespace: str = ""
    cluster_wide: bool = False

    def allows(self, verb: str, resource: str) -> bool:
        return any(rule.matches(verb, resource) for rule in self.rules)

    def granted_pairs(self) -> Set[Tuple[str, str]]:
        pairs: Set[Tuple[str, str]] = set()
        for rule in self.rules:
            pairs |= rule.expanded()
        return pairs


@dataclass(frozen=True)
class Subject:
    """A user, group, or service account."""

    kind: str   # "User" | "Group" | "ServiceAccount"
    name: str

    @property
    def principal(self) -> str:
        return f"{self.kind}:{self.name}"


@dataclass
class RoleBinding:
    """Binds subjects to a role, in a namespace or cluster-wide."""

    name: str
    role_name: str
    subjects: List[Subject] = field(default_factory=list)
    namespace: str = ""
    cluster_wide: bool = False


class RbacAuthorizer:
    """The cluster's RBAC state and decision point."""

    def __init__(self) -> None:
        self.roles: Dict[Tuple[str, str], Role] = {}       # (namespace|"", name)
        self.bindings: List[RoleBinding] = []

    # -- management --------------------------------------------------------------

    def add_role(self, role: Role) -> None:
        key = ("" if role.cluster_wide else role.namespace, role.name)
        self.roles[key] = role

    def bind(self, binding: RoleBinding) -> None:
        self.bindings.append(binding)

    def remove_binding(self, name: str) -> None:
        self.bindings = [b for b in self.bindings if b.name != name]

    # -- decisions ------------------------------------------------------------------

    def authorize(self, subject: Subject, verb: str, resource: str,
                  namespace: str = "") -> bool:
        """The SubjectAccessReview decision."""
        allowed = False
        for binding in self.bindings:
            if not self._binding_covers(binding, subject, namespace):
                continue
            role = self._resolve_role(binding)
            if role is not None and role.allows(verb, resource):
                allowed = True
                break
        return allowed

    def _binding_covers(self, binding: RoleBinding, subject: Subject,
                        namespace: str) -> bool:
        if not binding.cluster_wide and binding.namespace != namespace:
            return False
        for bound in binding.subjects:
            if bound == subject:
                return True
            if bound.kind == "Group" and subject.kind in ("User", "ServiceAccount"):
                # Group membership is carried in the subject name set by authn;
                # the API server expands groups before calling authorize().
                continue
        return False

    def _resolve_role(self, binding: RoleBinding) -> Optional[Role]:
        role = self.roles.get(("", binding.role_name))
        if role is None and binding.namespace:
            role = self.roles.get((binding.namespace, binding.role_name))
        return role

    # -- analysis (E9 metric) -----------------------------------------------------------

    def privilege_surface(self, subject: Subject,
                          namespaces: Iterable[str]) -> Set[Tuple[str, str, str]]:
        """Every (namespace, verb, resource) the subject may perform."""
        surface: Set[Tuple[str, str, str]] = set()
        for namespace in namespaces:
            for binding in self.bindings:
                if not self._binding_covers(binding, subject, namespace):
                    continue
                role = self._resolve_role(binding)
                if role is None:
                    continue
                for verb, resource in role.granted_pairs():
                    surface.add((namespace, verb, resource))
        return surface

    def escalation_risks(self, subject: Subject,
                         namespaces: Iterable[str]) -> Set[Tuple[str, str, str]]:
        """The escalation-sensitive subset of the privilege surface."""
        return {
            (ns, verb, resource)
            for ns, verb, resource in self.privilege_surface(subject, namespaces)
            if (verb, resource) in ESCALATION_SENSITIVE
        }


def permissive_default_rbac() -> RbacAuthorizer:
    """The 'insecure defaults' starting point (paper refs [24][25]).

    One wildcard admin role bound to every operator and to tenant service
    accounts — usability first, exactly what M10 dismantles.
    """
    rbac = RbacAuthorizer()
    rbac.add_role(Role(name="platform-admin",
                       rules=[PolicyRule(verbs=("*",), resources=("*",))],
                       cluster_wide=True))
    rbac.bind(RoleBinding(
        name="everyone-is-admin",
        role_name="platform-admin",
        cluster_wide=True,
        subjects=(
            [Subject("User", operator) for operator in OPERATORS]
            + [Subject("ServiceAccount", f"{namespace}:{account}")
               for account in ("default", "deployer")
               for namespace in TENANT_NAMESPACES]
            + [Subject("ServiceAccount", "kube-system:deployer")]),
    ))
    return rbac
