"""The Kubernetes-like API server: authn -> authz -> admission -> store.

Carries the configuration flags the kube-bench-like checks audit
(anonymous auth, insecure port, audit logging, etcd encryption, TLS) and
emits ``kube.audit`` events for every request so the runtime-monitoring
experiments can observe control-plane abuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.clock import SimClock
from repro.common.errors import AuthenticationError, AuthorizationError
from repro.common.events import EventBus
from repro.orchestrator.kube.rbac import RbacAuthorizer, Subject

# An admission controller: (verb, resource, obj) -> deny reason or None.
AdmissionController = Callable[[str, str, object], Optional[str]]


@dataclass
class ApiServerConfig:
    """Control-plane settings (the M11/kube-bench audit surface)."""

    anonymous_auth: bool = True          # insecure default
    insecure_port_enabled: bool = True   # :8080 without TLS (legacy default)
    tls_enabled: bool = False
    audit_logging: bool = False
    etcd_encryption: bool = False
    authorization_mode: str = "AlwaysAllow"   # or "RBAC"
    admission_plugins: List[str] = field(default_factory=list)
    version: str = "1.24.0"


@dataclass
class AuditEntry:
    """One control-plane request record."""

    principal: str
    verb: str
    resource: str
    namespace: str
    name: str
    allowed: bool
    reason: str
    timestamp: float


class ApiServer:
    """One cluster's API server."""

    def __init__(
        self,
        config: Optional[ApiServerConfig] = None,
        rbac: Optional[RbacAuthorizer] = None,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config or ApiServerConfig()
        self.rbac = rbac or RbacAuthorizer()
        self.clock = clock or SimClock()
        self.bus = bus or EventBus()
        self._tokens: Dict[str, Subject] = {}
        self._admission: List[Tuple[str, AdmissionController]] = []
        self._store: Dict[Tuple[str, str, str], object] = {}  # (resource, ns, name)
        self.audit_log: List[AuditEntry] = []

    # -- identity ---------------------------------------------------------------

    def register_token(self, token: str, subject: Subject) -> None:
        self._tokens[token] = subject

    def authenticate(self, token: Optional[str]) -> Subject:
        """Resolve a bearer token to a subject.

        With ``anonymous_auth`` on (the insecure default), a missing or
        unknown token degrades to ``system:anonymous`` instead of failing
        — the misconfiguration kube-bench flags and T5 abuses.
        """
        if token is not None and token in self._tokens:
            return self._tokens[token]
        if self.config.anonymous_auth:
            return Subject("User", "system:anonymous")
        raise AuthenticationError("invalid or missing bearer token")

    # -- admission ----------------------------------------------------------------

    def add_admission_controller(self, name: str,
                                 controller: AdmissionController) -> None:
        self._admission.append((name, controller))
        if name not in self.config.admission_plugins:
            self.config.admission_plugins.append(name)

    # -- the request path ------------------------------------------------------------

    def request(self, token: Optional[str], verb: str, resource: str,
                namespace: str = "", name: str = "",
                obj: object = None) -> object:
        """One API request through the full authn/authz/admission chain.

        :raises AuthenticationError: bad token and anonymous auth off.
        :raises AuthorizationError: RBAC denies, or admission rejects.
        """
        try:
            subject = self.authenticate(token)
        except AuthenticationError:
            # Failed authentications are audited too (they are exactly the
            # probes kube-hunter and attackers generate).
            self._audit(Subject("User", "system:anonymous"), verb, resource,
                        namespace, name, allowed=False,
                        reason="authentication failed")
            raise

        if self.config.authorization_mode == "RBAC":
            allowed = self.rbac.authorize(subject, verb, resource, namespace)
        else:
            allowed = True  # AlwaysAllow: the insecure default

        reason = "ok"
        if not allowed:
            reason = "rbac denied"
        elif verb in ("create", "update", "patch"):
            for plugin_name, controller in self._admission:
                deny = controller(verb, resource, obj)
                if deny is not None:
                    allowed, reason = False, f"admission:{plugin_name}: {deny}"
                    break

        self._audit(subject, verb, resource, namespace, name, allowed, reason)
        if not allowed:
            raise AuthorizationError(
                f"{subject.principal} may not {verb} {resource} "
                f"in {namespace or '<cluster>'}: {reason}"
            )
        return self._apply(verb, resource, namespace, name, obj)

    def _apply(self, verb: str, resource: str, namespace: str,
               name: str, obj: object) -> object:
        key = (resource, namespace, name)
        if verb in ("create", "update", "patch"):
            self._store[key] = obj
            return obj
        if verb == "delete":
            return self._store.pop(key, None)
        if verb == "get":
            return self._store.get(key)
        if verb in ("list", "watch"):
            return [o for (res, ns, _), o in self._store.items()
                    if res == resource and (not namespace or ns == namespace)]
        raise ValueError(f"unknown verb {verb!r}")

    def _audit(self, subject: Subject, verb: str, resource: str,
               namespace: str, name: str, allowed: bool, reason: str) -> None:
        entry = AuditEntry(
            principal=subject.principal, verb=verb, resource=resource,
            namespace=namespace, name=name, allowed=allowed, reason=reason,
            timestamp=self.clock.now,
        )
        if self.config.audit_logging:
            self.audit_log.append(entry)
        self.bus.emit("kube.audit", "apiserver", self.clock.now,
                      principal=subject.principal, verb=verb,
                      resource=resource, namespace=namespace,
                      allowed=allowed, reason=reason)
