"""Dynamic Application Security Testing (M15).

* :class:`RestService` — a runnable REST application described by an
  OpenAPI-style spec; endpoint behaviours (including seeded bugs) are
  what the fuzzer exercises.
* :class:`CatsFuzzer` — CATS-style: for every operation and parameter it
  injects malformed, unexpected and malicious inputs (empty, oversized,
  SQL metacharacters, script tags, wrong types, missing auth) and
  classifies responses: 5xx with a stack trace, acceptance of an
  unauthenticated privileged call, or reflected script content become
  findings. As Lesson 7 notes, this only works for workloads exposing
  standard REST interfaces — :meth:`CatsFuzzer.fuzz_image` reports
  non-REST images as unfuzzable.
* :class:`NmapScanner` — port/TLS audit of a deployed host's listeners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.osmodel.host import Host
from repro.virt.image import ContainerImage


@dataclass
class Response:
    """One HTTP-ish response."""

    status: int
    body: str = ""

    @property
    def server_error(self) -> bool:
        return self.status >= 500


# A handler takes (params, authenticated) and returns a Response.
Handler = Callable[[Dict[str, str], bool], Response]


@dataclass
class Operation:
    """One OpenAPI operation."""

    method: str
    path: str
    params: Tuple[str, ...]
    requires_auth: bool
    handler: Handler


class RestService:
    """A running REST application instance."""

    def __init__(self, name: str, spec: Optional[dict] = None) -> None:
        self.name = name
        self.operations: List[Operation] = []
        if spec:
            self._load_spec(spec)

    def add_operation(self, operation: Operation) -> None:
        self.operations.append(operation)

    def _load_spec(self, spec: dict) -> None:
        """Instantiate operations (with seeded bugs) from an OpenAPI-ish
        spec. The spec's ``x-vuln`` extension names the seeded defect so
        workload builders can construct realistically buggy services."""
        for path, methods in spec.get("paths", {}).items():
            for method, op in methods.items():
                params = tuple(p["name"] for p in op.get("parameters", []))
                requires_auth = bool(op.get("security"))
                vuln = op.get("x-vuln", "")
                self.add_operation(Operation(
                    method=method.upper(), path=path, params=params,
                    requires_auth=requires_auth,
                    handler=_make_handler(vuln, requires_auth)))

    def call(self, method: str, path: str, params: Dict[str, str],
             authenticated: bool = True) -> Response:
        for operation in self.operations:
            if operation.method == method.upper() and operation.path == path:
                if operation.requires_auth and not authenticated:
                    # A *correct* service rejects; buggy handlers may not —
                    # the handler gets the final say so no-auth bugs exist.
                    return operation.handler(params, False)
                return operation.handler(params, True)
        return Response(404, "not found")


def _make_handler(vuln: str, requires_auth: bool) -> Handler:
    """Build a handler exhibiting the named seeded defect (or none)."""

    def handler(params: Dict[str, str], authenticated: bool) -> Response:
        if requires_auth and not authenticated:
            if vuln == "missing-auth-check":
                return Response(200, "admin action performed")   # the bug
            return Response(401, "authentication required")
        values = "".join(params.values())
        if vuln == "sqli" and ("'" in values or "--" in values):
            return Response(500, "Traceback: sqlite3.OperationalError: "
                                 "near \"'\": syntax error")
        if vuln == "xss" and "<script>" in values:
            return Response(200, f"<html>{values}</html>")       # reflected
        if vuln == "type-confusion":
            for value in params.values():
                if value and not value.lstrip("-").isdigit():
                    return Response(500, "Traceback: ValueError: invalid "
                                         "literal for int()")
        if vuln == "overflow" and any(len(v) > 4096 for v in params.values()):
            return Response(500, "Traceback: MemoryError")
        return Response(200, "ok")

    return handler


@dataclass
class FuzzFinding:
    """One fuzzer-confirmed runtime defect."""

    operation: str
    parameter: str
    payload_family: str
    evidence: str
    kind: str        # "server-error" | "auth-bypass" | "reflected-content"


@dataclass
class FuzzReport:
    """One fuzzing campaign."""

    service: str
    findings: List[FuzzFinding] = field(default_factory=list)
    requests_sent: int = 0
    fuzzable: bool = True
    note: str = ""


_PAYLOADS: List[Tuple[str, str]] = [
    ("empty", ""),
    ("oversized", "A" * 8192),
    ("sql-meta", "1' OR '1'='1' --"),
    ("script-tag", "<script>alert(1)</script>"),
    ("negative", "-1"),
    ("non-numeric", "not-a-number"),
    ("null-ish", "null"),
    ("unicode-abuse", "\u202e\ufeff\x00"),
]


class CatsFuzzer:
    """The CATS-style REST fuzzer."""

    def fuzz(self, service: RestService) -> FuzzReport:
        report = FuzzReport(service=service.name)
        for operation in service.operations:
            op_name = f"{operation.method} {operation.path}"
            # Auth-enforcement probe: call privileged ops unauthenticated.
            if operation.requires_auth:
                response = service.call(operation.method, operation.path,
                                        {p: "1" for p in operation.params},
                                        authenticated=False)
                report.requests_sent += 1
                if response.status == 200:
                    report.findings.append(FuzzFinding(
                        operation=op_name, parameter="<auth>",
                        payload_family="missing-token",
                        evidence=response.body, kind="auth-bypass"))
            # Input fuzzing per parameter.
            for parameter in operation.params:
                for family, payload in _PAYLOADS:
                    params = {p: "1" for p in operation.params}
                    params[parameter] = payload
                    response = service.call(operation.method, operation.path,
                                            params, authenticated=True)
                    report.requests_sent += 1
                    if response.server_error and "Traceback" in response.body:
                        report.findings.append(FuzzFinding(
                            operation=op_name, parameter=parameter,
                            payload_family=family,
                            evidence=response.body.splitlines()[0],
                            kind="server-error"))
                    elif payload and payload in response.body and "<script>" in payload:
                        report.findings.append(FuzzFinding(
                            operation=op_name, parameter=parameter,
                            payload_family=family,
                            evidence="payload reflected unescaped",
                            kind="reflected-content"))
        return report

    def fuzz_image(self, image: ContainerImage) -> FuzzReport:
        """Fuzz an image's REST surface, if it declares one.

        Lesson 7: fuzzing is feasible only for applications exposing
        standard interfaces; images without an OpenAPI spec are reported
        unfuzzable rather than silently skipped.
        """
        if not image.openapi_spec:
            return FuzzReport(service=image.reference, fuzzable=False,
                              note="no OpenAPI description: not fuzzable")
        service = RestService(image.reference, spec=image.openapi_spec)
        return self.fuzz(service)


# ---------------------------------------------------------------------------
# Nmap-style network audit
# ---------------------------------------------------------------------------

@dataclass
class PortFinding:
    """One port-audit observation."""

    port: int
    service: str
    tls: bool
    expected: bool


@dataclass
class PortScanReport:
    host: str
    findings: List[PortFinding] = field(default_factory=list)

    @property
    def unexpected_open(self) -> List[PortFinding]:
        return [f for f in self.findings if not f.expected]


class NmapScanner:
    """Port enumeration + TLS enforcement check against a host."""

    def __init__(self, allowed_ports: Sequence[int] = (22, 443, 6443)) -> None:
        self.allowed_ports = set(allowed_ports)

    def scan(self, host: Host) -> PortScanReport:
        report = PortScanReport(host=host.hostname)
        for port, service in sorted(host.services.listening_ports().items()):
            report.findings.append(PortFinding(
                port=port, service=service.name, tls=service.tls,
                expected=port in self.allowed_ports))
        return report
