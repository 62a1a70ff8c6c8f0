"""Static Application Security Testing (M14).

Three engines matching the paper's tool mix:

* **Bandit-style**: real :mod:`ast` analysis of Python sources extracted
  from image layers — hardcoded credentials, ``eval``/``exec``,
  ``subprocess(..., shell=True)``, ``pickle.loads``, weak hashes, SQL
  string-building into ``execute()``, ``yaml.load`` without a safe
  loader, ``os.system`` with dynamic input.
* **Semgrep-style**: line-pattern rules over any source text — disabled
  TLS verification, embedded private keys, plaintext http endpoints,
  AWS-style secrets.
* **SpotBugs-style**: pattern rules for Java sources (command execution,
  weak MessageDigest, SQL concatenation), since GENIO images carry Java
  workloads too.

A Pylint-style quality pass (bare except, mutable default arguments) is
included because the paper uses Pylint for code-quality findings; these
are reported at LOW severity and kept distinct from security findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.virt.image import ContainerImage

_CREDENTIAL_NAMES = re.compile(r"(password|passwd|secret|token|api_?key)",
                               re.IGNORECASE)
_WEAK_HASHES = {"md5", "sha1"}


@dataclass
class SastFinding:
    """One static-analysis finding."""

    rule_id: str
    message: str
    path: str
    line: int
    severity: str = "MEDIUM"
    category: str = "security"    # security | quality


@dataclass
class SastReport:
    """One image (or source tree) analysis."""

    target: str
    findings: List[SastFinding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def security_findings(self) -> List[SastFinding]:
        return [f for f in self.findings if f.category == "security"]

    @property
    def quality_findings(self) -> List[SastFinding]:
        return [f for f in self.findings if f.category == "quality"]

    def rule_ids(self) -> List[str]:
        return sorted({f.rule_id for f in self.findings})


class _PythonVisitor(ast.NodeVisitor):
    """The Bandit-style AST walk."""

    def __init__(self, path: str, report: SastReport) -> None:
        self.path = path
        self.report = report
        # Names assigned a string built by concatenation/formatting —
        # one-step taint tracking so `q = "..." + x; cur.execute(q)` fires.
        self._tainted_names: set = set()

    def _add(self, rule_id: str, message: str, node: ast.AST,
             severity: str = "MEDIUM", category: str = "security") -> None:
        self.report.findings.append(SastFinding(
            rule_id=rule_id, message=message, path=self.path,
            line=getattr(node, "lineno", 0), severity=severity,
            category=category))

    # -- hardcoded credentials (B105/B106) -----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            if node.value.value:
                for target in node.targets:
                    name = getattr(target, "id", getattr(target, "attr", ""))
                    if name and _CREDENTIAL_NAMES.search(name):
                        self._add("B105", f"hardcoded credential in {name!r}",
                                  node, severity="HIGH")
        if _is_tainted_sql(node.value):
            for target in node.targets:
                name = getattr(target, "id", "")
                if name:
                    self._tainted_names.add(name)
        self.generic_visit(node)

    # -- dangerous calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)

        if name in ("eval", "exec"):
            self._add("B307", f"use of {name}() on dynamic input", node,
                      severity="HIGH")
        if name in ("pickle.loads", "pickle.load", "cPickle.loads"):
            self._add("B301", "pickle deserialization of untrusted data",
                      node, severity="HIGH")
        if name in ("marshal.loads",):
            self._add("B302", "marshal deserialization", node, severity="HIGH")
        if name == "yaml.load" and not _has_safe_loader(node):
            self._add("B506", "yaml.load without SafeLoader", node,
                      severity="MEDIUM")
        if name == "os.system":
            if node.args and not _is_literal(node.args[0]):
                self._add("B605", "os.system with dynamic command "
                          "(command injection)", node, severity="HIGH")
        if name.startswith("subprocess.") and _kwarg_true(node, "shell"):
            self._add("B602", "subprocess call with shell=True", node,
                      severity="HIGH")
        if name in ("hashlib.md5", "hashlib.sha1"):
            self._add("B303", f"weak hash {name.split('.')[1]} used", node,
                      severity="MEDIUM")
        if name == "hashlib.new" and node.args:
            algorithm = node.args[0]
            if (isinstance(algorithm, ast.Constant)
                    and str(algorithm.value).lower() in _WEAK_HASHES):
                self._add("B303", f"weak hash {algorithm.value} used", node,
                          severity="MEDIUM")
        if name.endswith(".execute") and node.args:
            arg = node.args[0]
            tainted = _is_tainted_sql(arg) or (
                isinstance(arg, ast.Name) and arg.id in self._tainted_names)
            if tainted:
                self._add("B608", "SQL statement built by string "
                          "concatenation/formatting (SQL injection)", node,
                          severity="HIGH")
        if name == "random.random" or name == "random.randint":
            pass  # quality-only in this profile
        self.generic_visit(node)

    # -- quality (Pylint-style) ------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add("W0702", "bare except clause", node, severity="LOW",
                      category="quality")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for default in node.args.defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._add("W0102", f"mutable default argument in "
                          f"{node.name}()", node, severity="LOW",
                          category="quality")
        self.generic_visit(node)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        parts = [func.attr]
        value = func.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
        return ".".join(reversed(parts))
    return ""


def _is_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant)


def _kwarg_true(node: ast.Call, name: str) -> bool:
    for keyword in node.keywords:
        if keyword.arg == name and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _has_safe_loader(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "Loader":
            loader = keyword.value
            loader_name = getattr(loader, "attr", getattr(loader, "id", ""))
            return "Safe" in str(loader_name)
    return False


def _is_tainted_sql(node: ast.AST) -> bool:
    """String built with +, %, .format() or an f-string with placeholders."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return True
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(value, ast.FormattedValue)
                   for value in node.values)
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name.endswith(".format"):
            return True
    return False


# ---------------------------------------------------------------------------
# Semgrep-style line patterns (language-independent)
# ---------------------------------------------------------------------------

_SEMGREP_RULES: List[Tuple[str, str, re.Pattern, str]] = [
    ("SG-TLS-01", "TLS certificate verification disabled",
     re.compile(r"verify[\"']?\s*[=:]\s*False"), "HIGH"),
    ("SG-KEY-01", "embedded private key material",
     re.compile(r"-----BEGIN (RSA |EC )?PRIVATE KEY-----"), "HIGH"),
    ("SG-HTTP-01", "plaintext http:// endpoint",
     re.compile(r"[\"']http://(?!localhost|127\.0\.0\.1)"), "MEDIUM"),
    ("SG-AWS-01", "AWS-style access key id",
     re.compile(r"AKIA[0-9A-Z]{16}"), "HIGH"),
    ("SG-DEBUG-01", "debug mode enabled in production entrypoint",
     re.compile(r"debug\s*=\s*True"), "MEDIUM"),
]

# SpotBugs-style patterns for Java sources.
_JAVA_RULES: List[Tuple[str, str, re.Pattern, str]] = [
    ("SB-CMD-01", "runtime command execution",
     re.compile(r"Runtime\.getRuntime\(\)\.exec"), "HIGH"),
    ("SB-HASH-01", "weak MessageDigest algorithm",
     re.compile(r"MessageDigest\.getInstance\(\"(MD5|SHA-?1)\"\)"), "MEDIUM"),
    ("SB-SQL-01", "SQL built by string concatenation",
     re.compile(r"(executeQuery|executeUpdate)\([^)]*\+"), "HIGH"),
    ("SB-NULL-01", "possible null dereference after nullable call",
     re.compile(r"\.orElse\(null\)\s*\."), "MEDIUM"),
]


class SastEngine:
    """The combined M14 engine."""

    def scan_source(self, path: str, source: str,
                    report: SastReport) -> None:
        """Analyze one source file into ``report``."""
        report.files_scanned += 1
        if path.endswith(".py"):
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                report.parse_errors.append(f"{path}: {exc.msg}")
            else:
                _PythonVisitor(path, report).visit(tree)
        rules = _JAVA_RULES if path.endswith(".java") else []
        for line_no, line in enumerate(source.splitlines(), start=1):
            for rule_id, message, pattern, severity in _SEMGREP_RULES + rules:
                if pattern.search(line):
                    report.findings.append(SastFinding(
                        rule_id=rule_id, message=message, path=path,
                        line=line_no, severity=severity))

    def scan_image(self, image: ContainerImage) -> SastReport:
        """Crane-style extraction + analysis of every source file."""
        report = SastReport(target=image.reference)
        merged = image.merged_files()
        for path in sorted(merged):
            if path.endswith((".py", ".java", ".sh", ".yaml", ".yml",
                              ".cfg", ".env", ".properties")):
                try:
                    source = merged[path].decode("utf-8")
                except UnicodeDecodeError:
                    continue
                self.scan_source(path, source, report)
        return report
