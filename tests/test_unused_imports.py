"""No module under ``src/repro`` imports a name it never uses.

No linter runs in CI, so this walks every module's AST instead. An
imported name counts as used when the module references it as a name,
lists it in ``__all__`` or mentions it in a string annotation. Package
``__init__`` modules are skipped: what they import is what they
re-export.
"""

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

import repro

SRC = pathlib.Path(repro.__file__).parent


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from filter(None, [node.returns])
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _strings(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _names(node: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _used(tree: ast.AST) -> Set[str]:
    used = _names(tree)
    for annotation in _annotations(tree):
        for text in _strings(annotation):
            try:
                used |= _names(ast.parse(text, mode="eval"))
            except SyntaxError:
                pass
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            used.update(_strings(node.value))
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for each imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found.extend((node.lineno, name) for name in bound
                     if name not in used)
    return sorted(found)


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SRC.rglob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) > 100
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path in modules
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_scan_flags_unused_names_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from repro.common import crypto as cr\n"
        "from repro.common import checks\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    checks.require_positive('x', 1)\n")
    assert unused_imports(source) == [(2, "List"), (3, "os"), (4, "cr")]
