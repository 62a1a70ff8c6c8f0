"""Each metric family is registered at exactly one call site.

A family registered in two places is two instruments for one
measurement: two help texts, two share formulas, two places to change.
This walks every module under ``src/repro`` with ``ast`` and collects
each ``.counter(``, ``.gauge(`` and ``.histogram(`` call whose name is a
string literal or a module constant (followed through ``from ... import``
to the module that defines it), then fails on any name registered at
more than one call site.
"""

import ast
import pathlib
from typing import Dict, List, Optional, Tuple

import repro

SRC = pathlib.Path(repro.__file__).parent

_REGISTER = {"counter", "gauge", "histogram"}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse_all() -> Dict[str, Tuple[pathlib.Path, ast.Module]]:
    return {_module_name(path): (path, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.rglob("*.py"))}


def _constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    out: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and isinstance(value, ast.Constant) \
                and isinstance(value.value, str):
            out[target.id] = value.value
    return out


def _imports(path: pathlib.Path, module: str,
             tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    """``alias -> (source module, name)`` for every ``from ... import``."""
    package = module if path.name == "__init__.py" \
        else module.rsplit(".", 1)[0]
    out: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level:
            base = package.split(".")
            base = base[:len(base) - (node.level - 1)]
            source = ".".join(base + ([source] if source else []))
        for alias in node.names:
            out[alias.asname or alias.name] = (source, alias.name)
    return out


def registrations() -> List[Tuple[Optional[str], str]]:
    """``(family name, path:line)`` of every registering call; the name
    is None when it is neither a literal nor a module constant."""
    modules = _parse_all()
    constants = {name: _constants(tree) for name, (_, tree) in modules.items()}
    imports = {name: _imports(path, name, tree)
               for name, (path, tree) in modules.items()}

    def resolve(module: str, name: str, depth: int = 0) -> Optional[str]:
        if depth > 10 or module not in modules:
            return None
        if name in constants[module]:
            return constants[module][name]
        if name in imports[module]:
            source, original = imports[module][name]
            return resolve(source, original, depth + 1)
        return None

    out: List[Tuple[Optional[str], str]] = []
    for module, (path, tree) in modules.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _REGISTER and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                family = first.value
            elif isinstance(first, ast.Name):
                family = resolve(module, first.id)
            else:
                family = None
            out.append((family, f"{path.relative_to(SRC.parent)}:{node.lineno}"))
    return out


def registration_sites() -> Dict[str, List[str]]:
    """Family name -> the ``path:line`` of every call registering it."""
    sites: Dict[str, List[str]] = {}
    for family, where in registrations():
        if family is not None:
            sites.setdefault(family, []).append(where)
    return sites


def test_the_walk_sees_the_registrations():
    sites = registration_sites()
    # A literal, and a constant imported from the module that defines it.
    assert "pon_frames_total" in sites
    assert "traffic_tenant_offered_share" in sites
    assert len(sites) >= 20


def test_every_registration_names_its_family_statically():
    assert [where for family, where in registrations() if family is None] == []


def test_each_metric_family_is_registered_once():
    repeated = {family: where for family, where in
                registration_sites().items() if len(where) > 1}
    assert repeated == {}
