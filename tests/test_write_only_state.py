"""No object under ``src/repro`` keeps a record that nothing reads.

An attribute assigned as ``self.X`` in ``src/repro`` must be loaded
somewhere in ``src/repro``, ``examples``, ``benchmarks``, ``perfbench``
or ``tests``. Growing it does not count as reading it: a load whose only
use is as the receiver of ``append``, ``extend``, ``appendleft`` or
``add`` is a write. A string constant with the attribute's text counts
as a read, so ``getattr(obj, "name")`` and a report's field list keep
their names. A per-operation log that nothing reads grows with
simulated time for no one: the bus event is the audit trail.

Each operation below once appended a record to such a log, so a long
run retained memory in proportion to its operations; they now retain
nothing once the bus's bounded history is full.
"""

import ast
import pathlib
import tracemalloc
from typing import Dict, Iterator, List, Set, Tuple

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent
READERS = [SRC] + [ROOT / name
                   for name in ("examples", "benchmarks", "perfbench", "tests")]
WRITERS = {"append", "extend", "appendleft", "add"}


def _parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def reads(source: str) -> Set[str]:
    """Attribute names ``source`` loads other than to grow them, plus
    every string constant in it."""
    tree = ast.parse(source)
    parents = _parents(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            parent = parents.get(node)
            if not (isinstance(parent, ast.Attribute) and parent.value is node
                    and parent.attr in WRITERS):
                found.add(node.attr)
    return found


def _targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            yield target


def self_attributes(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for each ``self.name`` that ``source`` assigns."""
    return sorted(
        (target.lineno, target.attr)
        for node in ast.walk(ast.parse(source))
        for target in _targets(node)
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name) and target.value.id == "self")


def _python_files() -> Iterator[pathlib.Path]:
    for root in READERS:
        yield from sorted(root.rglob("*.py"))


def test_every_assigned_attribute_has_a_reader():
    read: Set[str] = set()
    for path in _python_files():
        read |= reads(path.read_text())
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 100
    unread = sorted(
        f"{path.relative_to(SRC.parent)}:{line} self.{name}"
        for path in modules
        for line, name in self_attributes(path.read_text())
        if name not in read)
    assert unread == []


def test_the_scan_tells_reads_from_writes():
    source = (
        "class Log:\n"
        "    def __init__(self):\n"
        "        self.entries = []\n"
        "        self.seen = set()\n"
        "        self.count = 0\n"
        "        self.kept, self.named = [], 0\n"
        "    def record(self, item):\n"
        "        self.entries.append(item)\n"
        "        self.seen.add(item)\n"
        "        self.count += 1\n"
        "        return len(self.kept), getattr(self, 'named')\n")
    assert [name for _, name in self_attributes(source)] == [
        "entries", "seen", "count", "kept", "named", "count"]
    read = reads(source)
    assert {"kept", "named"} <= read
    assert not {"entries", "seen", "count"} & read


# -- what the removed logs cost ------------------------------------------------


def _syscall():
    from repro.common.events import EventBus
    from repro.virt.image import ContainerImage
    from repro.virt.container import ContainerSpec
    from repro.virt.runtime import ContainerRuntime
    runtime = ContainerRuntime("node", bus=EventBus(history_limit=64))
    container = runtime.run(ContainerSpec(ContainerImage("app", "1.0")))
    return lambda: runtime.syscall(container.id, "openat", path="/tmp/x")


def _rbac():
    from repro.orchestrator.kube.rbac import RbacAuthorizer, Subject
    authorizer = RbacAuthorizer()
    subject = Subject("User", "alice")
    return lambda: authorizer.authorize(subject, "get", "pods", "tenant-a")


def _proxmox():
    from repro.orchestrator.proxmox import ProxmoxCluster
    cluster = ProxmoxCluster()
    return lambda: cluster.check("alice@pve", "/vms/100", "VM.Console")


def _sdn():
    from repro.sdn.controller import ApiCapability, SdnController
    controller = SdnController()
    return lambda: controller.call("onos", ApiCapability.NETWORK_CONFIG,
                                   password="rocks")


@pytest.mark.parametrize("build", [_syscall, _rbac, _proxmox, _sdn],
                         ids=["syscall", "rbac", "proxmox", "sdn"])
def test_repeated_operations_retain_nothing(build):
    operation = build()
    for _ in range(200):
        operation()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(5_000):
            operation()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    # One retained record per call is 290 kB or more here; the bus's
    # 64-event history is all the syscall case may keep.
    assert grown < 64 * 1024
