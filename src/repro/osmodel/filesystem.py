"""In-memory file tree with POSIX-ish metadata.

Files carry content, mode, owner and an ``immutable`` flag (the chattr +i
analogue). The Tripwire-like FIM baselines file hashes; the SCAP/STIG
engines check modes and ownership; T2 code-tampering attacks rewrite
binaries here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.common import crypto
from repro.common.errors import AuthorizationError, NotFoundError


@dataclass
class FileNode:
    """One file: content plus the metadata security tools care about."""

    path: str
    content: bytes = b""
    mode: int = 0o644
    owner: str = "root"
    group: str = "root"
    immutable: bool = False

    def sha256(self) -> str:
        return crypto.sha256_hex(self.content)

    @property
    def world_writable(self) -> bool:
        return bool(self.mode & 0o002)

    @property
    def setuid(self) -> bool:
        return bool(self.mode & 0o4000)


# Callback fired on every mutation: (operation, path, actor)
FsObserver = Callable[[str, str, str], None]


class FileSystem:
    """A flat path-keyed file store (directories are implicit prefixes)."""

    def __init__(self) -> None:
        self._files: Dict[str, FileNode] = {}
        self._observers: List[FsObserver] = []

    # -- observation ---------------------------------------------------------

    def observe(self, observer: FsObserver) -> None:
        """Register a mutation observer (used by FIM and runtime monitors)."""
        self._observers.append(observer)

    def _notify(self, op: str, path: str, actor: str) -> None:
        for observer in list(self._observers):
            observer(op, path, actor)

    # -- operations ------------------------------------------------------------

    def write(self, path: str, content: bytes, mode: int = 0o644,
              actor: str = "root") -> FileNode:
        """Create or overwrite a file; a new file belongs to root:root.

        :raises AuthorizationError: the file is marked immutable.
        """
        path = _normalize(path)
        existing = self._files.get(path)
        if existing is not None and existing.immutable:
            raise AuthorizationError(f"{path} is immutable")
        if existing is not None:
            existing.content = content
            node = existing
        else:
            node = FileNode(path=path, content=content, mode=mode)
            self._files[path] = node
        self._notify("write", path, actor)
        return node

    def read(self, path: str) -> bytes:
        return self.node(path).content

    def node(self, path: str) -> FileNode:
        path = _normalize(path)
        node = self._files.get(path)
        if node is None:
            raise NotFoundError(f"no such file: {path}")
        return node

    def exists(self, path: str) -> bool:
        return _normalize(path) in self._files

    def delete(self, path: str, actor: str = "root") -> None:
        path = _normalize(path)
        node = self._files.get(path)
        if node is None:
            raise NotFoundError(f"no such file: {path}")
        if node.immutable:
            raise AuthorizationError(f"{path} is immutable")
        del self._files[path]
        self._notify("delete", path, actor)

    def chmod(self, path: str, mode: int, actor: str = "root") -> None:
        self.node(path).mode = mode
        self._notify("chmod", _normalize(path), actor)

    def chown(self, path: str, owner: str, group: Optional[str] = None,
              actor: str = "root") -> None:
        node = self.node(path)
        node.owner = owner
        if group is not None:
            node.group = group
        self._notify("chown", _normalize(path), actor)

    def set_immutable(self, path: str) -> None:
        """Mark a file immutable (chattr +i)."""
        self.node(path).immutable = True

    # -- queries ------------------------------------------------------------------

    def walk(self, prefix: str = "/") -> Iterator[FileNode]:
        """Iterate files under ``prefix`` in sorted path order."""
        prefix = _normalize(prefix)
        for path in sorted(self._files):
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                yield self._files[path]

    def glob_setuid(self) -> List[FileNode]:
        return [n for n in self._files.values() if n.setuid]

    def glob_world_writable(self) -> List[FileNode]:
        return [n for n in self._files.values() if n.world_writable]

    def snapshot_hashes(self, prefix: str = "/") -> Dict[str, str]:
        """path -> sha256 map, the raw material of FIM baselines."""
        return {n.path: n.sha256() for n in self.walk(prefix)}

    def __len__(self) -> int:
        return len(self._files)


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"paths must be absolute, got {path!r}")
    while "//" in path:
        path = path.replace("//", "/")
    return path
