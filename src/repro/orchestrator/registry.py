"""The GENIO public container-image registry.

Business users publish edge applications here (Section II, "Use cases").
Images can come from GENIO's own build pipeline or be *reused from
external repositories* — the T8 supply-chain vector. The registry
supports optional image signing (content trust); pull policy on nodes can
require a valid signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common import crypto
from repro.common.errors import IntegrityError, NotFoundError
from repro.virt.image import ContainerImage

# GENIO's public registry host.
REGISTRY_NAME = "registry.genio.example"


@dataclass
class RegistryEntry:
    """One published image plus its provenance and optional signature."""

    image: ContainerImage
    publisher: str
    digest: str
    signature: bytes = b""
    signer_fingerprint: str = ""
    pulls: int = 0


class ImageRegistry:
    """A content-addressed image store with optional content trust."""

    def __init__(self, signing_keypair: Optional[crypto.RsaKeyPair] = None) -> None:
        self._signing_keypair = signing_keypair
        self._entries: Dict[str, RegistryEntry] = {}

    def publish(self, image: ContainerImage, publisher: str,
                sign: bool = False) -> RegistryEntry:
        """Publish an image; ``sign=True`` attaches a registry signature."""
        digest = image.digest()
        entry = RegistryEntry(image=image, publisher=publisher, digest=digest)
        if sign:
            if self._signing_keypair is None:
                raise ValueError(f"registry {REGISTRY_NAME} has no signing key")
            entry.signature = self._signing_keypair.sign(digest.encode())
            entry.signer_fingerprint = self._signing_keypair.public.fingerprint()
        self._entries[image.reference] = entry
        return entry

    def pull(self, reference: str, require_signature: bool = False,
             trusted_keys: Optional[List[crypto.RsaPublicKey]] = None) -> ContainerImage:
        """Pull an image, optionally enforcing content trust.

        :raises IntegrityError: signature required but missing/invalid, or
            the stored image no longer matches its published digest.
        """
        entry = self._entries.get(reference)
        if entry is None:
            raise NotFoundError(f"{reference} not in registry {REGISTRY_NAME}")
        current_digest = entry.image.digest()
        if current_digest != entry.digest:
            raise IntegrityError(
                f"{reference}: stored image diverged from published digest"
            )
        if require_signature:
            keys = trusted_keys or []
            if not entry.signature:
                raise IntegrityError(f"{reference} is unsigned")
            if not any(k.verify(entry.digest.encode(), entry.signature)
                       for k in keys):
                raise IntegrityError(
                    f"{reference}: signature does not verify against trusted keys"
                )
        entry.pulls += 1
        return entry.image

    def entries(self) -> List[RegistryEntry]:
        return list(self._entries.values())

    def catalog(self) -> List[str]:
        return sorted(self._entries)

    def tamper(self, reference: str, path: str, content: bytes) -> None:
        """Simulate a supply-chain compromise: modify a stored layer."""
        entry = self._entries.get(reference)
        if entry is None:
            raise NotFoundError(f"{reference} not in registry {REGISTRY_NAME}")
        if not entry.image.layers:
            entry.image.add_layer({})
        entry.image.layers[-1].files[path] = content
