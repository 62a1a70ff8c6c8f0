"""Software TPM: PCR banks, measurement, sealing.

Models the Trusted Platform Module GENIO uses for Measured Boot (M5),
PCR-bound disk decryption (M6, the Clevis pattern) and protecting the
Tripwire keys (M7). Semantics match a real TPM where the experiments need
them to:

* ``extend`` is one-way: PCR' = SHA-256(PCR || measurement);
* sealed secrets are released only when the selected PCRs hold exactly the
  values captured at seal time;
* PCRs reset only on (simulated) platform reset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common import crypto
from repro.common.errors import AuthorizationError, NotFoundError

_PCR_COUNT = 24
_INITIAL = b"\x00" * 32


@dataclass
class SealedBlob:
    """A secret sealed to a PCR policy."""

    name: str
    ciphertext: bytes
    pcr_selection: Tuple[int, ...]
    policy_digest: bytes


class Tpm:
    """One host's TPM."""

    def __init__(self, serial: str = "tpm-0") -> None:
        self.serial = serial
        self._pcrs: List[bytes] = [_INITIAL] * _PCR_COUNT
        self._storage_root_key = crypto.hmac_sha256(b"srk", serial.encode())
        self._sealed: Dict[str, SealedBlob] = {}
        self.event_log: List[Tuple[int, str, str]] = []  # (pcr, description, digest)

    # -- PCRs -----------------------------------------------------------------

    def read_pcr(self, index: int) -> bytes:
        self._check_index(index)
        return self._pcrs[index]

    def extend(self, index: int, measurement: bytes, description: str = "") -> bytes:
        """Extend a PCR with a measurement; returns the new value."""
        self._check_index(index)
        new_value = crypto.sha256(self._pcrs[index] + measurement)
        self._pcrs[index] = new_value
        self.event_log.append((index, description, crypto.sha256_hex(measurement)))
        return new_value

    def reset(self) -> None:
        """Platform reset: PCRs return to their initial state."""
        self._pcrs = [_INITIAL] * _PCR_COUNT
        self.event_log.clear()

    def quote(self, selection: Sequence[int]) -> bytes:
        """Digest over selected PCRs (the attestation 'quote' payload)."""
        material = b"".join(self.read_pcr(i) for i in sorted(set(selection)))
        return crypto.sha256(material)

    # -- sealing ----------------------------------------------------------------

    def seal(self, name: str, secret: bytes, pcr_selection: Sequence[int]) -> SealedBlob:
        """Seal ``secret`` so it only unseals under the current PCR values."""
        selection = tuple(sorted(set(pcr_selection)))
        policy = self.quote(selection)
        key = crypto.hmac_sha256(self._storage_root_key, policy)
        blob = SealedBlob(
            name=name,
            ciphertext=crypto.aead_encrypt(key, secret, associated_data=name.encode()),
            pcr_selection=selection,
            policy_digest=policy,
        )
        self._sealed[name] = blob
        return blob

    def unseal(self, name: str) -> bytes:
        """Release a sealed secret iff the PCR policy is currently satisfied.

        :raises AuthorizationError: PCR state differs from seal time (the
            platform booted something other than the measured-good chain).
        """
        blob = self._sealed.get(name)
        if blob is None:
            raise NotFoundError(f"no sealed blob named {name!r}")
        current = self.quote(blob.pcr_selection)
        if not crypto.constant_time_equals(current, blob.policy_digest):
            raise AuthorizationError(
                f"PCR policy for {name!r} not satisfied: platform state changed"
            )
        key = crypto.hmac_sha256(self._storage_root_key, current)
        return crypto.aead_decrypt(key, blob.ciphertext,
                                   associated_data=name.encode())

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < _PCR_COUNT:
            raise ValueError(f"PCR index {index} out of range 0..{_PCR_COUNT - 1}")
