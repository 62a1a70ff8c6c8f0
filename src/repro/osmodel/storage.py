"""LUKS-style encrypted volumes with passphrase and TPM-bound key slots.

Implements the M6 secure-storage mechanism: a volume master key encrypts
the partition contents; key *slots* wrap the master key under either a
passphrase-derived key (manual entry — Lesson 3's in-field pain point) or
a TPM-sealed secret (the Clevis pattern, releasing the key only when the
measured boot state matches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common import crypto
from repro.common.errors import AuthenticationError, AuthorizationError, NotFoundError
from repro.osmodel.tpm import Tpm


def _derive_from_passphrase(passphrase: str, salt: bytes) -> bytes:
    """PBKDF stand-in: iterated HMAC (few rounds; behaviour, not cost)."""
    key = passphrase.encode()
    for _ in range(16):
        key = crypto.hmac_sha256(salt, key)
    return key


@dataclass
class KeySlot:
    """One LUKS key slot: the master key wrapped under a slot key."""

    slot_type: str               # "passphrase" | "tpm"
    wrapped_master: bytes
    salt: bytes = b""
    tpm_blob_name: str = ""


class LuksVolume:
    """An encrypted partition with up to 8 key slots."""

    MAX_SLOTS = 8

    def __init__(self, name: str, passphrase: str) -> None:
        if not passphrase:
            raise ValueError("initial passphrase must be non-empty")
        self.name = name
        self._master_key = crypto.random_key(length=32)
        self._data: Dict[str, bytes] = {}       # encrypted at rest
        self._slots: List[KeySlot] = []
        self._unlocked_key: Optional[bytes] = None
        self.failed_unlocks = 0
        self.add_passphrase_slot(passphrase)

    # -- slots -------------------------------------------------------------------

    def add_passphrase_slot(self, passphrase: str) -> KeySlot:
        self._check_slot_space()
        salt = crypto.random_key(length=16)
        slot_key = _derive_from_passphrase(passphrase, salt)
        slot = KeySlot(
            slot_type="passphrase",
            wrapped_master=crypto.aead_encrypt(slot_key, self._master_key),
            salt=salt,
        )
        self._slots.append(slot)
        return slot

    def bind_to_tpm(self, tpm: Tpm, pcr_selection: Sequence[int]) -> KeySlot:
        """Clevis-style binding: seal the master key to current PCR state."""
        self._check_slot_space()
        blob_name = f"luks:{self.name}:slot{len(self._slots)}"
        tpm.seal(blob_name, self._master_key, pcr_selection)
        slot = KeySlot(slot_type="tpm", wrapped_master=b"", tpm_blob_name=blob_name)
        self._slots.append(slot)
        return slot

    def _check_slot_space(self) -> None:
        if len(self._slots) >= self.MAX_SLOTS:
            raise ValueError(f"volume {self.name} has no free key slots")

    @property
    def slots(self) -> List[KeySlot]:
        return list(self._slots)

    # -- unlock ---------------------------------------------------------------------

    def unlock_with_passphrase(self, passphrase: str) -> None:
        """Manual unlock (the fallback Lesson 3 forces on ONL nodes)."""
        for slot in self._slots:
            if slot.slot_type != "passphrase":
                continue
            slot_key = _derive_from_passphrase(passphrase, slot.salt)
            try:
                self._unlocked_key = crypto.aead_decrypt(slot_key, slot.wrapped_master)
                return
            except Exception:
                continue
        self.failed_unlocks += 1
        raise AuthenticationError(f"no passphrase slot on {self.name} accepts this passphrase")

    def unlock_with_tpm(self, tpm: Tpm) -> None:
        """Automatic unlock iff the sealed PCR policy is satisfied.

        :raises AuthorizationError: measured boot state differs from the
            state the volume was bound under (tampered boot chain).
        :raises NotFoundError: the volume has no TPM slot (Lesson 3: the
            Clevis stack is unavailable on the old ONL base).
        """
        tpm_slots = [s for s in self._slots if s.slot_type == "tpm"]
        if not tpm_slots:
            raise NotFoundError(f"volume {self.name} has no TPM-bound slot")
        try:
            self._unlocked_key = tpm.unseal(tpm_slots[0].tpm_blob_name)
        except AuthorizationError:
            self.failed_unlocks += 1
            raise

    def lock(self) -> None:
        self._unlocked_key = None

    @property
    def unlocked(self) -> bool:
        return self._unlocked_key is not None

    # -- data -----------------------------------------------------------------------

    def write(self, key: str, plaintext: bytes) -> None:
        self._require_unlocked()
        self._data[key] = crypto.aead_encrypt(self._unlocked_key, plaintext,
                                              associated_data=key.encode())

    def read(self, key: str) -> bytes:
        self._require_unlocked()
        blob = self._data.get(key)
        if blob is None:
            raise NotFoundError(f"no such entry {key!r} on {self.name}")
        return crypto.aead_decrypt(self._unlocked_key, blob,
                                   associated_data=key.encode())

    def raw_ciphertext(self, key: str) -> bytes:
        """What an attacker reading the disk at rest sees."""
        blob = self._data.get(key)
        if blob is None:
            raise NotFoundError(f"no such entry {key!r} on {self.name}")
        return blob

    def _require_unlocked(self) -> None:
        if self._unlocked_key is None:
            raise AuthorizationError(f"volume {self.name} is locked")
