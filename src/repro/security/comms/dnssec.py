"""Secure DNS (RFC 4033-style) for onboarding endpoints (part of M4).

During onboarding, devices resolve the addresses of registration and
orchestration endpoints. Unsigned DNS lets an on-path attacker redirect
a device to a rogue endpoint; a signed zone makes the forgery detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common import crypto
from repro.common.errors import IntegrityError, NotFoundError


@dataclass(frozen=True)
class SignedRecord:
    """One A-record plus its RRSIG-like signature."""

    name: str
    address: str
    signature: bytes

    def canonical_bytes(self) -> bytes:
        return f"{self.name}={self.address}".encode()


class SignedZone:
    """A DNSSEC-like zone: records signed by the zone key."""

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self._keypair = crypto.RsaKeyPair.generate(bits=512, seed=0xD25)
        self._records: Dict[str, SignedRecord] = {}

    @property
    def public_key(self) -> crypto.RsaPublicKey:
        """The zone's DNSKEY, distributed as the validator trust anchor."""
        return self._keypair.public

    def add(self, name: str, address: str) -> SignedRecord:
        unsigned = SignedRecord(name=name, address=address, signature=b"")
        record = SignedRecord(
            name=name, address=address,
            signature=self._keypair.sign(unsigned.canonical_bytes()),
        )
        self._records[name] = record
        return record

    def lookup(self, name: str) -> SignedRecord:
        record = self._records.get(name)
        if record is None:
            raise NotFoundError(f"{name} not in zone {self.origin}")
        return record

    def spoof(self, name: str, address: str) -> None:
        """Simulate an on-path forgery: replace a record, keep its old RRSIG."""
        current = self.lookup(name)
        self._records[name] = SignedRecord(
            name=name, address=address, signature=current.signature)


def validate_record(record: SignedRecord,
                    trust_anchor: crypto.RsaPublicKey) -> str:
    """Validate a record against the zone trust anchor.

    Returns the address on success.

    :raises IntegrityError: signature does not cover the presented data.
    """
    if not trust_anchor.verify(record.canonical_bytes(), record.signature):
        raise IntegrityError(
            f"DNSSEC validation failed for {record.name}: forged record"
        )
    return record.address
