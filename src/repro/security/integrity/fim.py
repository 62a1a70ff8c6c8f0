"""Tripwire-style file integrity monitoring (M7).

Baselines cryptographic hashes of monitored paths; subsequent checks
report additions, deletions and modifications. As the paper describes:

* the baseline database is **encrypted and signed**, with the key
  protected by the TPM, so an attacker who tampers with files cannot
  silently re-baseline;
* paths are classified **immutable vs mutable** — Lesson 3's false-alert
  point: alerting on expected churn (logs, spool, tmp) buries real
  signals, so mutable-path changes are reported separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common import crypto
from repro.common.errors import IntegrityError
from repro.osmodel.host import Host

IMMUTABLE_PREFIXES = ("/boot", "/usr/bin", "/usr/sbin", "/etc")
MUTABLE_PREFIXES = ("/var/log", "/tmp", "/var/spool")


@dataclass
class FimFinding:
    """One integrity deviation."""

    path: str
    change: str          # "modified" | "added" | "deleted"
    mutable: bool        # change happened under a mutable prefix
    baseline_hash: str = ""
    current_hash: str = ""


@dataclass
class FimReport:
    """One integrity check run."""

    host: str
    findings: List[FimFinding] = field(default_factory=list)

    @property
    def alerts(self) -> List[FimFinding]:
        """Changes to immutable paths: real alerts."""
        return [f for f in self.findings if not f.mutable]

    @property
    def noise(self) -> List[FimFinding]:
        """Changes to mutable paths: expected churn, not alerts."""
        return [f for f in self.findings if f.mutable]

    @property
    def clean(self) -> bool:
        return not self.alerts


class FileIntegrityMonitor:
    """One host's Tripwire-like monitor."""

    def __init__(self, host: Host, classify_mutable: bool = True) -> None:
        self.host = host
        self.classify_mutable = classify_mutable
        self._db_key: Optional[bytes] = None
        self._db_blob: Optional[bytes] = None
        self._db_signature: Optional[bytes] = None
        self._signing_keypair = crypto.RsaKeyPair.generate(bits=512, seed=0xF13)

    # -- baseline management -----------------------------------------------------

    def _monitored_paths(self) -> Dict[str, str]:
        hashes: Dict[str, str] = {}
        for prefix in IMMUTABLE_PREFIXES + MUTABLE_PREFIXES:
            hashes.update(self.host.fs.snapshot_hashes(prefix))
        return hashes

    def baseline(self) -> int:
        """Capture and seal the baseline; returns the number of files."""
        hashes = self._monitored_paths()
        serialized = json.dumps(hashes, sort_keys=True).encode()
        self._db_key = crypto.random_key(length=32)
        self._db_blob = crypto.aead_encrypt(self._db_key, serialized)
        self._db_signature = self._signing_keypair.sign(self._db_blob)
        if self.host.tpm is not None:
            self.host.tpm.seal(f"fim:{self.host.hostname}", self._db_key,
                               pcr_selection=(0,))
        return len(hashes)

    def _load_baseline(self) -> Dict[str, str]:
        if self._db_blob is None or self._db_key is None:
            raise IntegrityError("no baseline recorded")
        if not self._signing_keypair.public.verify(self._db_blob,
                                                   self._db_signature or b""):
            raise IntegrityError("FIM database signature invalid: tampered DB")
        serialized = crypto.aead_decrypt(self._db_key, self._db_blob)
        return json.loads(serialized)

    def tamper_with_database(self) -> None:
        """Attacker-side helper: corrupt the sealed DB (tests/experiments)."""
        if self._db_blob is not None:
            blob = bytearray(self._db_blob)
            blob[len(blob) // 2] ^= 0xFF
            self._db_blob = bytes(blob)

    # -- checking ----------------------------------------------------------------------

    def check(self) -> FimReport:
        """Compare current state to the sealed baseline.

        :raises IntegrityError: the baseline DB itself fails verification.
        """
        baseline = self._load_baseline()
        current = self._monitored_paths()
        report = FimReport(host=self.host.hostname)

        for path, old_hash in baseline.items():
            new_hash = current.get(path)
            if new_hash is None:
                report.findings.append(FimFinding(
                    path=path, change="deleted",
                    mutable=self._is_mutable(path), baseline_hash=old_hash))
            elif new_hash != old_hash:
                report.findings.append(FimFinding(
                    path=path, change="modified",
                    mutable=self._is_mutable(path),
                    baseline_hash=old_hash, current_hash=new_hash))
        for path, new_hash in current.items():
            if path not in baseline:
                report.findings.append(FimFinding(
                    path=path, change="added",
                    mutable=self._is_mutable(path), current_hash=new_hash))
        return report

    def _is_mutable(self, path: str) -> bool:
        if not self.classify_mutable:
            return False
        return any(path.startswith(prefix) for prefix in MUTABLE_PREFIXES)
