"""Remote attestation: signed TPM quotes verified by the cloud (extends M5).

Measured Boot records PCRs locally; for in-field OLT/ONU nodes the cloud
orchestrator must verify them *remotely*. A node's TPM holds an
attestation key (AIK) whose public half the operator registered at
enrollment; the node answers challenges with a quote — a signature over
(nonce || PCR digest). The verifier checks the signature (anti-spoof), the
nonce (anti-replay), and the PCR digest against the golden values
(integrity). Nodes failing attestation are quarantined from scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common import crypto
from repro.osmodel.host import Host
from repro.security.integrity.secureboot import ATTESTED_PCRS, SecureBootProvisioner


@dataclass
class Quote:
    """One attestation response."""

    host: str
    nonce: bytes
    pcr_digest: bytes
    signature: bytes


@dataclass
class AttestationVerdict:
    """The verifier's decision on one quote."""

    host: str
    trusted: bool
    reason: str


class AttestationAgent:
    """Node-side: holds the AIK and produces quotes."""

    def __init__(self, host: Host, seed: Optional[int] = None) -> None:
        if host.tpm is None:
            raise ValueError(f"{host.hostname} has no TPM; cannot attest")
        self.host = host
        self._aik = crypto.RsaKeyPair.generate(bits=512, seed=seed)

    @property
    def aik_public(self) -> crypto.RsaPublicKey:
        return self._aik.public

    def quote(self, nonce: bytes) -> Quote:
        digest = self.host.tpm.quote(ATTESTED_PCRS)
        return Quote(host=self.host.hostname, nonce=nonce, pcr_digest=digest,
                     signature=self._aik.sign(nonce + digest))


class AttestationVerifier:
    """Cloud-side: challenges nodes and enforces quarantine."""

    def __init__(self, provisioner: SecureBootProvisioner) -> None:
        self.provisioner = provisioner
        self._registered_aiks: Dict[str, crypto.RsaPublicKey] = {}
        self._golden_digests: Dict[str, bytes] = {}
        self._used_nonces: Set[bytes] = set()
        self._nonce_counter = 0
        self.quarantined: Set[str] = set()
        self.verdicts: List[AttestationVerdict] = []

    def register(self, agent: AttestationAgent) -> None:
        """Enroll a node: record its AIK and golden PCR digest."""
        hostname = agent.host.hostname
        golden = self.provisioner.golden_pcrs.get(hostname)
        if golden is None:
            raise ValueError(f"no golden state recorded for {hostname}")
        material = b"".join(value for _, value in sorted(golden.items()))
        self._registered_aiks[hostname] = agent.aik_public
        self._golden_digests[hostname] = crypto.sha256(material)

    def challenge(self) -> bytes:
        """Fresh nonce for one attestation round."""
        self._nonce_counter += 1
        return crypto.sha256(b"attest-nonce" + self._nonce_counter.to_bytes(8, "big"))

    def verify(self, quote: Quote, expected_nonce: bytes) -> AttestationVerdict:
        """Verify one quote; quarantine the node on failure."""
        verdict = self._verify(quote, expected_nonce)
        self.verdicts.append(verdict)
        if verdict.trusted:
            self.quarantined.discard(quote.host)
        else:
            self.quarantined.add(quote.host)
        return verdict

    def _verify(self, quote: Quote, expected_nonce: bytes) -> AttestationVerdict:
        aik = self._registered_aiks.get(quote.host)
        if aik is None:
            return AttestationVerdict(quote.host, False, "unregistered node")
        if quote.nonce != expected_nonce:
            return AttestationVerdict(quote.host, False,
                                      "nonce mismatch (stale or forged quote)")
        if quote.nonce in self._used_nonces:
            return AttestationVerdict(quote.host, False,
                                      "nonce already consumed (replay)")
        if not aik.verify(quote.nonce + quote.pcr_digest, quote.signature):
            return AttestationVerdict(quote.host, False,
                                      "quote signature invalid")
        self._used_nonces.add(quote.nonce)
        if quote.pcr_digest != self._golden_digests.get(quote.host):
            return AttestationVerdict(
                quote.host, False,
                "PCR digest diverges from golden state (tampered boot)")
        return AttestationVerdict(quote.host, True, "platform state verified")

    def is_schedulable(self, hostname: str) -> bool:
        """Scheduling gate: quarantined nodes take no new workloads."""
        return hostname not in self.quarantined
