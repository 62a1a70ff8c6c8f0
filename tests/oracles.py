"""Reference implementations the shipped fast paths must match.

Each oracle is the straightforward computation a shipped fast path
replaced, kept here as an independent reference rather than inside the
package, where it could be selected as a production mode:

* :func:`reference_grants` / :func:`grant` — the per-policy DBA
  allocator: for ``fair`` a guaranteed round, then a progressive fill
  per priority tier by registration weight; for ``proportional`` one
  progressive fill weighted by pending bytes. The shipped
  ``DbaScheduler.grant`` runs both policies through one cached
  flat-array loop;
* :func:`run_cycle` — an allocator cycle: :func:`grant`, then a drain
  of each granted T-CONT, against ``DbaScheduler.run_cycle`` (which
  ``DownstreamScheduler.run_cycle`` runs on its bounded queues);
* :func:`admit` — per-request admission through
  ``QosEnforcer.submit``, against the run-based ``QosEnforcer.admit``;
* :func:`is_probable_prime`, :func:`random_prime`, :func:`generate_key`
  and :func:`sign` — textbook Miller-Rabin key generation and signing
  by ``d`` modulo ``n``, against ``repro.common.crypto``'s sieved,
  memoized and CRT paths;
* :func:`keystream`, :func:`aead_encrypt` and :func:`aead_decrypt` —
  the byte-by-byte AEAD stand-in, against the shipped one;
* :data:`DEFAULT_RULE_CONDITIONS` — the eight default Falco rule
  conditions as Python predicates, against the condition specs
  ``repro.security.monitor.falco.default_rules`` interprets.

:func:`assert_matches_oracle` is the differential harness: it drives two
identically built subjects, one through the shipped method and one
through the oracle, and asserts equal return values, equal state after
every call and equal bus histories. The E19, E20, E21 and E23
benchmarks time their "before" rows with these oracles.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.common.errors import IntegrityError
from repro.common.events import Event, EventBus
from repro.traffic.dba import (
    GUARANTEED_SHARE, DbaScheduler, DrainResult, TCont,
)
from repro.traffic.downstream import DownstreamScheduler
from repro.traffic.profiles import Request
from repro.traffic.qos import QosEnforcer

__all__ = [
    "DEFAULT_RULE_CONDITIONS", "admit", "aead_decrypt", "aead_encrypt",
    "assert_matches_oracle", "dba_state", "downstream_state", "generate_key", "grant",
    "is_probable_prime", "keystream", "qos_state", "random_prime",
    "reference_grants", "run_cycle", "sign",
]


# ---------------------------------------------------------------------------
# DBA: the per-policy reference allocator
# ---------------------------------------------------------------------------


def reference_grants(scheduler: DbaScheduler, capacity_bytes: int
                     ) -> Tuple[List[TCont], Dict[int, int], int]:
    """One cycle's allocation over ``scheduler``'s T-CONTs, side-effect free.

    Returns ``(backlogged, grants, remaining)``: the backlogged T-CONTs
    in alloc-id order, their grant map and the capacity left over.
    """
    backlogged = [t for t in scheduler.tconts() if t.queued_bytes > 0]
    grants = {t.alloc_id: 0 for t in backlogged}
    remaining = capacity_bytes
    if backlogged and remaining > 0:
        if scheduler.policy == "fair":
            remaining = _grant_guaranteed(backlogged, grants,
                                          capacity_bytes, remaining)
            remaining = _grant_priority_tiers(backlogged, grants, remaining)
        else:
            remaining = _fill(
                backlogged, grants, remaining,
                lambda t: float(t.queued_bytes - grants[t.alloc_id]))
    return backlogged, grants, remaining


def grant(scheduler: DbaScheduler, capacity_bytes: int,
          now: float = 0.0) -> Dict[int, int]:
    """The reference ``DbaScheduler.grant``: allocate, count the cycle and
    publish its ``pon.dba.grant`` event."""
    if capacity_bytes < 0:
        raise ValueError("capacity must be non-negative")
    backlogged, grants, remaining = reference_grants(scheduler,
                                                     capacity_bytes)
    scheduler.cycles_run += 1
    if scheduler._bus is not None:
        granted_total = capacity_bytes - remaining
        scheduler._bus.emit(
            "pon.dba.grant", scheduler.name, now,
            cycle=scheduler.cycles_run, capacity_bytes=capacity_bytes,
            granted_bytes=granted_total,
            backlog_bytes=scheduler.total_backlog() - granted_total,
            tconts={t.alloc_id: grants.get(t.alloc_id, 0)
                    for t in backlogged})
    return grants


def _grant_guaranteed(backlogged: Sequence[TCont], grants: Dict[int, int],
                      capacity: int, remaining: int) -> int:
    """The anti-starvation round: a small quantum for every queue."""
    quantum = max(1, int(capacity * GUARANTEED_SHARE) // len(backlogged))
    for tcont in backlogged:
        if remaining <= 0:
            break
        give = min(quantum, tcont.queued_bytes, remaining)
        grants[tcont.alloc_id] += give
        remaining -= give
    return remaining


def _grant_priority_tiers(backlogged: Sequence[TCont],
                          grants: Dict[int, int], remaining: int) -> int:
    """Strict priority across tiers, weighted fair filling within one."""
    for priority in sorted({t.priority for t in backlogged}):
        if remaining <= 0:
            break
        tier = [t for t in backlogged if t.priority == priority]
        remaining = _fill(tier, grants, remaining, lambda t: t.weight)
    return remaining


def _fill(tconts: Sequence[TCont], grants: Dict[int, int],
          remaining: int, weight_of) -> int:
    """Progressive weighted filling until capacity or backlog runs out.

    Every pass hands each still-backlogged T-CONT a quantum
    proportional to its weight (at least one byte), capped at its
    remaining backlog — so the loop strictly progresses and stops
    exactly when capacity is spent or nothing is queued.
    """
    ordered = sorted(tconts, key=lambda t: t.alloc_id)
    while remaining > 0:
        active = [t for t in ordered
                  if t.queued_bytes - grants[t.alloc_id] > 0]
        if not active:
            break
        total_weight = sum(weight_of(t) for t in active)
        snapshot = remaining
        for tcont in active:
            if remaining <= 0:
                break
            quantum = max(1, int(snapshot * weight_of(tcont) / total_weight))
            pending = tcont.queued_bytes - grants[tcont.alloc_id]
            give = min(quantum, pending, remaining)
            grants[tcont.alloc_id] += give
            remaining -= give
    return remaining


# ---------------------------------------------------------------------------
# One grant-and-drain cycle on the reference allocator
# ---------------------------------------------------------------------------


def run_cycle(allocator: DbaScheduler, capacity_bytes: int,
              now: float = 0.0) -> Dict[str, DrainResult]:
    """The reference ``DbaScheduler.run_cycle``: allocate with
    :func:`grant`, then drain each granted T-CONT in alloc-id order.

    A ``DownstreamScheduler``'s cycle is its allocator's, so this one
    reference serves both schedulers."""
    grants = grant(allocator, capacity_bytes, now=now)
    results: Dict[str, DrainResult] = {}
    for tcont in allocator.tconts():
        granted = grants.get(tcont.alloc_id, 0)
        if granted <= 0:
            continue
        results[tcont.tenant] = tcont.drain(granted, now)
    return results


# ---------------------------------------------------------------------------
# QoS: per-request admission
# ---------------------------------------------------------------------------


def admit(enforcer: QosEnforcer, requests: Sequence[Request],
          now: float) -> List[Request]:
    """The per-request admission ``QosEnforcer.admit`` must match: the
    queued backlog's releases, then ``submit`` on each arrival in order,
    then the cycle's drop events."""
    admitted = list(enforcer._release(now))
    for request in requests:
        if enforcer.submit(request, now) == "admitted":
            admitted.append(request)
    enforcer.cycle_end(now)
    return admitted


# ---------------------------------------------------------------------------
# Crypto: textbook RSA key generation and signing, byte-by-byte AEAD
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def is_probable_prime(n: int, rng: random.Random, rounds: int = 20) -> bool:
    """Miller-Rabin after trial division by the primes below 50."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """The first ``bits``-bit odd draw from ``rng`` that tests prime."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def generate_key(bits: int = 512, seed: Optional[int] = None
                 ) -> Tuple[int, int, int]:
    """``(n, e, d)`` of the key pair ``RsaKeyPair.generate`` must return."""
    rng = random.Random(seed)
    e = 65537
    while True:
        p = random_prime(bits // 2, rng)
        q = random_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        return p * q, e, pow(e, -1, phi)


def sign(n: int, d: int, data: bytes) -> bytes:
    """SHA-256(data) raised to ``d`` modulo ``n``, big-endian."""
    digest = int.from_bytes(hashlib.sha256(data).digest(), "big") % n
    return pow(digest, d, n).to_bytes((n.bit_length() + 7) // 8, "big")


_TAG_LEN = 32
_NONCE_LEN = 16


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream, one block per loop pass."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(
            key + nonce + counter.to_bytes(8, "big")).digest())
        counter += 1
    return b"".join(blocks)[:length]


def _tag(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()


def aead_encrypt(key: bytes, plaintext: bytes, associated_data: bytes = b"",
                 nonce: Optional[bytes] = None) -> bytes:
    """``nonce || ciphertext || tag`` with the keystream XORed per byte."""
    if not key:
        raise ValueError("key must be non-empty")
    if nonce is None:
        nonce = random.getrandbits(8 * _NONCE_LEN).to_bytes(_NONCE_LEN, "big")
    if len(nonce) != _NONCE_LEN:
        raise ValueError(f"nonce must be {_NONCE_LEN} bytes")
    stream = keystream(key, nonce, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    return nonce + ciphertext + _tag(key, nonce + associated_data + ciphertext)


def aead_decrypt(key: bytes, blob: bytes, associated_data: bytes = b"") -> bytes:
    """Verify the tag, then XOR the keystream back out per byte."""
    if len(blob) < _NONCE_LEN + _TAG_LEN:
        raise IntegrityError("ciphertext too short to be authentic")
    nonce = blob[:_NONCE_LEN]
    ciphertext = blob[_NONCE_LEN:-_TAG_LEN]
    expected = _tag(key, nonce + associated_data + ciphertext)
    if not hmac.compare_digest(blob[-_TAG_LEN:], expected):
        raise IntegrityError("authentication tag mismatch")
    stream = keystream(key, nonce, len(ciphertext))
    return bytes(c ^ s for c, s in zip(ciphertext, stream))


# ---------------------------------------------------------------------------
# Falco: the default rules' conditions as predicates
# ---------------------------------------------------------------------------

_SHELLS = ("/bin/sh", "/bin/bash", "/bin/dash", "/usr/bin/zsh")
_MINERS = ("xmrig", "minerd", "cpuminer")
_SENSITIVE_READS = ("/etc/shadow", "/root/.ssh/id_rsa", "/etc/kubernetes/pki")
_EXPECTED_NETWORKS = ("10.", "registry.genio.example")

DEFAULT_RULE_CONDITIONS: Dict[str, Callable[[Event], bool]] = {
    "shell_in_container": lambda e: (
        e.get("syscall") in ("execve", "execveat")
        and str(e.get("path", "")) in _SHELLS),
    "write_below_etc": lambda e: (
        e.get("op") == "write"
        and str(e.get("path", "")).startswith("/etc/")
        and e.get("actor") != "root"),
    "sensitive_file_read": lambda e: (
        e.get("syscall") in ("open", "openat", "read")
        and any(str(e.get("path", "")).startswith(p)
                for p in _SENSITIVE_READS)),
    "unexpected_outbound": lambda e: (
        e.get("syscall") in ("connect", "sendto")
        and bool(e.get("dst"))
        and not any(str(e.get("dst", "")).startswith(p)
                    for p in _EXPECTED_NETWORKS)),
    "privileged_syscall_attempt": lambda e: e.get("syscall") in (
        "init_module", "finit_module", "kexec_load", "mount", "ptrace",
        "setns", "pivot_root"),
    "cryptominer_exec": lambda e: (
        e.get("syscall") in ("execve", "execveat")
        and any(m in str(e.get("path", "")) for m in _MINERS)),
    "failed_login": lambda e: e.get("success") is False,
    "anonymous_control_plane_write": lambda e: (
        "anonymous" in str(e.get("principal", ""))
        and e.get("verb") in ("create", "update", "patch", "delete")),
}


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------


def _queue_state(tcont: TCont) -> Tuple[Any, ...]:
    queue = tcont.queue
    return (tcont.alloc_id, tcont.tenant, queue.nbytes, queue.head,
            [(issued_at, list(sizes)) for issued_at, sizes in queue.runs],
            tcont._head_sent, queue.dropped_requests, queue.dropped_bytes)


def dba_state(scheduler: DbaScheduler) -> Tuple[Any, ...]:
    """Cycle count plus every T-CONT's backlog, partial head and drops."""
    return (scheduler.cycles_run,
            [_queue_state(t) for t in scheduler.tconts()])


def downstream_state(scheduler: DownstreamScheduler) -> Tuple[Any, ...]:
    """Cycle counts plus every queue's backlog, partial head and drops."""
    return (scheduler.cycles_run, dba_state(scheduler._allocator))


def qos_state(enforcer: QosEnforcer) -> Tuple[Any, ...]:
    """Every tenant policy's queue, bucket and counters, plus the metrics
    registry's samples."""
    policies = []
    for tenant in sorted(enforcer._policies):
        policy = enforcer.policy(tenant)
        queue = policy.queue
        policies.append((
            tenant, policy.admitted_bytes, policy.backpressured,
            policy._cycle_drops, policy._cycle_drop_bytes,
            queue.nbytes, queue.head,
            [(issued_at, list(sizes)) for issued_at, sizes in queue.runs],
            queue.dropped_requests, queue.dropped_bytes,
            # Exact float equality: integer spends below 2**53 are exact.
            policy.bucket._tokens, policy.bucket._last_refill))
    metrics = enforcer._metrics
    return policies, metrics.snapshot() if metrics is not None else None


def _history(bus: Optional[EventBus]) -> List[Tuple[Any, ...]]:
    if bus is None:
        return []
    return [(e.topic, e.timestamp, e.source, e.payload)
            for e in bus.history()]


def assert_matches_oracle(
        build: Callable[[], Tuple[Any, Optional[EventBus]]],
        calls: Sequence[Tuple[Any, ...]],
        shipped: Callable[..., Any], oracle: Callable[..., Any],
        state: Callable[[Any], Any]) -> List[Any]:
    """Drive a shipped fast path and its oracle through the same calls.

    ``build()`` returns a fresh ``(subject, bus)`` and is called twice,
    so both subjects start identical. Each item of ``calls`` is one
    call's argument tuple: ``shipped(subject, *args)`` runs on one
    subject, ``oracle(subject, *args)`` on the other. After every call
    the return values and ``state(subject)`` must be equal; after the
    last, so must the bus histories (topic, timestamp, source and
    payload of every event, in order). Returns the shipped results.
    """
    fast, fast_bus = build()
    reference, reference_bus = build()
    results = []
    for index, args in enumerate(calls):
        result = shipped(fast, *args)
        expected = oracle(reference, *args)
        assert result == expected, f"call {index}: return values differ"
        assert state(fast) == state(reference), f"call {index}: state differs"
        results.append(result)
    assert _history(fast_bus) == _history(reference_bus), \
        "bus histories differ"
    return results
