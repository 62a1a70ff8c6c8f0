"""Simulated-but-behaviourally-faithful cryptography.

The real GENIO platform relies on AES-GCM (MACsec, GPON payload
encryption), RSA/X.509 (node onboarding, ONIE image signing), GPG (APT
repositories) and SHA-2 (TPM measurements, Tripwire baselines). This
module provides stand-ins with the *same observable behaviour*:

* :func:`sha256` / :func:`hmac_sha256` -- real, from :mod:`hashlib`.
* :class:`RsaKeyPair` -- a from-scratch textbook-RSA-with-hashing scheme
  (Miller-Rabin keygen, PKCS#1-style sign/verify, simple OAEP-less
  encryption used only for key wrapping inside the simulation).
  Candidates pass one gcd against the product of the primes from 53 to
  :data:`SIEVE_BOUND` before Miller-Rabin; a rejected candidate still
  draws the base the first round would have drawn, so a seed yields the
  same key as the plain textbook test. Seeded pairs are memoized (at
  most :data:`KEY_CACHE_SIZE`, never an unseeded one), and
  :meth:`RsaKeyPair.sign` / :meth:`RsaKeyPair.decrypt_int` exponentiate
  modulo ``p`` and ``q`` (CRT) instead of by ``d`` modulo ``n``.
* :func:`aead_encrypt` / :func:`aead_decrypt` -- an authenticated stream
  cipher (SHA-256 in counter mode for the keystream, HMAC-SHA-256 over
  nonce, associated data and ciphertext for the tag). Like AES-GCM it
  provides confidentiality + integrity + authenticity: decrypting with the
  wrong key or a tampered ciphertext raises :class:`IntegrityError`.
  The keystream is XORed in as one big integer, not byte by byte.

The textbook versions these shortcuts replaced live in
``tests/oracles.py``, and the tests hold the two byte-identical.

None of this is production cryptography; it exists so the security
experiments exercise genuine verify/reject code paths offline.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.errors import IntegrityError


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 of ``data`` under ``key``."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def constant_time_equals(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (mirrors real verification code paths)."""
    return _hmac.compare_digest(a, b)


# ---------------------------------------------------------------------------
# Authenticated encryption (AES-GCM stand-in)
# ---------------------------------------------------------------------------

_TAG_LEN = 32
_NONCE_LEN = 16


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream."""
    prefix = key + nonce
    n_blocks = -(-length // 32)    # 32-byte SHA-256 blocks, rounded up
    return b"".join(sha256(prefix + counter.to_bytes(8, "big"))
                    for counter in range(n_blocks))[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR ``stream`` (same length), as one integer operation."""
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def aead_encrypt(
    key: bytes,
    plaintext: bytes,
    associated_data: bytes = b"",
    nonce: Optional[bytes] = None,
) -> bytes:
    """Encrypt-and-authenticate; returns ``nonce || ciphertext || tag``.

    The associated data is authenticated but not encrypted, exactly like
    the AAD input to AES-GCM (used for frame headers in MACsec).
    """
    if not key:
        raise ValueError("key must be non-empty")
    if nonce is None:
        nonce = random.getrandbits(8 * _NONCE_LEN).to_bytes(_NONCE_LEN, "big")
    if len(nonce) != _NONCE_LEN:
        raise ValueError(f"nonce must be {_NONCE_LEN} bytes")
    ciphertext = _xor(plaintext, _keystream(key, nonce, len(plaintext)))
    tag = hmac_sha256(key, nonce + associated_data + ciphertext)
    return nonce + ciphertext + tag


def aead_decrypt(key: bytes, blob: bytes, associated_data: bytes = b"") -> bytes:
    """Verify-and-decrypt a blob produced by :func:`aead_encrypt`.

    :raises IntegrityError: if the tag does not verify (wrong key, tampered
        ciphertext, or tampered associated data).
    """
    if len(blob) < _NONCE_LEN + _TAG_LEN:
        raise IntegrityError("ciphertext too short to be authentic")
    nonce = blob[:_NONCE_LEN]
    ciphertext = blob[_NONCE_LEN:-_TAG_LEN]
    tag = blob[-_TAG_LEN:]
    expected = hmac_sha256(key, nonce + associated_data + ciphertext)
    if not constant_time_equals(tag, expected):
        raise IntegrityError("authentication tag mismatch")
    return _xor(ciphertext, _keystream(key, nonce, len(ciphertext)))


# ---------------------------------------------------------------------------
# RSA (from scratch, small keys, deterministic when seeded)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# Candidates above this bound meet one gcd against the product of every
# prime from 53 up to it before Miller-Rabin. At 5000 the gcd costs
# about a twentieth of a 256-bit round and rejects over half of the
# candidates that pass _SMALL_PRIMES; past about 10000 the longer
# product costs more than the rounds it saves.
SIEVE_BOUND = 5000


def _sieve_product(bound: int) -> int:
    """Product of the primes above 47 and at most ``bound``."""
    is_prime = bytearray([1]) * (bound + 1)
    for i in range(2, math.isqrt(bound) + 1):
        if is_prime[i]:
            is_prime[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
    return math.prod(p for p in range(_SMALL_PRIMES[-1] + 1, bound + 1)
                     if is_prime[p])


_SIEVE_PRODUCT = _sieve_product(SIEVE_BOUND)

# Miller-Rabin rounds per candidate that survives the sieve.
MILLER_RABIN_ROUNDS = 20


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n > SIEVE_BOUND and math.gcd(n, _SIEVE_PRODUCT) != 1:
        # A composite with a factor in the sieve. Without the sieve the
        # first round would draw its base and reject n, so draw that base
        # anyway: the caller's rng moves exactly as it did, and a seed
        # keeps its key. (Only a strong liar for n, a vanishing share of
        # bases at key sizes, took the textbook test past round one.)
        rng.randrange(2, n - 1)
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
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


def _random_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    def fingerprint(self) -> str:
        """Short hex fingerprint identifying this key."""
        material = f"{self.n}:{self.e}".encode()
        return sha256_hex(material)[:16]

    def verify(self, data: bytes, signature: bytes) -> bool:
        """True if ``signature`` is a valid signature of ``data``."""
        try:
            sig_int = int.from_bytes(signature, "big")
        except (TypeError, ValueError):
            return False
        if not 0 < sig_int < self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        digest = int.from_bytes(sha256(data), "big") % self.n
        return recovered == digest

    def encrypt_int(self, m: int) -> int:
        """Raw RSA encryption of an integer (key wrapping only)."""
        if not 0 <= m < self.n:
            raise ValueError("message out of range for this key")
        return pow(m, self.e, self.n)


# Seeded key pairs memoized by (bits, seed): components rebuilt with the
# same seed (an integrity monitor per host, say) share one pair instead of
# repeating its prime search. Bounded, so a caller cycling through fresh
# seeds holds at most this many pairs.
KEY_CACHE_SIZE = 128


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA key pair with sign/decrypt capability.

    ``p``, ``q`` and the CRT exponents ``dp``, ``dq`` and ``qinv`` are
    kept for the private-key operations only: they take no part in
    equality, hashing or ``repr``, which still see ``(public, d)``.
    """

    public: RsaPublicKey
    d: int
    p: int = field(compare=False, repr=False)
    q: int = field(compare=False, repr=False)
    dp: int = field(compare=False, repr=False)
    dq: int = field(compare=False, repr=False)
    qinv: int = field(compare=False, repr=False)

    @staticmethod
    def generate(bits: int = 512, seed: Optional[int] = None) -> "RsaKeyPair":
        """Generate a key pair; deterministic when ``seed`` is given.

        A seeded call returns the memoized pair for ``(bits, seed)`` when
        there is one; an unseeded call always draws a fresh pair.

        512-bit keys keep the simulation fast; the verify/reject behaviour
        the experiments rely on is size-independent.
        """
        if bits < 128:
            raise ValueError("key too small even for simulation")
        if seed is None:
            return _generate(bits, random.Random())
        return _generate_seeded(bits, seed)

    def _private(self, c: int) -> int:
        """``pow(c, d, n)`` through the Chinese remainder theorem."""
        m_q = pow(c, self.dq, self.q)
        h = self.qinv * (pow(c, self.dp, self.p) - m_q) % self.p
        return m_q + h * self.q

    def sign(self, data: bytes) -> bytes:
        """Sign SHA-256(data); verify with :meth:`RsaPublicKey.verify`."""
        digest = int.from_bytes(sha256(data), "big") % self.public.n
        sig_int = self._private(digest)
        length = (self.public.n.bit_length() + 7) // 8
        return sig_int.to_bytes(length, "big")

    def decrypt_int(self, c: int) -> int:
        """Raw RSA decryption of an integer (key wrapping only)."""
        if not 0 <= c < self.public.n:
            raise ValueError("ciphertext out of range for this key")
        return self._private(c)


def _generate(bits: int, rng: random.Random) -> RsaKeyPair:
    """Draw a ``bits``-bit key pair from ``rng``."""
    e = 65537
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return RsaKeyPair(public=RsaPublicKey(n=p * q, e=e), d=d, p=p, q=q,
                          dp=d % (p - 1), dq=d % (q - 1),
                          qinv=pow(q, -1, p))


# typed: seeds that compare equal across types (1, 1.0, True) may seed
# random.Random differently, so each type keeps its own entries.
@functools.lru_cache(maxsize=KEY_CACHE_SIZE, typed=True)
def _generate_seeded(bits: int, seed: int) -> RsaKeyPair:
    return _generate(bits, random.Random(seed))


# ---------------------------------------------------------------------------
# Hybrid key wrapping (used by the TLS-like handshake and LUKS model)
# ---------------------------------------------------------------------------

def wrap_key(recipient: RsaPublicKey, symmetric_key: bytes) -> Tuple[int, bytes]:
    """Wrap a symmetric key for ``recipient``.

    Returns ``(wrapped, check)`` where ``check`` lets the unwrapper confirm
    it recovered the right key.
    """
    m = int.from_bytes(symmetric_key, "big")
    if m >= recipient.n:
        raise ValueError("symmetric key too large for recipient key")
    wrapped = recipient.encrypt_int(m)
    return wrapped, sha256(symmetric_key)


def unwrap_key(keypair: RsaKeyPair, wrapped: int, check: bytes, key_len: int = 32) -> bytes:
    """Unwrap a symmetric key; raises :class:`IntegrityError` on mismatch."""
    m = keypair.decrypt_int(wrapped)
    symmetric_key = m.to_bytes(key_len, "big")
    if not constant_time_equals(sha256(symmetric_key), check):
        raise IntegrityError("unwrapped key failed its check value")
    return symmetric_key


def random_key(rng: Optional[random.Random] = None, length: int = 31) -> bytes:
    """Random symmetric key (31 bytes fits under 512-bit RSA moduli)."""
    rng = rng or random
    return bytes(rng.getrandbits(8) for _ in range(length))
