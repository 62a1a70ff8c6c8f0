"""The shipped RSA and AEAD paths against their textbook oracles.

``repro.common.crypto`` sieves prime candidates with one gcd before
Miller-Rabin, memoizes seeded key pairs and signs through the Chinese
remainder theorem; its AEAD XORs the keystream as one integer. Each of
those must leave every key, signature, ciphertext and RNG draw exactly
as the textbook versions in ``tests/oracles.py`` produce them.
"""

import dataclasses
import math
import pickle
import random

import pytest

from repro.common import crypto
from tests import oracles

KEY = b"k" * 32
NONCE = bytes(range(16))

# Composites that pass Miller-Rabin to several fixed bases.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
    318665857834031151167461,
)
CARMICHAEL_NUMBERS = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                      825265, 321197185)


def _primes_upto(bound):
    return [p for p in range(2, bound + 1)
            if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _triple(keypair):
    return keypair.public.n, keypair.public.e, keypair.d


class TestKeyGeneration:
    @pytest.mark.parametrize("bits,seeds", [
        (512, range(200)), (256, range(50)), (128, range(50))])
    def test_keys_match_the_oracle(self, bits, seeds):
        for seed in seeds:
            keypair = crypto.RsaKeyPair.generate(bits=bits, seed=seed)
            assert _triple(keypair) == oracles.generate_key(bits, seed), seed

    def test_crt_fields_describe_the_key(self):
        keypair = crypto.RsaKeyPair.generate(bits=512, seed=11)
        p, q, d = keypair.p, keypair.q, keypair.d
        assert p * q == keypair.public.n and p != q
        assert keypair.dp == d % (p - 1) and keypair.dq == d % (q - 1)
        assert keypair.qinv * q % p == 1


class TestPrivateKeyOperations:
    @pytest.fixture(scope="class", params=[(512, 42), (512, 3), (256, 9),
                                           (128, 1)])
    def keypair(self, request):
        bits, seed = request.param
        return crypto.RsaKeyPair.generate(bits=bits, seed=seed)

    @pytest.mark.parametrize("data", [b"", b"onie-image-v2", b"x" * 4097])
    def test_sign_matches_pow_by_d_and_the_oracle(self, keypair, data):
        n, d = keypair.public.n, keypair.d
        signature = keypair.sign(data)
        digest = int.from_bytes(crypto.sha256(data), "big") % n
        assert int.from_bytes(signature, "big") == pow(digest, d, n)
        assert signature == oracles.sign(n, d, data)
        assert keypair.public.verify(data, signature)

    def test_decrypt_inverts_encrypt(self, keypair):
        n = keypair.public.n
        rng = random.Random(5)
        messages = [0, 1, 2, n - 1, keypair.p, keypair.q, 3 * keypair.q]
        messages += [rng.randrange(n) for _ in range(50)]
        for m in messages:
            c = keypair.public.encrypt_int(m)
            assert keypair.decrypt_int(c) == m
            assert keypair.decrypt_int(m) == pow(m, keypair.d, n)


class TestPrimality:
    def test_agrees_with_the_oracle_on_small_integers(self):
        for n in range(2, 20001):
            assert (crypto._is_probable_prime(n, random.Random(n))
                    == oracles.is_probable_prime(n, random.Random(n))), n

    def test_every_sieve_prime_is_prime(self):
        sieve_primes = [p for p in _primes_upto(crypto.SIEVE_BOUND)
                        if p > 47]
        assert math.prod(sieve_primes) == crypto._SIEVE_PRODUCT
        for p in sieve_primes:
            ours, theirs = random.Random(p), random.Random(p)
            assert crypto._is_probable_prime(p, ours)
            assert oracles.is_probable_prime(p, theirs)
            assert ours.getstate() == theirs.getstate(), p

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL_NUMBERS)
    def test_pseudoprimes_are_rejected(self, n):
        for seed in range(5):
            assert not crypto._is_probable_prime(n, random.Random(seed))
            assert not oracles.is_probable_prime(n, random.Random(seed))

    def test_key_sized_candidates_leave_the_rng_where_the_oracle_does(self):
        draws = random.Random(2024)
        sieved = 0
        for _ in range(600):
            n = draws.getrandbits(256) | (1 << 255) | 1
            ours, theirs = random.Random(n), random.Random(n)
            verdict = crypto._is_probable_prime(n, ours)
            assert verdict == oracles.is_probable_prime(n, theirs)
            assert ours.getstate() == theirs.getstate()
            sieved += (not verdict and all(n % p for p in (3, 5, 7))
                       and math.gcd(n, crypto._SIEVE_PRODUCT) != 1)
        assert sieved > 0


class TestSeededKeyMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        crypto._generate_seeded.cache_clear()
        yield
        crypto._generate_seeded.cache_clear()

    def test_a_repeated_seed_returns_the_same_object(self):
        first = crypto.RsaKeyPair.generate(bits=256, seed=77)
        assert crypto.RsaKeyPair.generate(bits=256, seed=77) is first
        assert crypto.RsaKeyPair.generate(bits=128, seed=77) is not first

    def test_unseeded_calls_are_never_memoized(self):
        a = crypto.RsaKeyPair.generate(bits=128)
        b = crypto.RsaKeyPair.generate(bits=128)
        assert a != b
        assert crypto._generate_seeded.cache_info().currsize == 0

    def test_the_memo_never_exceeds_its_bound(self):
        for seed in range(crypto.KEY_CACHE_SIZE + 5):
            crypto.RsaKeyPair.generate(bits=128, seed=seed)
            assert (crypto._generate_seeded.cache_info().currsize
                    <= crypto.KEY_CACHE_SIZE)
        assert (crypto._generate_seeded.cache_info().currsize
                == crypto.KEY_CACHE_SIZE)
        # The oldest entry was evicted: a fresh, equal pair comes back.
        again = crypto.RsaKeyPair.generate(bits=128, seed=0)
        assert _triple(again) == oracles.generate_key(128, 0)

    def test_too_small_keys_are_refused_before_the_memo(self):
        with pytest.raises(ValueError):
            crypto.RsaKeyPair.generate(bits=64, seed=1)
        assert crypto._generate_seeded.cache_info().currsize == 0


class TestKeyPairValue:
    def test_pickle_round_trips(self):
        keypair = crypto.RsaKeyPair.generate(bits=512, seed=8)
        clone = pickle.loads(pickle.dumps(keypair))
        assert clone == keypair
        assert (clone.p, clone.q, clone.dp, clone.dq, clone.qinv) == (
            keypair.p, keypair.q, keypair.dp, keypair.dq, keypair.qinv)
        assert clone.sign(b"m") == keypair.sign(b"m")

    def test_equality_hash_and_repr_ignore_the_crt_fields(self):
        keypair = crypto.RsaKeyPair.generate(bits=256, seed=8)
        other = dataclasses.replace(keypair, p=1, q=1, dp=1, dq=1, qinv=1)
        assert other == keypair
        assert hash(other) == hash(keypair)
        assert repr(other) == repr(keypair)
        assert repr(keypair) == (f"RsaKeyPair(public={keypair.public!r}, "
                                 f"d={keypair.d!r})")


class TestAeadMatchesOracle:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1024, 4097])
    @pytest.mark.parametrize("aad", [b"", b"gem-header"])
    def test_blobs_and_plaintexts_match(self, length, aad):
        plaintext = random.Random(length).randbytes(length)
        blob = crypto.aead_encrypt(KEY, plaintext, aad, nonce=NONCE)
        assert blob == oracles.aead_encrypt(KEY, plaintext, aad, nonce=NONCE)
        assert crypto.aead_decrypt(KEY, blob, aad) == plaintext
        assert oracles.aead_decrypt(KEY, blob, aad) == plaintext

    @pytest.mark.parametrize("length", [0, 33, 4097])
    def test_drawn_nonces_match(self, length):
        plaintext = b"p" * length
        state = random.getstate()
        try:
            random.seed(length)
            ours = crypto.aead_encrypt(KEY, plaintext)
            random.seed(length)
            assert ours == oracles.aead_encrypt(KEY, plaintext)
        finally:
            random.setstate(state)

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1024, 4097])
    def test_keystreams_match(self, length):
        assert (crypto._keystream(KEY, NONCE, length)
                == oracles.keystream(KEY, NONCE, length))
