"""E23 — security-plane crypto: sieved keygen and CRT signing vs textbook.

Lesson 2 prices certificate-based identity (M3/M4) in "computational
resources", and here that price is RSA: every OLT, ONU and cloud node
the pipeline enrolls gets a 512-bit key pair. Two measurements against
the textbook oracles in ``tests/oracles.py``, outputs asserted
identical first:

* key generation for fixed fresh seeds (the seeded-key memo is emptied
  and no seed repeats, so only the gcd sieve ahead of Miller-Rabin can
  make the difference);
* ``sign`` through the Chinese remainder theorem against ``pow`` by the
  full ``d``.

It then reports the wall time of ``python -m repro secure`` at 4, 16
and 64 OLTs, where the memo (repeated seeds) adds to both. GC is paused
around the timed loops so a collection cannot land inside one path, and
signing takes the best of several passes per path.
"""

import gc
import os
import pathlib
import subprocess
import sys
import time
import timeit

from repro.common import crypto
from tests import oracles

KEY_SEEDS = range(23_000, 23_030)
SIGNATURES = 100
SIGN_BATCHES = 7
SECURE_OLTS = (4, 16, 64)
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _time_keygen():
    shipped_s = oracle_s = 0.0
    crypto._generate_seeded.cache_clear()
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for seed in KEY_SEEDS:
            start = time.perf_counter()
            keypair = crypto.RsaKeyPair.generate(bits=512, seed=seed)
            shipped_s += time.perf_counter() - start
            start = time.perf_counter()
            expected = oracles.generate_key(512, seed)
            oracle_s += time.perf_counter() - start
            # Identical keys, or the speedup is moot.
            assert (keypair.public.n, keypair.public.e, keypair.d) == expected
    finally:
        if gc_was_enabled:
            gc.enable()
    return oracle_s, shipped_s


def _time_signing():
    keypair = crypto.RsaKeyPair.generate(bits=512, seed=0xF13)
    n, d = keypair.public.n, keypair.d
    messages = [f"fim-baseline-{i}".encode() for i in range(SIGNATURES)]
    assert ([keypair.sign(m) for m in messages]
            == [oracles.sign(n, d, m) for m in messages])
    # Best of SIGN_BATCHES passes per path, the two paths alternating so
    # a slow spell of the machine lands on both (timeit pauses GC).
    shipped_s = oracle_s = float("inf")
    for _ in range(SIGN_BATCHES):
        shipped_s = min(shipped_s, timeit.timeit(
            lambda: [keypair.sign(m) for m in messages], number=1))
        oracle_s = min(oracle_s, timeit.timeit(
            lambda: [oracles.sign(n, d, m) for m in messages], number=1))
    return oracle_s, shipped_s


def _secure_wall_s(n_olts):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "secure", "--olts", str(n_olts)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    return elapsed


def test_security_plane_crypto(benchmark, report):
    def run_both():
        return _time_keygen(), _time_signing()

    (keygen_oracle_s, keygen_s), (sign_oracle_s, sign_s) = \
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    keygen_speedup = keygen_oracle_s / keygen_s
    sign_speedup = sign_oracle_s / sign_s
    walls = {n: _secure_wall_s(n) for n in SECURE_OLTS}

    n_keys = len(KEY_SEEDS)
    lines = [
        f"E23 — security-plane RSA: {n_keys} fresh 512-bit key pairs, "
        f"{SIGNATURES} signatures (best of {SIGN_BATCHES} passes)",
        "",
        f"{'operation':<34} {'oracle':>10} {'shipped':>10} {'speedup':>8}",
        f"{'keygen (per key)':<34} {keygen_oracle_s / n_keys * 1e3:>8.2f}ms "
        f"{keygen_s / n_keys * 1e3:>8.2f}ms {keygen_speedup:>7.2f}x",
        f"{'sign (per signature)':<34} "
        f"{sign_oracle_s / SIGNATURES * 1e6:>8.0f}us "
        f"{sign_s / SIGNATURES * 1e6:>8.0f}us {sign_speedup:>7.2f}x",
        "",
        "floors: keygen >= 1.2x (gcd sieve), sign >= 2x (CRT); keys and "
        "signatures asserted identical to the oracles'.",
        "",
        "python -m repro secure, wall time (fresh interpreter):",
    ]
    lines += [f"  --olts {n:<3} {walls[n]:>7.2f}s" for n in SECURE_OLTS]
    report("E23_crypto_keygen", "\n".join(lines))

    assert keygen_speedup >= 1.2
    assert sign_speedup >= 2.0
