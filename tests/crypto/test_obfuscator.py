"""The key-holder obfuscator of ``r`` is ``pow(sigma(r), n, n^2)`` exactly,
and draws the textbook ``r^n`` distribution.

The key-level half of this module is pure integer arithmetic and runs
without numpy (the ``numpy-free degradation`` CI job collects it); the
engine-level half needs the tensor stack and is skipped there.  Every
expected value is computed with ``pow()`` alone
(:func:`repro.testing.reference.sigma`), at the key sizes the paper
charges (1024/2048 bits) as well as the suite's small keys.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

from repro.crypto.keys import (
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.mpint import limb_plane
from repro.mpint.primes import LimbRandom
from repro.testing.reference import sigma

from tests.conftest import encrypt_fresh, seed_for

#: Hypothesis examples per key size: a 2048-bit ``pow()`` oracle call is
#: ~100 ms, so the real-key rows draw few values and rely on the edges.
_EXAMPLES = {128: 60, 256: 40, 1024: 8, 2048: 4}

needs_numpy = pytest.mark.skipif(
    not limb_plane.HAVE_NUMPY, reason="HE engines need the tensor stack")


@functools.lru_cache(maxsize=None)
def _keypair(bits: int) -> PaillierKeypair:
    return generate_paillier_keypair(
        bits, rng=LimbRandom(seed=seed_for(1300 + bits)))


@pytest.mark.parametrize("bits", tuple(_EXAMPLES))
class TestKeyHolderIdentity:
    def test_drawn_units(self, bits):
        pri, pub = _keypair(bits)

        @settings(max_examples=_EXAMPLES[bits], deadline=None)
        @given(st.integers(min_value=1, max_value=pub.n - 1)
               .filter(lambda r: math.gcd(r, pub.n) == 1))
        def check(r):
            assert pri.obfuscator(r) == \
                pow(sigma(pri.p, pri.q, r), pub.n, pub.n_squared)

        check()

    def test_edges_and_non_units(self, bits):
        pri, pub = _keypair(bits)
        n = pub.n
        for r in (1, n - 1, n + 2, pub.n_squared + 3,   # units, r >= n
                  0, pri.p, pri.q, n, 2 * pri.p):       # non-units
            assert pri.obfuscator(r) == \
                pow(sigma(pri.p, pri.q, r), n, pub.n_squared), r


def test_a_tiny_key_holder_draws_the_textbook_distribution():
    """Over all of ``Z_n*``: sigma is a permutation, so the key holder's
    obfuscators are the textbook ``r^n``, each exactly as often."""
    p, q = 23, 29
    pub = PaillierPublicKey(n=p * q, key_bits=10)
    pri = PaillierPrivateKey(p=p, q=q, public_key=pub)
    units = [r for r in range(pub.n) if math.gcd(r, pub.n) == 1]
    assert sorted(sigma(p, q, r) for r in units) == units
    assert Counter(pri.obfuscators(units)) == \
        Counter(pow(r, pub.n, pub.n_squared) for r in units)


def test_public_key_only_fallback_is_pow():
    keypair = _keypair(256)
    pub = PaillierPublicKey(n=keypair.public_key.n, key_bits=256)
    r = LimbRandom(seed=seed_for(1310)).random_unit(pub.n)
    expected = pow(r, pub.n, pub.n * pub.n)
    assert pub.obfuscator(r) == expected
    assert encrypt_fresh(pub, [5], LimbRandom(seed=seed_for(1310))) == \
        [(1 + 5 * pub.n) * expected % (pub.n * pub.n)]


def test_derived_constants_stay_out_of_equality_hash_and_repr():
    pri, pub = _keypair(128)
    twin = PaillierPublicKey(n=pub.n, key_bits=pub.key_bits)
    assert twin == pub and hash(twin) == hash(pub)
    assert pub.n_squared == pub.n * pub.n
    assert (pri.p_squared, pri.q_squared) == (pri.p ** 2, pri.q ** 2)
    assert pri.q_squared * pri.q_squared_inverse % pri.p_squared == 1
    for text in (repr(pub), repr(pri)):
        assert "squared" not in text and "obfuscator" not in text


# ----------------------------------------------------------------------
# Engines: every producer of r^n goes through the held key's obfuscator.
# ----------------------------------------------------------------------

def _engines(keypair, seed: int, pool_size: int):
    from repro.crypto.cpu_engine import CpuPaillierEngine
    from repro.crypto.gpu_engine import GpuPaillierEngine
    from repro.crypto.vector_engine import VectorPaillierEngine
    return [cls(keypair, rng=LimbRandom(seed=seed),
                randomizer_pool_size=pool_size)
            for cls in (CpuPaillierEngine, GpuPaillierEngine,
                        VectorPaillierEngine)]


@needs_numpy
@pytest.mark.parametrize("bits", (128, 1024, 2048))
class TestEngineObfuscators:
    def test_pool_snapshots_equal_the_pow_list(self, bits):
        keypair = _keypair(bits)
        pub = keypair.public_key
        seed = seed_for(1320 + bits)
        draws = LimbRandom(seed=seed)
        pri = keypair.private_key
        expected = [pow(sigma(pri.p, pri.q, draws.random_unit(pub.n)),
                        pub.n, pub.n_squared)
                    for _ in range(3)]
        for engine in _engines(keypair, seed, pool_size=3):
            assert engine.randomizer_pool_snapshot() == expected, \
                type(engine).__name__

    def test_fresh_encrypt_batch_equals_the_reference(self, bits):
        from repro.testing.reference import PaillierReference
        keypair = _keypair(bits)
        seed = seed_for(1330 + bits)
        values = [0, 1, keypair.public_key.n - 1]
        expected = PaillierReference(keypair, seed=seed).encrypt(values)
        for engine in _engines(keypair, seed, pool_size=0):
            assert engine.encrypt_batch(values) == expected, \
                type(engine).__name__

    def test_fresh_and_pooled_encryptions_decrypt(self, bits):
        keypair = _keypair(bits)
        values = [0, 1, 2, keypair.public_key.n - 1, 12345]
        for pool_size in (0, 3):
            for engine in _engines(keypair, seed_for(1340 + bits),
                                   pool_size=pool_size):
                assert engine.decrypt_batch(
                    engine.encrypt_batch(values)) == values, \
                    (type(engine).__name__, pool_size)
