"""The key-holder ``r^n mod n^2`` route returns ``pow(r, n, n^2)`` exactly.

The key-level half of this module is pure integer arithmetic and runs
without numpy (the ``numpy-free degradation`` CI job collects it); the
engine-level half needs the tensor stack and is skipped there.  Every
expected value is computed with ``pow()`` alone, at the key sizes the
paper charges (1024/2048 bits) as well as the suite's small keys.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import (
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.paillier import Paillier
from repro.mpint import limb_plane
from repro.mpint.primes import LimbRandom

from tests.conftest import seed_for

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
            assert pri.obfuscator(r) == pow(r, pub.n, pub.n_squared)

        check()

    def test_edges_and_non_units(self, bits):
        pri, pub = _keypair(bits)
        n = pub.n
        for r in (1, n - 1, n + 2, pub.n_squared + 3,   # units, r >= n
                  0, pri.p, pri.q, n, 2 * pri.p):       # non-units
            assert pri.obfuscator(r) == pow(r, n, pub.n_squared), r

    def test_raw_encrypt_still_rejects_non_units(self, bits):
        pri, pub = _keypair(bits)
        for r in (0, pri.p, pri.q):
            with pytest.raises(ValueError, match="unit"):
                Paillier.raw_encrypt(pub, 1, r=r)


def test_public_key_only_fallback_is_pow():
    keypair = _keypair(256)
    pub = PaillierPublicKey(n=keypair.public_key.n, g=keypair.public_key.g,
                            key_bits=256)
    r = LimbRandom(seed=seed_for(1310)).random_unit(pub.n)
    expected = pow(r, pub.n, pub.n * pub.n)
    assert pub.obfuscator(r) == expected
    assert Paillier.raw_encrypt(pub, 5, r=r) == \
        (1 + 5 * pub.n) * expected % (pub.n * pub.n)


def test_identity_is_independent_of_the_generator():
    base = _keypair(128)
    n = base.public_key.n
    pub = PaillierPublicKey(n=n, g=(1 + 7 * n) * pow(3, n, n * n) % (n * n),
                            key_bits=128)
    pri = PaillierPrivateKey(p=base.private_key.p, q=base.private_key.q,
                             public_key=pub)
    r = LimbRandom(seed=seed_for(1311)).random_unit(n)
    assert pri.obfuscator(r) == pow(r, n, n * n)
    c = (pow(pub.g, 41, n * n) * pri.obfuscator(r)) % (n * n)
    assert c == Paillier.raw_encrypt(pub, 41, r=r)
    assert Paillier.raw_decrypt_textbook(pri, c) == 41


def test_derived_constants_stay_out_of_equality_hash_and_repr():
    pri, pub = _keypair(128)
    twin = PaillierPublicKey(n=pub.n, g=pub.g, key_bits=pub.key_bits)
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
        expected = [pow(draws.random_unit(pub.n), pub.n, pub.n_squared)
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
