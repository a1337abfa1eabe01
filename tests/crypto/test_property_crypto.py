"""Property-based tests (hypothesis) for the cryptosystems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.he import RsaApi
from repro.crypto.keys import generate_paillier_keypair, generate_rsa_keypair
from repro.crypto.paillier import Paillier
from repro.crypto.rsa import Rsa
from repro.mpint.primes import LimbRandom

# Session-fixed small keys: hypothesis drives the plaintexts, not keygen.
_PAILLIER = generate_paillier_keypair(128, rng=LimbRandom(seed=2001))
_RSA = generate_rsa_keypair(128, rng=LimbRandom(seed=2002))
_RNG = LimbRandom(seed=2003)

plaintexts = st.integers(min_value=0,
                         max_value=_PAILLIER.public_key.n - 1)
small_values = st.integers(min_value=0, max_value=1 << 40)
scalars = st.integers(min_value=0, max_value=1 << 16)


@settings(max_examples=30)
@given(plaintexts)
def test_paillier_roundtrip(message):
    c = Paillier.raw_encrypt(_PAILLIER.public_key, message, rng=_RNG)
    assert Paillier.raw_decrypt(_PAILLIER.private_key, c) == message


@settings(max_examples=30)
@given(small_values, small_values)
def test_paillier_additive_homomorphism(m1, m2):
    pub, pri = _PAILLIER.public_key, _PAILLIER.private_key
    c1 = Paillier.raw_encrypt(pub, m1, rng=_RNG)
    c2 = Paillier.raw_encrypt(pub, m2, rng=_RNG)
    assert Paillier.raw_decrypt(pri, Paillier.raw_add(pub, c1, c2)) == \
        (m1 + m2) % pub.n


@settings(max_examples=30)
@given(small_values, scalars)
def test_paillier_scalar_homomorphism(message, scalar):
    pub, pri = _PAILLIER.public_key, _PAILLIER.private_key
    c = Paillier.raw_encrypt(pub, message, rng=_RNG)
    assert Paillier.raw_decrypt(
        pri, Paillier.raw_scalar_mul(pub, c, scalar)) == \
        (message * scalar) % pub.n


@settings(max_examples=30)
@given(plaintexts)
def test_paillier_crt_equals_textbook(message):
    c = Paillier.raw_encrypt(_PAILLIER.public_key, message, rng=_RNG)
    assert Paillier.raw_decrypt(_PAILLIER.private_key, c) == \
        Paillier.raw_decrypt_textbook(_PAILLIER.private_key, c)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=_RSA.public_key.n - 1))
def test_rsa_roundtrip(message):
    c = Rsa.raw_encrypt(_RSA.public_key, message)
    assert Rsa.raw_decrypt(_RSA.private_key, c) == message


@settings(max_examples=30)
@given(small_values, small_values)
def test_rsa_multiplicative_homomorphism(m1, m2):
    pub, pri = _RSA.public_key, _RSA.private_key
    [c] = RsaApi().mul(pub, [Rsa.raw_encrypt(pub, m1)],
                       [Rsa.raw_encrypt(pub, m2)])
    assert Rsa.raw_decrypt(pri, c) == (m1 * m2) % pub.n
