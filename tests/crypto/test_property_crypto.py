"""Property-based tests (hypothesis) for the cryptosystems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.he import RsaApi
from repro.crypto.keys import generate_paillier_keypair, generate_rsa_keypair
from repro.mpint.primes import LimbRandom
from repro.testing.reference import PaillierReference

from tests.conftest import encrypt_fresh

# Session-fixed small keys: hypothesis drives the plaintexts, not keygen.
_PAILLIER = generate_paillier_keypair(128, rng=LimbRandom(seed=2001))
_RSA = generate_rsa_keypair(128, rng=LimbRandom(seed=2002))
_RNG = LimbRandom(seed=2003)
#: The pow()-only textbook operations the homomorphisms are checked with.
_TEXTBOOK = PaillierReference(_PAILLIER, seed=2004)
_RSA_API = RsaApi()

plaintexts = st.integers(min_value=0,
                         max_value=_PAILLIER.public_key.n - 1)
small_values = st.integers(min_value=0, max_value=1 << 40)
scalars = st.integers(min_value=0, max_value=1 << 16)


@settings(max_examples=30)
@given(plaintexts)
def test_paillier_roundtrip(message):
    [c] = encrypt_fresh(_PAILLIER.public_key, [message], _RNG)
    assert _PAILLIER.private_key.decrypt([c]) == [message]


@settings(max_examples=30)
@given(small_values, small_values)
def test_paillier_additive_homomorphism(m1, m2):
    pub, pri = _PAILLIER.public_key, _PAILLIER.private_key
    c1, c2 = encrypt_fresh(pub, [m1, m2], _RNG)
    assert pri.decrypt(_TEXTBOOK.add([c1], [c2])) == [(m1 + m2) % pub.n]


@settings(max_examples=30)
@given(small_values, scalars)
def test_paillier_scalar_homomorphism(message, scalar):
    pub, pri = _PAILLIER.public_key, _PAILLIER.private_key
    c = encrypt_fresh(pub, [message], _RNG)
    assert pri.decrypt(_TEXTBOOK.scalar_mul(c, [scalar])) == \
        [(message * scalar) % pub.n]


@settings(max_examples=30)
@given(plaintexts)
def test_paillier_crt_equals_textbook(message):
    c = encrypt_fresh(_PAILLIER.public_key, [message], _RNG)
    assert _PAILLIER.private_key.decrypt(c) == _TEXTBOOK.decrypt(c)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=_RSA.public_key.n - 1))
def test_rsa_roundtrip(message):
    c = _RSA_API.encrypt(_RSA.public_key, message)
    assert _RSA_API.decrypt(_RSA.private_key, c) == [message]


@settings(max_examples=30)
@given(small_values, small_values)
def test_rsa_multiplicative_homomorphism(m1, m2):
    pub, pri = _RSA.public_key, _RSA.private_key
    c = _RSA_API.mul(pub, _RSA_API.encrypt(pub, m1),
                     _RSA_API.encrypt(pub, m2))
    assert _RSA_API.decrypt(pri, c) == [(m1 * m2) % pub.n]
