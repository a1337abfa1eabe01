"""Tests for the Paillier cryptosystem (paper Eqs. 3-5) on its keys.

Encryption is :meth:`PaillierPublicKey.encrypt` and decryption
:meth:`PaillierPrivateKey.decrypt`; addition and scalar multiplication
are taken by the ``pow()``-only reference, so each homomorphism is
checked against the textbook operation.  Pure integer arithmetic: the
numpy-free CI job collects this module.
"""

from functools import partial

import pytest

from repro.crypto.keys import draw_obfuscators
from repro.mpint.primes import LimbRandom
from repro.testing.reference import PaillierReference

from tests.conftest import encrypt_fresh, seed_for


def _reference(keypair):
    return PaillierReference(keypair, seed=seed_for(1050))


class TestRoundtrip:
    def test_encrypt_decrypt(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        values = [0, 1, 42, pub.n - 1]
        assert pri.decrypt(encrypt_fresh(pub, values, rng)) == values

    @pytest.mark.parametrize("keys", ["paillier_128", "paillier_256"])
    def test_key_holder_encrypt_is_the_textbook_product(self, keys,
                                                        request):
        """The one-product route under the key holder's obfuscators is
        the reference's ``pow(g, m, n^2) * pow(sigma(r), n, n^2)`` for
        the same draws."""
        keypair = request.getfixturevalue(keys)
        pub, pri = keypair.public_key, keypair.private_key
        values = [0, 1, 42, pub.n // 3, pub.n - 1]
        seed = seed_for(1051)
        assert pub.encrypt(values, partial(
            draw_obfuscators, pri.obfuscators, pub.n,
            LimbRandom(seed=seed))) == \
            PaillierReference(keypair, seed=seed).encrypt(values)

    def test_crt_matches_textbook(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        ciphertexts = encrypt_fresh(pub, [0, 7, 123456, pub.n // 2], rng)
        assert pri.decrypt(ciphertexts) == \
            _reference(paillier_128).decrypt(ciphertexts)

    def test_ciphertexts_randomized(self, paillier_128, rng):
        c1, c2 = encrypt_fresh(paillier_128.public_key, [5, 5], rng)
        assert c1 != c2     # semantic security needs fresh randomizers

    def test_identical_draws_give_identical_ciphertexts(self, paillier_128):
        pub = paillier_128.public_key
        assert encrypt_fresh(pub, [9, 10], LimbRandom(seed=12345)) == \
            encrypt_fresh(pub, [9, 10], LimbRandom(seed=12345))

    def test_plaintext_out_of_range_raises_before_any_draw(
            self, paillier_128):
        pub = paillier_128.public_key
        taken = []
        for bad in (-1, pub.n):
            with pytest.raises(ValueError, match="outside"):
                pub.encrypt([5, bad], taken.append)
        assert taken == []

    def test_ciphertext_out_of_range_raises(self, paillier_128):
        pri, pub = paillier_128
        for bad in (-1, pub.n_squared):
            with pytest.raises(ValueError, match="outside"):
                pri.decrypt([1, bad])


class TestHomomorphism:
    def test_addition(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        c1, c2 = encrypt_fresh(pub, [111, 222], rng)
        assert pri.decrypt(_reference(paillier_128).add([c1], [c2])) == \
            [333]

    def test_addition_wraps_modulo_n(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        c1, c2 = encrypt_fresh(pub, [pub.n - 1, 2], rng)
        assert pri.decrypt(_reference(paillier_128).add([c1], [c2])) == [1]

    def test_scalar_mul(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        c = encrypt_fresh(pub, [7], rng)
        assert pri.decrypt(_reference(paillier_128).scalar_mul(c, [6])) == \
            [42]
