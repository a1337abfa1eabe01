"""Tests for RSA with its multiplicative homomorphism (paper Table I)."""

import pytest

from repro.api.he import RsaApi


@pytest.fixture()
def rsa():
    return RsaApi()


class TestRoundtrip:
    def test_encrypt_decrypt(self, rsa, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        values = [0, 1, 42, pub.n - 1]
        assert rsa.decrypt(pri, rsa.encrypt(pub, values)) == values

    def test_deterministic(self, rsa, rsa_128):
        # Textbook RSA is deterministic by construction.
        pub = rsa_128.public_key
        assert rsa.encrypt(pub, 7) == rsa.encrypt(pub, 7)

    def test_out_of_range_raises(self, rsa, rsa_128):
        with pytest.raises(ValueError):
            rsa.encrypt(rsa_128.public_key, rsa_128.public_key.n)
        with pytest.raises(ValueError):
            rsa.decrypt(rsa_128.private_key, -1)


class TestHomomorphism:
    def test_multiplication(self, rsa, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        product = rsa.mul(pub, rsa.encrypt(pub, 6), rsa.encrypt(pub, 7))
        assert rsa.decrypt(pri, product) == [42]

    def test_multiplication_wraps_modulo_n(self, rsa, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        big = pub.n - 1
        c = rsa.encrypt(pub, big)
        assert rsa.decrypt(pri, rsa.mul(pub, c, c)) == [(big * big) % pub.n]

    def test_chain_of_multiplications(self, rsa, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        product_cipher = rsa.encrypt(pub, 1)
        expected = 1
        for value in (2, 3, 5, 7):
            product_cipher = rsa.mul(pub, product_cipher,
                                     rsa.encrypt(pub, value))
            expected *= value
        assert rsa.decrypt(pri, product_cipher) == [expected]
