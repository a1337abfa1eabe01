"""Tests for RSA with its multiplicative homomorphism (paper Table I)."""

import pytest

from repro.api.he import RsaApi
from repro.crypto.rsa import Rsa


class TestRoundtrip:
    def test_encrypt_decrypt(self, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        for value in (0, 1, 42, pub.n - 1):
            assert Rsa.raw_decrypt(pri, Rsa.raw_encrypt(pub, value)) == value

    def test_deterministic(self, rsa_128):
        # Textbook RSA is deterministic by construction.
        pub = rsa_128.public_key
        assert Rsa.raw_encrypt(pub, 7) == Rsa.raw_encrypt(pub, 7)

    def test_out_of_range_raises(self, rsa_128):
        with pytest.raises(ValueError):
            Rsa.raw_encrypt(rsa_128.public_key, rsa_128.public_key.n)
        with pytest.raises(ValueError):
            Rsa.raw_decrypt(rsa_128.private_key, -1)


class TestHomomorphism:
    def test_multiplication(self, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        c1 = Rsa.raw_encrypt(pub, 6)
        c2 = Rsa.raw_encrypt(pub, 7)
        [product] = RsaApi().mul(pub, [c1], [c2])
        assert Rsa.raw_decrypt(pri, product) == 42

    def test_multiplication_wraps_modulo_n(self, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        big = pub.n - 1
        c1 = Rsa.raw_encrypt(pub, big)
        c2 = Rsa.raw_encrypt(pub, big)
        [product] = RsaApi().mul(pub, [c1], [c2])
        assert Rsa.raw_decrypt(pri, product) == (big * big) % pub.n

    def test_chain_of_multiplications(self, rsa_128):
        pub, pri = rsa_128.public_key, rsa_128.private_key
        product_cipher = Rsa.raw_encrypt(pub, 1)
        expected = 1
        for value in (2, 3, 5, 7):
            [product_cipher] = RsaApi().mul(
                pub, [product_cipher], [Rsa.raw_encrypt(pub, value)])
            expected *= value
        assert Rsa.raw_decrypt(pri, product_cipher) == expected

