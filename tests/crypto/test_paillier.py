"""Tests for the Paillier cryptosystem (paper Eqs. 3-5)."""

import pytest

from repro.crypto.paillier import Paillier


class TestRoundtrip:
    def test_encrypt_decrypt(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        for value in (0, 1, 42, pub.n - 1):
            c = Paillier.raw_encrypt(pub, value, rng=rng)
            assert Paillier.raw_decrypt(pri, c) == value

    def test_crt_matches_textbook(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        for value in (0, 7, 123456, pub.n // 2):
            c = Paillier.raw_encrypt(pub, value, rng=rng)
            assert Paillier.raw_decrypt(pri, c) == \
                Paillier.raw_decrypt_textbook(pri, c)

    def test_ciphertexts_randomized(self, paillier_128, rng):
        pub = paillier_128.public_key
        c1 = Paillier.raw_encrypt(pub, 5, rng=rng)
        c2 = Paillier.raw_encrypt(pub, 5, rng=rng)
        assert c1 != c2     # semantic security needs fresh randomizers

    def test_explicit_randomizer_deterministic(self, paillier_128):
        pub = paillier_128.public_key
        assert Paillier.raw_encrypt(pub, 9, r=12345) == \
            Paillier.raw_encrypt(pub, 9, r=12345)

    def test_plaintext_out_of_range_raises(self, paillier_128, rng):
        pub = paillier_128.public_key
        with pytest.raises(ValueError):
            Paillier.raw_encrypt(pub, pub.n, rng=rng)
        with pytest.raises(ValueError):
            Paillier.raw_encrypt(pub, -1, rng=rng)

    def test_non_unit_randomizer_raises(self, paillier_128):
        pub = paillier_128.public_key
        keypair = paillier_128
        with pytest.raises(ValueError):
            Paillier.raw_encrypt(pub, 1, r=keypair.private_key.p)

    def test_ciphertext_out_of_range_raises(self, paillier_128):
        with pytest.raises(ValueError):
            Paillier.raw_decrypt(paillier_128.private_key,
                                 paillier_128.public_key.n_squared)


class TestHomomorphism:
    def test_addition(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        c1 = Paillier.raw_encrypt(pub, 111, rng=rng)
        c2 = Paillier.raw_encrypt(pub, 222, rng=rng)
        assert Paillier.raw_decrypt(pri, Paillier.raw_add(pub, c1, c2)) == 333

    def test_addition_wraps_modulo_n(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        c1 = Paillier.raw_encrypt(pub, pub.n - 1, rng=rng)
        c2 = Paillier.raw_encrypt(pub, 2, rng=rng)
        assert Paillier.raw_decrypt(pri, Paillier.raw_add(pub, c1, c2)) == 1

    def test_scalar_mul(self, paillier_128, rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        c = Paillier.raw_encrypt(pub, 7, rng=rng)
        assert Paillier.raw_decrypt(
            pri, Paillier.raw_scalar_mul(pub, c, 6)) == 42

    def test_scalar_mul_negative_raises(self, paillier_128, rng):
        pub = paillier_128.public_key
        c = Paillier.raw_encrypt(pub, 7, rng=rng)
        with pytest.raises(ValueError):
            Paillier.raw_scalar_mul(pub, c, -2)

