"""Tests for key generation and derived constants."""

import math

import pytest

from repro.crypto.keys import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
    generate_rsa_keypair,
)
from repro.mpint.primes import LimbRandom, is_probable_prime


class TestPaillierKeyGen:
    def test_modulus_size(self, paillier_128):
        assert paillier_128.public_key.n.bit_length() == 128

    def test_primes_are_prime_and_equal_length(self, paillier_128):
        pri = paillier_128.private_key
        assert is_probable_prime(pri.p)
        assert is_probable_prime(pri.q)
        # The paper keeps p and q the same length as other large ints.
        assert pri.p.bit_length() == pri.q.bit_length() == 64

    def test_default_generator_is_n_plus_one(self, paillier_128):
        assert paillier_128.public_key.g == paillier_128.public_key.n + 1

    def test_lambda_is_lcm(self, paillier_128):
        pri = paillier_128.private_key
        assert pri.lam == math.lcm(pri.p - 1, pri.q - 1)

    def test_mu_inverts_l_of_g_lambda(self, paillier_128):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        l_value = (pow(pub.g, pri.lam, pub.n_squared) - 1) // pub.n
        assert (l_value * pri.mu) % pub.n == 1

    def test_crt_constants_consistent(self, paillier_128):
        pri = paillier_128.private_key
        assert (pri.q * pri.q_inverse) % pri.p == 1

    def test_deterministic_given_seed(self):
        a = generate_paillier_keypair(64, rng=LimbRandom(seed=3))
        b = generate_paillier_keypair(64, rng=LimbRandom(seed=3))
        assert a.public_key.n == b.public_key.n

    def test_mismatched_primes_raise(self, paillier_128):
        pub = paillier_128.public_key
        with pytest.raises(ValueError):
            PaillierPrivateKey(p=3, q=5, public_key=pub)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            generate_paillier_keypair(8)

    def test_generator_sharing_a_prime_with_n_is_rejected(self):
        honest = generate_paillier_keypair(128, rng=LimbRandom(seed=1))
        pri, n = honest.private_key, honest.public_key.n
        for g in (pri.p, pri.q, 3 * pri.p, n, n * n + pri.q):
            with pytest.raises(ValueError, match="generator must be a unit"):
                generate_paillier_keypair(128, rng=LimbRandom(seed=1),
                                          generator=g)

    def test_iteration_order_matches_paper(self, paillier_128):
        # Paper API: key_gen(size) -> (pri_key, pub_key).
        pri, pub = paillier_128
        assert isinstance(pub, PaillierPublicKey)
        assert pri is paillier_128.private_key

    def test_ciphertext_bytes(self, paillier_128):
        assert paillier_128.public_key.ciphertext_bytes() == \
            -(-paillier_128.public_key.n_squared.bit_length() // 8)


class TestRsaKeyGen:
    def test_modulus_size(self, rsa_128):
        assert rsa_128.public_key.n.bit_length() == 128

    def test_ed_inverse_mod_phi(self, rsa_128):
        # d * e == 1 (mod phi) is what roundtrip correctness requires;
        # verify it through an actual exponentiation identity.
        pub, pri = rsa_128.public_key, rsa_128.private_key
        message = 0xABCDEF
        assert pow(pow(message, pub.e, pub.n), pri.d, pub.n) == message

    def test_default_public_exponent(self, rsa_128):
        assert rsa_128.public_key.e == 65537

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            generate_rsa_keypair(8)

    def test_deterministic_given_seed(self):
        a = generate_rsa_keypair(64, rng=LimbRandom(seed=4))
        b = generate_rsa_keypair(64, rng=LimbRandom(seed=4))
        assert a.public_key.n == b.public_key.n
