"""Tests for the Damgard-Jurik generalized Paillier (paper ref. [21])."""

import pytest

from repro.crypto.damgard_jurik import (
    DamgardJurik,
    generate_damgard_jurik_keypair,
)
from repro.mpint.primes import LimbRandom


@pytest.fixture(scope="module")
def dj_keys():
    rng = LimbRandom(seed=3001)
    return {s: generate_damgard_jurik_keypair(128, s=s, rng=rng)
            for s in (1, 2, 3)}


@pytest.fixture()
def dj_rng():
    return LimbRandom(seed=3002)


class TestRoundtrip:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_encrypt_decrypt(self, dj_keys, dj_rng, s):
        pub = dj_keys[s].public_key
        pri = dj_keys[s].private_key
        for message in (0, 1, 42, pub.plaintext_modulus - 1):
            c = DamgardJurik.raw_encrypt(pub, message, rng=dj_rng)
            assert DamgardJurik.raw_decrypt(pri, c) == message

    def test_large_plaintexts_beyond_paillier(self, dj_keys, dj_rng):
        # s = 3 hosts plaintexts Paillier's n could never hold.
        pub = dj_keys[3].public_key
        pri = dj_keys[3].private_key
        message = (1 << 300) % pub.plaintext_modulus
        assert message.bit_length() > pub.n.bit_length()
        c = DamgardJurik.raw_encrypt(pub, message, rng=dj_rng)
        assert DamgardJurik.raw_decrypt(pri, c) == message

    def test_out_of_range_raises(self, dj_keys, dj_rng):
        pub = dj_keys[2].public_key
        with pytest.raises(ValueError):
            DamgardJurik.raw_encrypt(pub, pub.plaintext_modulus,
                                     rng=dj_rng)
        with pytest.raises(ValueError):
            DamgardJurik.raw_decrypt(dj_keys[2].private_key,
                                     pub.ciphertext_modulus)

    def test_randomized(self, dj_keys, dj_rng):
        pub = dj_keys[2].public_key
        assert DamgardJurik.raw_encrypt(pub, 5, rng=dj_rng) != \
            DamgardJurik.raw_encrypt(pub, 5, rng=dj_rng)


class TestHomomorphism:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_addition(self, dj_keys, dj_rng, s):
        pub, pri = dj_keys[s].public_key, dj_keys[s].private_key
        c1 = DamgardJurik.raw_encrypt(pub, 1111, rng=dj_rng)
        c2 = DamgardJurik.raw_encrypt(pub, 2222, rng=dj_rng)
        assert DamgardJurik.raw_decrypt(
            pri, DamgardJurik.raw_add(pub, c1, c2)) == 3333

    def test_scalar_mul(self, dj_keys, dj_rng):
        pub, pri = dj_keys[2].public_key, dj_keys[2].private_key
        c = DamgardJurik.raw_encrypt(pub, 11, rng=dj_rng)
        assert DamgardJurik.raw_decrypt(
            pri, DamgardJurik.raw_scalar_mul(pub, c, 9)) == 99

    def test_negative_scalar_raises(self, dj_keys, dj_rng):
        pub = dj_keys[2].public_key
        c = DamgardJurik.raw_encrypt(pub, 1, rng=dj_rng)
        with pytest.raises(ValueError):
            DamgardJurik.raw_scalar_mul(pub, c, -1)

    def test_addition_wraps_modulo_ns(self, dj_keys, dj_rng):
        pub, pri = dj_keys[2].public_key, dj_keys[2].private_key
        big = pub.plaintext_modulus - 1
        c1 = DamgardJurik.raw_encrypt(pub, big, rng=dj_rng)
        c2 = DamgardJurik.raw_encrypt(pub, 2, rng=dj_rng)
        assert DamgardJurik.raw_decrypt(
            pri, DamgardJurik.raw_add(pub, c1, c2)) == 1


class TestPaillierCompatibility:
    def test_s1_interoperates_with_paillier_decrypt(self, dj_rng):
        # At s = 1 the two schemes share keys and ciphertext space.
        rng = LimbRandom(seed=3003)
        dj = generate_damgard_jurik_keypair(128, s=1, rng=rng)
        from repro.crypto.keys import (PaillierPublicKey,
                                       PaillierPrivateKey)
        pub = PaillierPublicKey(n=dj.public_key.n, key_bits=128)
        pri = PaillierPrivateKey(p=dj.private_key.p, q=dj.private_key.q,
                                 public_key=pub)
        c = DamgardJurik.raw_encrypt(dj.public_key, 777, rng=dj_rng)
        assert pri.decrypt([c]) == [777]


class TestGeometry:
    def test_key_gen_validation(self):
        with pytest.raises(ValueError):
            generate_damgard_jurik_keypair(128, s=0)

    def test_ciphertext_grows_linearly_in_s(self, dj_keys):
        sizes = [dj_keys[s].public_key.ciphertext_bytes() for s in (1, 2, 3)]
        assert sizes[1] == pytest.approx(1.5 * sizes[0], rel=0.05)
        assert sizes[2] == pytest.approx(2.0 * sizes[0], rel=0.05)
