"""Tests for the python-paillier-style plugin adapter."""

import pytest

from repro.api.plugin import (
    EncryptedNumber,
    generate_accelerated_keypair,
)
from repro.counters import OBFUSCATORS, counted
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime

#: Distinct plaintext words, more than the runtime's pool of 32 powers.
WORDS = [7 * i + 3 for i in range(64)]


def shared_randomizers(public_key, ciphertexts):
    """The plaintext difference each pair ``(i, j)`` of ``ciphertexts``
    leaks to anyone holding ``public_key``.

    ``c_i / c_j mod n^2`` is ``(1 + n)^(m_i - m_j) (r_i / r_j)^n``: when
    the two share ``r^n`` it is ``1 + (m_i - m_j) n``, and ``m_i - m_j
    mod n`` is read off it.  Fresh randomizers leave no such pair.
    """
    n, n_squared = public_key.n, public_key.n_squared
    inverses = [pow(c, -1, n_squared) for c in ciphertexts]
    quotients = {(i, j): c * inverses[j] % n_squared
                 for i, c in enumerate(ciphertexts)
                 for j in range(i + 1, len(ciphertexts))}
    return {pair: (q - 1) // n for pair, q in quotients.items() if q % n == 1}


@pytest.fixture(scope="module")
def keypair():
    return generate_accelerated_keypair(
        key_bits=1024, alpha=1024.0, r_bits=40, max_summands=64,
        physical_key_bits=256, seed=71)


class TestScalarInterface:
    def test_roundtrip(self, keypair):
        public, private = keypair
        for value in (0.0, 3.25, -511.5, 1023.0):
            assert private.decrypt(public.encrypt(value)) == \
                pytest.approx(value, abs=1e-6)

    def test_addition(self, keypair):
        public, private = keypair
        total = public.encrypt(3.25) + public.encrypt(-1.25)
        assert private.decrypt(total) == pytest.approx(2.0, abs=1e-6)

    def test_add_plain(self, keypair):
        public, private = keypair
        assert private.decrypt(public.encrypt(10.0) + 5.5) == \
            pytest.approx(15.5, abs=1e-6)
        assert private.decrypt(2.5 + public.encrypt(1.0)) == \
            pytest.approx(3.5, abs=1e-6)

    def test_scalar_multiplication(self, keypair):
        public, private = keypair
        assert private.decrypt(public.encrypt(2.5) * 3) == \
            pytest.approx(7.5, abs=1e-5)
        assert private.decrypt(3 * public.encrypt(-2.0)) == \
            pytest.approx(-6.0, abs=1e-5)

    def test_float_scalar_rejected(self, keypair):
        public, _private = keypair
        with pytest.raises(ValueError):
            public.encrypt(1.0) * 0.5

    def test_long_sums_track_offsets(self, keypair):
        public, private = keypair
        numbers = [public.encrypt(float(i)) for i in range(10)]
        total = numbers[0]
        for number in numbers[1:]:
            total = total + number
        assert private.decrypt(total) == pytest.approx(45.0, abs=1e-5)

    def test_summand_overflow_guard(self, keypair):
        public, private = keypair
        total = public.encrypt(0.0)
        for _ in range(public.max_summands):
            total = total + public.encrypt(0.0)
        with pytest.raises(OverflowError):
            private.decrypt(total)

    def test_mixed_keys_rejected(self, keypair):
        public, _ = keypair
        other_public, _ = generate_accelerated_keypair(
            key_bits=1024, physical_key_bits=256, seed=99)
        with pytest.raises(ValueError):
            public.encrypt(1.0) + other_public.encrypt(1.0)


class TestBatchInterface:
    def test_encrypt_many_roundtrip(self, keypair):
        public, private = keypair
        values = [1.5, -2.25, 100.0, 0.0]
        numbers = public.encrypt_many(values)
        assert all(isinstance(n, EncryptedNumber) for n in numbers)
        assert private.decrypt_many(numbers) == \
            pytest.approx(values, abs=1e-5)

    def test_batch_is_single_launch_per_stage(self, keypair):
        public, _private = keypair
        device = public._engine.kernels.device
        before = device.launches
        public.encrypt_many([1.0] * 64)
        launches = device.launches - before
        assert launches <= 3          # g^m charge + r^n charge + final mul


class TestConfiguration:
    def test_precision_follows_r_bits(self):
        coarse_pub, coarse_pri = generate_accelerated_keypair(
            key_bits=1024, alpha=1024.0, r_bits=16,
            physical_key_bits=256, seed=72)
        value = 123.456789
        coarse_error = abs(coarse_pri.decrypt(coarse_pub.encrypt(value))
                           - value)
        fine_pub, fine_pri = generate_accelerated_keypair(
            key_bits=1024, alpha=1024.0, r_bits=48,
            physical_key_bits=256, seed=72)
        fine_error = abs(fine_pri.decrypt(fine_pub.encrypt(value)) - value)
        assert fine_error < coarse_error

    def test_oversized_slot_rejected(self):
        with pytest.raises(ValueError):
            generate_accelerated_keypair(key_bits=1024, r_bits=300,
                                         physical_key_bits=256, seed=73)


class TestFreshRandomizers:
    def test_a_runtime_at_its_default_pool_leaks_differences(self):
        """The positive control: the runtime's 32 pooled powers cycle,
        so each word shares its r^n with the word 32 places on."""
        engine = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                   key_bits=1024,
                                   physical_key_bits=256).client_engine
        assert engine.randomizer_pool_size == 32
        assert shared_randomizers(
            engine.public_key, engine.encrypt_batch(WORDS)) == {
                (i, i + 32): (WORDS[i] - WORDS[i + 32]) % engine.public_key.n
                for i in range(32)}

    def test_fresh_randomizers_leave_no_pair(self):
        engine = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=4, key_bits=1024,
            physical_key_bits=256, randomizer_pool_size=0).client_engine
        with counted() as added:
            words = engine.encrypt_batch(WORDS)
        assert added[OBFUSCATORS] == len(words)
        assert shared_randomizers(engine.public_key, words) == {}

    def test_the_plugin_computes_one_obfuscator_per_ciphertext(self,
                                                               keypair):
        """A python-paillier drop-in must be semantically secure."""
        public, _private = keypair
        with counted() as added:
            numbers = public.encrypt_many([w / 64 for w in WORDS])
            numbers += [public.encrypt(0.5) for _ in range(4)]
        words = [number.ciphertext for number in numbers]
        assert added[OBFUSCATORS] == len(words) == 68
        assert shared_randomizers(public._engine.public_key, words) == {}
