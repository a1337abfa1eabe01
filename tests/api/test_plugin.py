"""Tests for the python-paillier-style plugin adapter."""

import pytest

from repro.api.plugin import (
    EncryptedNumber,
    generate_accelerated_keypair,
)


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
