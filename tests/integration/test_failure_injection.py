"""Failure-injection tests: what breaks when invariants are violated.

The reproduction's safety arguments (overflow bits, plaintext bounds,
slot budgets) each have a corresponding *demonstrated failure* here, so a
regression that silently relaxes a check will surface.
"""

import numpy as np
import pytest

from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker

from tests.conftest import encrypt_fresh


class TestOverflowProtection:
    def test_aggregating_too_many_parties_rejected(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=256, physical_key_bits=256)
        safe = runtime.plan.packer.max_safe_summands()
        with pytest.raises(OverflowError):
            runtime.aggregator.aggregate([np.zeros(4)] * (safe + 1))

    def test_decode_sum_rejects_excess_count(self):
        scheme = QuantizationScheme(num_parties=4)   # b = 2 -> max 4
        with pytest.raises(OverflowError):
            scheme.decode_sum(0, count=5)

    def test_slot_overflow_detected_by_construction_limits(self):
        scheme = QuantizationScheme(r_bits=30, num_parties=4)
        with pytest.raises(ValueError):
            BatchPacker(scheme, plaintext_bits=16)   # can't host one slot


class TestCiphertextTampering:
    def test_bit_flipped_ciphertext_decrypts_garbage(self, paillier_128,
                                                     rng):
        pub, pri = paillier_128.public_key, paillier_128.private_key
        [c] = encrypt_fresh(pub, [42], rng)
        tampered = c ^ (1 << 10)
        # Paillier is malleable: tampering never errors, it corrupts.
        assert pri.decrypt([tampered]) != [42]

    def test_wrong_key_decrypts_garbage(self, paillier_128, paillier_256,
                                        rng):
        [c] = encrypt_fresh(paillier_128.public_key, [42], rng)
        wrong = paillier_256.private_key.decrypt(
            [c % paillier_256.public_key.n_squared])
        assert wrong != [42]


class TestQuantizationDegradation:
    def test_out_of_bound_gradients_clip_not_crash(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        huge = np.array([1e6, -1e6, 0.5])
        result = runtime.aggregator.aggregate([huge, np.zeros(3)])
        # Clipped to [-alpha, alpha]: the sum saturates instead of wrapping.
        assert abs(result[0] - 1.0) < 0.1
        assert abs(result[1] + 1.0) < 0.1

    def test_nan_inputs_raise_or_clip(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        bad = np.array([np.nan, 0.0])
        with pytest.raises((ValueError, OverflowError)):
            runtime.aggregator.aggregate([bad, np.zeros(2)])


class TestEngineInputValidation:
    def test_plaintext_beyond_modulus_rejected(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        n = runtime.client_engine.public_key.n
        with pytest.raises(ValueError):
            runtime.client_engine.encrypt_batch([n + 1])
