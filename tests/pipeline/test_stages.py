"""Tests for the Fig. 4 staged pipelines."""

import numpy as np
import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.mpint.primes import LimbRandom
from repro.pipeline import (
    DecryptionPipeline,
    EncryptionPipeline,
)
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker


@pytest.fixture()
def setup(paillier_256):
    engine = CpuPaillierEngine(paillier_256, nominal_bits=1024,
                               rng=LimbRandom(seed=3))
    scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=4)
    packer = BatchPacker(scheme,
                         plaintext_bits=engine.physical_plaintext_bits)
    return engine, packer


class TestEncryptionPipeline:
    def test_stage_names_match_fig4(self, setup):
        engine, packer = setup
        result = EncryptionPipeline(engine, packer).run(np.zeros(10))
        names = [stage.name for stage in result.stages]
        assert names == ["data_conversion", "encode_quantize", "pad_pack",
                         "gpu_compute", "return_conversion"]

    def test_produces_decryptable_ciphertexts(self, setup):
        engine, packer = setup
        values = np.linspace(-0.9, 0.9, 20)
        encrypted = EncryptionPipeline(engine, packer).run(values)
        decrypted = DecryptionPipeline(engine, packer).run(
            encrypted.values, count=20)
        assert np.allclose(decrypted.values, values,
                           atol=packer.scheme.quantization_step)

    def test_compute_stage_dominates(self, setup):
        engine, packer = setup
        result = EncryptionPipeline(engine, packer).run(np.zeros(64))
        assert result.stage_seconds("gpu_compute") > \
            0.5 * result.total_seconds

    def test_total_is_sum_of_stages(self, setup):
        engine, packer = setup
        result = EncryptionPipeline(engine, packer).run(np.zeros(8))
        assert result.total_seconds == pytest.approx(
            sum(stage.seconds for stage in result.stages))


class TestDecryptionPipeline:
    def test_stage_names_match_fig4(self, setup):
        engine, packer = setup
        encrypted = EncryptionPipeline(engine, packer).run(np.zeros(10))
        result = DecryptionPipeline(engine, packer).run(
            encrypted.values, count=10)
        names = [stage.name for stage in result.stages]
        assert names == ["data_conversion", "gpu_compute", "unpack",
                         "unquantize_decode", "return_conversion"]

    def test_aggregated_decode(self, setup):
        engine, packer = setup
        values = np.full(12, 0.25)
        words_a = packer.pack(packer.scheme.encode_array(values))
        words_b = packer.pack(packer.scheme.encode_array(values))
        cipher_a = engine.encrypt_batch(words_a)
        cipher_b = engine.encrypt_batch(words_b)
        summed = engine.add_batch(cipher_a, cipher_b)
        result = DecryptionPipeline(engine, packer).run(summed, count=12,
                                                        summands=2)
        assert np.allclose(result.values, 0.5,
                           atol=2 * packer.scheme.quantization_step)


class TestHomomorphicPipeline:
    def test_stage_seconds_lookup_missing_is_zero(self, setup):
        engine, packer = setup
        result = EncryptionPipeline(engine, packer).run(np.zeros(1))
        assert result.stage_seconds("nonexistent") == 0.0
