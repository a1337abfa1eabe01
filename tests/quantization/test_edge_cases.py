"""Edge-case tests across the quantization layer."""

import numpy as np
import pytest

from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import (
    BatchPacker,
    compression_ratio,
    packing_capacity,
    plaintext_space_utilization,
)


class TestSchemeExtremes:
    def test_minimum_value_bits(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=2, num_parties=2)
        # Four levels only, but encode/decode still invert within a step.
        for value in (-1.0, -0.3, 0.3, 1.0):
            assert abs(scheme.decode(scheme.encode(value)) - value) <= \
                scheme.quantization_step

    def test_huge_value_bits(self):
        # Past ~52 bits the roundtrip is limited by float64 itself, not
        # the quantization step.
        scheme = QuantizationScheme(alpha=1.0, r_bits=200, num_parties=2)
        value = 0.123456789123456789
        assert scheme.decode(scheme.encode(value)) == \
            pytest.approx(value, abs=1e-15)

    def test_tiny_alpha(self):
        scheme = QuantizationScheme(alpha=1e-6, r_bits=20)
        value = 5e-7
        assert scheme.decode(scheme.encode(value)) == \
            pytest.approx(value, abs=scheme.quantization_step)

    def test_huge_alpha(self):
        scheme = QuantizationScheme(alpha=1e9, r_bits=40)
        value = -123456789.0
        assert scheme.decode(scheme.encode(value)) == \
            pytest.approx(value, abs=scheme.quantization_step)

    def test_many_parties(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=16,
                                    num_parties=1024)
        assert scheme.overflow_bits == 10
        total = sum(scheme.encode(0.001) for _ in range(1024))
        assert scheme.decode_sum(total, count=1024) == \
            pytest.approx(1.024, abs=1024 * scheme.quantization_step)

    def test_encode_array_empty(self):
        scheme = QuantizationScheme()
        assert scheme.encode_array(np.array([])) == []

    def test_boundary_rounding_stays_in_range(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=8)
        epsilon = np.nextafter(1.0, 2.0)
        assert 0 <= scheme.encode(epsilon) <= 2 ** 8 - 1
        assert 0 <= scheme.encode(-epsilon) <= 2 ** 8 - 1


class TestPackerExtremes:
    def test_capacity_one(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=2)
        packer = BatchPacker(scheme, plaintext_bits=scheme.slot_bits)
        assert packer.capacity == 1
        values = [1, 2, 3]
        assert packer.unpack(packer.pack(values), 3) == values

    def test_single_huge_word(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=30, num_parties=4)
        packer = BatchPacker(scheme, plaintext_bits=8191)
        assert packer.capacity == 8191 // 32
        values = list(range(packer.capacity))
        word = packer.pack(values)
        assert len(word) == 1
        assert packer.unpack(word, len(values)) == values

    def test_unpack_partial_word_subset(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=8, num_parties=2)
        packer = BatchPacker(scheme, plaintext_bits=255)
        words = packer.pack([5, 6, 7, 8])
        assert packer.unpack(words, 2) == [5, 6]

    def test_theory_degenerate_inputs(self):
        assert packing_capacity(8, 30, 4) == 1        # floor at 1
        assert compression_ratio(1, 1024, 30, 4) == 1.0
        assert plaintext_space_utilization(1, 1024, 30, 4) == \
            pytest.approx(32 / 1024)
