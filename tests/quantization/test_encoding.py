"""Tests for encoding-quantization (paper Eqs. 6-8)."""

import numpy as np
import pytest

from repro.quantization.encoding import (
    QuantizationScheme,
)


class TestSchemeConstruction:
    def test_overflow_bits_from_parties(self):
        assert QuantizationScheme(num_parties=2).overflow_bits == 1
        assert QuantizationScheme(num_parties=4).overflow_bits == 2
        assert QuantizationScheme(num_parties=5).overflow_bits == 3
        assert QuantizationScheme(num_parties=64).overflow_bits == 6

    def test_single_party_still_reserves_a_bit(self):
        assert QuantizationScheme(num_parties=1).overflow_bits == 1

    def test_slot_bits(self):
        scheme = QuantizationScheme(r_bits=30, num_parties=4)
        assert scheme.slot_bits == 32      # the paper's 30 + 2 layout

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            QuantizationScheme(alpha=0.0)
        with pytest.raises(ValueError):
            QuantizationScheme(r_bits=1)
        with pytest.raises(ValueError):
            QuantizationScheme(num_parties=0)


class TestEncodeDecode:
    def test_roundtrip_within_step(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=16)
        for value in (-1.0, -0.5, 0.0, 0.123, 0.999, 1.0):
            decoded = scheme.decode(scheme.encode(value))
            assert abs(decoded - value) <= scheme.quantization_step

    def test_bounds_map_to_extremes(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=8)
        assert scheme.encode(-1.0) == 0
        assert scheme.encode(1.0) == 2 ** 8 - 1

    def test_clipping_outside_alpha(self):
        scheme = QuantizationScheme(alpha=0.5, r_bits=8)
        assert scheme.encode(10.0) == 2 ** 8 - 1
        assert scheme.encode(-10.0) == 0

    def test_encoding_is_unsigned_r_bits(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=10)
        rng = np.random.default_rng(0)
        for value in rng.uniform(-1, 1, 200):
            encoded = scheme.encode(float(value))
            assert 0 <= encoded < (1 << 10)

    def test_more_bits_less_error(self):
        coarse = QuantizationScheme(alpha=1.0, r_bits=8)
        fine = QuantizationScheme(alpha=1.0, r_bits=24)
        value = 0.123456789
        assert abs(fine.decode(fine.encode(value)) - value) < \
            abs(coarse.decode(coarse.encode(value)) - value)

    def test_paper_default_quantization_negligible(self):
        # Sec. IV-B: with >= 30 bits the error is "small enough to be
        # negligible".
        scheme = QuantizationScheme(alpha=1.0, r_bits=30)
        assert scheme.quantization_step < 2e-9


class TestAggregation:
    def test_sum_decoding(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=20, num_parties=4)
        values = [0.5, -0.25, 0.1, -0.05]
        total = sum(scheme.encode(v) for v in values)
        decoded = scheme.decode_sum(total, count=len(values))
        assert abs(decoded - sum(values)) <= \
            len(values) * scheme.quantization_step

    def test_sum_count_exceeding_overflow_bits_raises(self):
        scheme = QuantizationScheme(num_parties=2)   # b = 1 -> max 2
        with pytest.raises(OverflowError):
            scheme.decode_sum(100, count=3)

    def test_sum_count_zero_raises(self):
        with pytest.raises(ValueError):
            QuantizationScheme().decode_sum(0, count=0)


class TestVectorInterface:
    def test_array_roundtrip(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=2)
        values = np.linspace(-1, 1, 64)
        decoded = scheme.decode_array(scheme.encode_array(values))
        assert np.allclose(decoded, values, atol=scheme.quantization_step)

    def test_array_matches_scalar_path(self):
        scheme = QuantizationScheme(alpha=1.0, r_bits=12)
        values = np.array([-0.9, -0.1, 0.0, 0.4, 0.77])
        assert scheme.encode_array(values) == \
            [scheme.encode(float(v)) for v in values]

    def test_encodings_are_python_ints(self):
        # numpy int64 would overflow at r > 62; must be arbitrary precision.
        scheme = QuantizationScheme(alpha=1.0, r_bits=50)
        encoded = scheme.encode_array(np.array([1.0]))
        assert type(encoded[0]) is int

    @pytest.mark.parametrize("r_bits", [12, 30, 62, 63, 200])
    def test_array_matches_the_value_by_value_conversion(self, r_bits):
        """Encodings under 2^63 convert through int64, wider ones value
        by value: both equal the plain per-value int()."""
        scheme = QuantizationScheme(alpha=0.75, r_bits=r_bits)
        values = np.concatenate([[-2.0, -0.75, 0.0, 0.75, 3.0],
                                 np.linspace(-0.8, 0.8, 59)])
        scaled = np.rint((np.clip(values, -0.75, 0.75) + 0.75)
                         * scheme.scale)
        encoded = scheme.encode_array(values)
        assert encoded == [int(v) for v in scaled]
        assert all(type(v) is int for v in encoded)

    def test_nan_is_rejected_not_encoded(self):
        with pytest.raises(ValueError, match="NaN"):
            QuantizationScheme(r_bits=30).encode_array(
                np.array([0.5, np.nan]))

    def test_decode_array_count_validation(self):
        with pytest.raises(ValueError):
            QuantizationScheme().decode_array([1], count=0)


class TestLegacyEncoding:
    def test_secure_scheme_leaks_nothing_comparable(self):
        # The Eq. 6-8 encoding of any in-range value is a plain unsigned
        # integer with no plaintext side-channel: every output lies in the
        # same [0, 2^r) set regardless of magnitude.
        scheme = QuantizationScheme(alpha=1.0, r_bits=16)
        small = scheme.encode(1e-6)
        large = scheme.encode(0.999)
        assert 0 <= small < 2 ** 16
        assert 0 <= large < 2 ** 16
