"""Tests for batch compression (paper Eqs. 9, 11-13)."""

import random

import pytest

from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import (
    BatchPacker,
    compression_ratio,
    packing_capacity,
    plaintext_space_utilization,
)


@pytest.fixture()
def scheme():
    return QuantizationScheme(alpha=1.0, r_bits=14, num_parties=4)


@pytest.fixture()
def packer(scheme):
    return BatchPacker(scheme, plaintext_bits=255)


class TestCapacity:
    def test_paper_values(self):
        # Sec. IV-C: r + b = 32 packs 32 / 64 / 128 values.
        assert packing_capacity(1024, 30, 4) == 32
        assert packing_capacity(2048, 30, 4) == 64
        assert packing_capacity(4096, 30, 4) == 128

    def test_minimum_one(self):
        assert packing_capacity(16, 30, 4) == 1

    def test_derived_from_plaintext(self, scheme):
        packer = BatchPacker(scheme, plaintext_bits=255)
        assert packer.capacity == 255 // scheme.slot_bits

    def test_explicit_capacity_validated(self, scheme):
        with pytest.raises(ValueError):
            BatchPacker(scheme, plaintext_bits=64, capacity=100)
        with pytest.raises(ValueError):
            BatchPacker(scheme, plaintext_bits=255, capacity=0)

    def test_plaintext_too_small_raises(self, scheme):
        with pytest.raises(ValueError):
            BatchPacker(scheme, plaintext_bits=scheme.slot_bits - 1)


class TestPackUnpack:
    def test_roundtrip(self, packer):
        values = list(range(40))
        assert packer.unpack(packer.pack(values), 40) == values

    def test_word_count(self, packer):
        words = packer.pack(list(range(packer.capacity * 2 + 1)))
        assert len(words) == 3

    def test_partial_final_word_left_aligned(self, packer):
        words = packer.pack([1])
        # Slot 0 is the most significant: value 1 sits at the top slot.
        shift = packer.slot_bits * (packer.capacity - 1)
        assert words[0] >> shift == 1

    def test_empty(self, packer):
        assert packer.pack([]) == []
        assert packer.unpack([], 0) == []

    def test_unpack_too_few_words_raises(self, packer):
        with pytest.raises(ValueError):
            packer.unpack([], 5)

    def test_out_of_range_encoding_raises(self, packer, scheme):
        with pytest.raises(ValueError):
            packer.pack([1 << scheme.r_bits])
        with pytest.raises(ValueError):
            packer.pack([-1])

    def test_word_fits_plaintext(self, packer, scheme):
        values = [(1 << scheme.r_bits) - 1] * packer.capacity
        word = packer.pack(values)[0]
        assert word.bit_length() <= packer.plaintext_bits


class TestAggregationSafety:
    def test_slotwise_sums_exact(self, packer, scheme):
        rng = random.Random(7)
        bound = 1 << scheme.r_bits
        vectors = [[rng.randrange(bound) for _ in range(50)]
                   for _ in range(4)]   # 4 parties, b = 2 -> safe
        packed = [packer.pack(vector) for vector in vectors]
        summed = [sum(words) for words in zip(*packed)]
        expected = [sum(column) for column in zip(*vectors)]
        assert packer.unpack(summed, 50) == expected

    def test_max_safe_summands(self, packer, scheme):
        assert packer.max_safe_summands() == 2 ** scheme.overflow_bits

    def test_overflow_beyond_reserved_bits_corrupts(self, scheme):
        # Demonstrate WHY the overflow bits exist: summing more vectors
        # than 2^b with all-max values carries into the neighbour slot.
        # Slot 1 is below slot 0 in the Eq. 9 layout, so its overflow
        # carries upward into slot 0.
        packer = BatchPacker(scheme, plaintext_bits=255)
        max_value = (1 << scheme.r_bits) - 1
        words = [packer.pack([0, max_value])[0]
                 for _ in range(packer.max_safe_summands() + 1)]
        corrupted = packer.unpack([sum(words)], 2)
        assert corrupted[0] != 0        # the carry leaked into slot 0


class TestTheory:
    def test_compression_ratio_bounds(self):
        # Eq. 11: the ratio never exceeds k / (r + b).
        for n in (1, 10, 100, 5000):
            ratio = compression_ratio(n, 1024, 30, 4)
            assert ratio <= 1024 / 32 + 1e-9

    def test_compression_ratio_saturates(self):
        assert compression_ratio(32000, 1024, 30, 4) == \
            pytest.approx(32.0, rel=0.01)

    def test_psu_bounded_by_one(self):
        # Eq. 12.
        for n in (1, 31, 32, 33, 1000):
            assert plaintext_space_utilization(n, 1024, 30, 4) <= 1.0 + 1e-12

    def test_psu_full_at_capacity_multiples(self):
        assert plaintext_space_utilization(32, 1024, 30, 4) == \
            pytest.approx(1.0)

    def test_achieved_psu(self, packer):
        n = packer.capacity
        expected = n * packer.slot_bits / packer.plaintext_bits
        assert packer.achieved_psu(n) == pytest.approx(expected)

    def test_zero_values(self, packer):
        assert packer.achieved_psu(0) == 0.0
        assert packer.words_needed(0) == 0

    def test_ratio_grows_with_key_size(self):
        # Fig. 7: compression ratio increases with the key size.
        ratios = [compression_ratio(10_000, k, 30, 4)
                  for k in (1024, 2048, 4096)]
        assert ratios[0] < ratios[1] < ratios[2]
