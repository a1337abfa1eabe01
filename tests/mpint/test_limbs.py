"""Tests for the limb (word-array) representation."""

import pytest

from repro.mpint.limbs import (
    WORD_BITS,
    WORD_MASK,
    LimbVector,
    from_int,
    limbs_for_bits,
    to_int,
)


class TestFromInt:
    def test_zero_is_single_zero_limb(self):
        assert from_int(0) == [0]

    def test_single_word_value(self):
        assert from_int(5) == [5]

    def test_word_boundary_splits(self):
        assert from_int(1 << WORD_BITS) == [0, 1]

    def test_mixed_words_little_endian(self):
        value = (7 << WORD_BITS) | 3
        assert from_int(value) == [3, 7]

    def test_size_pads_with_zeros(self):
        assert from_int(5, size=4) == [5, 0, 0, 0]

    def test_size_too_small_raises(self):
        with pytest.raises(OverflowError):
            from_int(1 << (2 * WORD_BITS), size=2)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            from_int(-1)

    def test_custom_word_bits(self):
        assert from_int(0x1234, word_bits=8) == [0x34, 0x12]


class TestToInt:
    def test_roundtrip_large(self):
        value = 0xDEADBEEF_CAFEBABE_12345678
        assert to_int(from_int(value)) == value

    def test_ignores_leading_zero_limbs(self):
        assert to_int([5, 0, 0]) == 5

    def test_masks_oversized_limbs(self):
        # to_int treats each limb modulo the word size.
        assert to_int([WORD_MASK + 1]) == 0


class TestLimbsForBits:
    def test_exact_boundary(self):
        assert limbs_for_bits(WORD_BITS) == 1
        assert limbs_for_bits(WORD_BITS + 1) == 2

    def test_1024_bit_key(self):
        assert limbs_for_bits(1024) == 1024 // WORD_BITS

    def test_zero_bits_needs_one_limb(self):
        assert limbs_for_bits(0) == 1


class TestLimbVector:
    def test_roundtrip(self):
        vector = LimbVector.from_int(123456789)
        assert vector.to_int() == 123456789

    def test_equality_with_int(self):
        assert LimbVector.from_int(42) == 42

    def test_equality_ignores_padding(self):
        assert LimbVector.from_int(7, size=4) == LimbVector.from_int(7)

    def test_resized(self):
        vector = LimbVector.from_int(9).resized(8)
        assert len(vector) == 8
        assert vector.to_int() == 9

    def test_split_even(self):
        vector = LimbVector.from_int(1, size=8)
        parts = vector.split(4)
        assert len(parts) == 4
        assert all(len(part) == 2 for part in parts)
        assert parts[0] == [1, 0]

    def test_split_uneven_raises(self):
        with pytest.raises(ValueError):
            LimbVector.from_int(1, size=6).split(4)

    def test_empty_becomes_zero(self):
        assert LimbVector([]).to_int() == 0
