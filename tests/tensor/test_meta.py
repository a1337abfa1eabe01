"""Tests for TensorMeta: validation and the summand algebra."""

from dataclasses import replace

import pytest

from repro.quantization.encoding import QuantizationScheme
from repro.tensor.meta import KeyMismatchError, TensorMeta, key_fingerprint
from repro.tensor.plain import PLAINTEXT_FINGERPRINT


def make_meta(count=8, capacity=4, summands=1, shape=None,
              fingerprint=PLAINTEXT_FINGERPRINT, num_parties=8):
    scheme = QuantizationScheme(alpha=1.0, r_bits=16,
                                num_parties=num_parties)
    return TensorMeta(
        key_fingerprint=fingerprint, nominal_bits=128, physical_bits=128,
        scheme=scheme, capacity=capacity,
        shape=shape if shape is not None else (count,), count=count,
        summands=summands, packed=capacity > 1)


class TestValidation:
    def test_bad_fingerprint_length(self):
        with pytest.raises(ValueError):
            make_meta(fingerprint=b"\x00" * 8)

    def test_shape_count_mismatch(self):
        with pytest.raises(ValueError):
            make_meta(count=8, shape=(3, 3))

    def test_multidim_shape_accepted(self):
        meta = make_meta(count=12, shape=(3, 4))
        assert meta.num_words == 3

    def test_zero_summands_rejected(self):
        with pytest.raises(ValueError):
            make_meta(summands=0)

    def test_num_words_rounds_up(self):
        assert make_meta(count=9, capacity=4).num_words == 3
        assert make_meta(count=8, capacity=4).num_words == 2
        assert make_meta(count=0, capacity=4, shape=(0,)).num_words == 0

    def test_scheme_id_is_stable(self):
        assert make_meta().scheme_id == "eq9:a1:r16:p8"


class TestKeyFingerprint:
    def test_sixteen_bytes(self, paillier_128):
        assert len(key_fingerprint(paillier_128.public_key)) == 16

    def test_distinct_keys_distinct_fingerprints(self, paillier_128,
                                                 paillier_256):
        assert key_fingerprint(paillier_128.public_key) != \
            key_fingerprint(paillier_256.public_key)


class TestSummandAlgebra:
    def test_add_sums_summands(self):
        combined = make_meta(summands=2).combine_add(make_meta(summands=3))
        assert combined.summands == 5

    def test_add_cross_key_raises(self, paillier_128):
        other = make_meta(
            fingerprint=key_fingerprint(paillier_128.public_key))
        with pytest.raises(KeyMismatchError):
            make_meta().combine_add(other)

    def test_add_layout_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_meta(capacity=4).combine_add(make_meta(capacity=1))

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_meta(count=8).combine_add(make_meta(count=4))

    def test_scale_multiplies_summands(self):
        assert make_meta(summands=2).scaled(3).summands == 6

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_meta().scaled(0)

    def test_sum_needs_capacity_one(self):
        with pytest.raises(ValueError):
            make_meta(capacity=4).summed(2)
        summed = make_meta(count=6, capacity=1).summed(6)
        assert summed.count == 1
        assert summed.summands == 6

    def test_sum_at_the_summand_capacity_passes(self):
        # num_parties=8 -> three guard bits -> eight summands.
        meta = make_meta(count=8, capacity=1)
        assert meta.summand_capacity() == 8
        assert meta.summed(8).summands == 8
        assert make_meta(count=4, capacity=1, summands=2).summed(4) \
            .summands == 8

    def test_sum_one_past_the_summand_capacity_raises(self):
        with pytest.raises(ValueError, match="capacity of 8"):
            make_meta(count=9, capacity=1).summed(9)
        with pytest.raises(ValueError, match="10 summands"):
            make_meta(count=5, capacity=1, summands=2).summed(5)

    def test_sum_honours_the_interleave_codecs_wider_band(self):
        dense = make_meta(count=33, capacity=1)
        wide = replace(dense, codec="interleave", codec_params=(5,))
        assert wide.summand_capacity() == 32
        assert wide.summed(32).summands == 32
        with pytest.raises(ValueError, match="'interleave' codec"):
            wide.summed(33)
        with pytest.raises(ValueError, match="'dense' codec"):
            dense.summed(32)


class TestSlicing:
    def test_word_aligned_slice(self):
        meta = make_meta(count=12, capacity=4)
        sliced = meta.sliced(4, 12)
        assert sliced.count == 8
        assert sliced.num_words == 2

    def test_ragged_tail_slice_allowed(self):
        meta = make_meta(count=10, capacity=4)
        assert meta.sliced(8, 10).count == 2

    def test_misaligned_start_raises(self):
        with pytest.raises(IndexError):
            make_meta(count=12, capacity=4).sliced(2, 8)

    def test_misaligned_stop_raises(self):
        with pytest.raises(IndexError):
            make_meta(count=12, capacity=4).sliced(0, 6)

    def test_capacity_one_any_slice(self):
        meta = make_meta(count=7, capacity=1)
        assert meta.sliced(3, 6).count == 3
