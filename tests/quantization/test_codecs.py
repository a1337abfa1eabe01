"""Unit tests for the packing-codec table and the two new layouts."""

import numpy as np
import pytest

from repro.quantization.codecs import (
    CODECS,
    DEFAULT_EXTRA_GUARD_BITS,
    MAX_GUARD_BITS,
    MAX_SPARSE_VALUE_BITS,
    InterleavedCodec,
    SparseCodec,
    build_codec,
    get_codec,
)
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import (BatchPacker, CodecCapabilities,
                                        SlotCodec)
from repro.tensor.meta import TensorMeta

from tests.conftest import concrete_subclasses

SCHEME = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=8)


def _meta(codec="dense", codec_params=(), count=8, capacity=4,
          scheme=SCHEME):
    return TensorMeta(
        key_fingerprint=b"\x00" * 16, nominal_bits=2048,
        physical_bits=2048, scheme=scheme, capacity=capacity,
        shape=(count,), count=count, codec=codec, codec_params=codec_params)


class TestCodecTable:
    def test_builtin_codecs_are_in_the_table(self):
        assert CODECS["dense"] is BatchPacker
        assert CODECS["interleave"] is InterleavedCodec
        assert CODECS["sparse"] is SparseCodec

    def test_every_slot_codec_is_in_the_table(self):
        assert set(CODECS.values()) == concrete_subclasses(
            SlotCodec, "repro.quantization")
        assert all(CODECS[cls.codec_id] is cls for cls in CODECS.values())

    def test_unknown_codec_id_raises(self):
        with pytest.raises(ValueError, match="unknown packing codec"):
            get_codec("zstd")

    def test_build_codec_dispatches_on_meta(self):
        assert isinstance(build_codec(_meta()), BatchPacker)
        guard = SCHEME.overflow_bits + 4
        assert isinstance(
            build_codec(_meta("interleave", (guard,))), InterleavedCodec)
        assert isinstance(
            build_codec(_meta("sparse", (8, 1, 5))), SparseCodec)


class TestDenseProtocol:
    def test_codec_identity(self):
        packer = BatchPacker(SCHEME, plaintext_bits=512)
        assert packer.codec_id == "dense"
        assert packer.codec_params() == ()

    def test_from_meta_rejects_stray_params(self):
        meta = _meta("interleave", (SCHEME.overflow_bits,))
        with pytest.raises(ValueError, match="no wire parameters"):
            BatchPacker.from_meta(meta)

    def test_describe(self):
        packer = BatchPacker(SCHEME, plaintext_bits=512)
        caps = packer.describe()
        assert caps == CodecCapabilities(
            slot_layout="dense-msb",
            summand_capacity=2 ** SCHEME.overflow_bits,
            add_safe=True, sliceable=True)


class TestInterleavedCodec:
    def test_default_guard_band(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=512)
        assert codec.guard_bits == (SCHEME.overflow_bits
                                    + DEFAULT_EXTRA_GUARD_BITS)
        assert codec.slot_bits == SCHEME.r_bits + codec.guard_bits
        assert codec.capacity == 512 // codec.slot_bits

    def test_guard_band_below_eq8_minimum_rejected(self):
        with pytest.raises(ValueError, match="cannot be below"):
            InterleavedCodec(SCHEME, plaintext_bits=512,
                             guard_bits=SCHEME.overflow_bits - 1)

    def test_absurd_guard_band_rejected(self):
        with pytest.raises(ValueError, match="unreasonable"):
            InterleavedCodec(SCHEME, plaintext_bits=8192,
                             guard_bits=MAX_GUARD_BITS + 1)

    def test_plaintext_too_small_for_one_slot(self):
        with pytest.raises(ValueError, match="cannot hold"):
            InterleavedCodec(SCHEME, plaintext_bits=8)

    def test_pack_unpack_roundtrip(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=256)
        encoded = SCHEME.encode_array(
            np.linspace(-1.0, 1.0, 23))
        assert codec.unpack(codec.pack(encoded), 23) == encoded

    def test_out_of_range_encoding_rejected(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=256)
        with pytest.raises(ValueError, match="value range"):
            codec.pack([1 << SCHEME.r_bits])

    def test_unpack_with_too_few_words(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=256)
        with pytest.raises(ValueError, match="need"):
            codec.unpack([], 5)

    def test_guard_band_raises_summand_capacity(self):
        dense = BatchPacker(SCHEME, plaintext_bits=512)
        wide = InterleavedCodec(SCHEME, plaintext_bits=512)
        assert wide.max_safe_summands() == 2 ** wide.guard_bits
        assert wide.max_safe_summands() > dense.max_safe_summands()

    def test_wire_roundtrip_via_meta(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=512, guard_bits=7)
        meta = _meta("interleave", codec.codec_params(),
                     capacity=codec.capacity)
        rebuilt = InterleavedCodec.from_meta(meta)
        assert rebuilt.guard_bits == 7
        assert rebuilt.capacity == codec.capacity
        assert rebuilt.codec_params() == codec.codec_params()

    def test_from_meta_wrong_param_count(self):
        with pytest.raises(ValueError, match="one parameter"):
            _meta("interleave", (4, 5))

    def test_from_meta_implausible_guard(self):
        with pytest.raises(ValueError, match="implausible guard"):
            _meta("interleave", (MAX_GUARD_BITS + 1,))

    def test_decode_words_overflow_one_past_guard(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=256,
                                 guard_bits=SCHEME.overflow_bits)
        limit = codec.max_safe_summands()
        words = codec.pack_values(np.zeros(4))
        summed = [w * limit for w in words]
        codec.decode_words(summed, 4, summands=limit)  # at the limit: fine
        with pytest.raises(OverflowError, match="guard band"):
            codec.decode_words(summed, 4, summands=limit + 1)

    def test_describe(self):
        codec = InterleavedCodec(SCHEME, plaintext_bits=256)
        caps = codec.describe()
        assert caps.slot_layout == "interleave-lsb"
        assert caps.sliceable is True
        assert caps.summand_capacity == codec.max_safe_summands()


class TestSparseCodec:
    def test_for_values_derives_pattern_and_width(self):
        values = np.zeros(100)
        values[[3, 41, 77]] = [0.5, -0.25, 0.125]
        codec = SparseCodec.for_values(values, SCHEME,
                                       plaintext_bits=2048)
        assert codec.indices == (3, 41, 77)
        assert codec.nnz == 3
        e0 = SCHEME.encode(0.0)
        max_offset = max(abs(SCHEME.encode(v) - e0)
                         for v in (0.5, -0.25, 0.125))
        assert codec.value_bits == max(2, max_offset.bit_length() + 1)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="value width"):
            SparseCodec(SCHEME, 2048, indices=(1,), value_bits=0)
        with pytest.raises(ValueError, match="value width"):
            SparseCodec(SCHEME, 2048, indices=(1,),
                        value_bits=MAX_SPARSE_VALUE_BITS + 1)
        with pytest.raises(ValueError, match="non-negative"):
            SparseCodec(SCHEME, 2048, indices=(-1, 2), value_bits=8)
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseCodec(SCHEME, 2048, indices=(2, 2), value_bits=8)
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseCodec(SCHEME, 2048, indices=(5, 2), value_bits=8)

    def test_pack_rejects_off_pattern_nonzero(self):
        values = np.zeros(10)
        values[4] = 0.5
        codec = SparseCodec.for_values(values, SCHEME, 2048)
        rogue = values.copy()
        rogue[7] = 0.25  # quantizes away from zero, not in the pattern
        with pytest.raises(ValueError, match="not in the sparse pattern"):
            codec.pack(SCHEME.encode_array(rogue))

    def test_pack_rejects_pattern_beyond_input(self):
        codec = SparseCodec(SCHEME, 2048, indices=(2, 9), value_bits=8)
        with pytest.raises(ValueError, match="beyond"):
            codec.pack(SCHEME.encode_array(np.zeros(5)))

    def test_empty_support_ships_one_zero_word(self):
        codec = SparseCodec.for_values(np.zeros(50), SCHEME, 2048)
        assert codec.nnz == 0
        assert codec.pack_values(np.zeros(50)) == [0]
        decoded = codec.decode_words([0], 50)
        assert np.array_equal(decoded, SCHEME.decode_array(
            [SCHEME.encode(0.0)] * 50))

    def test_unpack_reconstructs_full_length_vector(self):
        values = np.zeros(30)
        values[[0, 11, 29]] = [0.75, -0.5, 1.0]
        codec = SparseCodec.for_values(values, SCHEME, 2048)
        encoded = SCHEME.encode_array(values)
        assert codec.unpack(codec.pack(encoded), 30) == encoded

    def test_words_driven_by_pattern_not_count(self):
        values = np.zeros(10_000)
        values[:10] = 0.5
        codec = SparseCodec.for_values(values, SCHEME, 2048)
        assert codec.words_needed(10_000) == 1
        dense = BatchPacker(SCHEME, plaintext_bits=2048)
        assert dense.words_needed(10_000) > 50 * codec.words_needed(10_000)

    def test_decode_words_overflow_one_past(self):
        values = np.zeros(8)
        values[2] = 0.5
        codec = SparseCodec.for_values(values, SCHEME, 2048)
        limit = codec.max_safe_summands()
        words = codec.pack_values(values)
        with pytest.raises(OverflowError, match="summands exceed"):
            codec.decode_words(words, 8, summands=limit + 1)

    def test_wire_roundtrip_via_meta(self):
        values = np.zeros(16)
        values[[1, 6]] = [0.5, -0.5]
        codec = SparseCodec.for_values(values, SCHEME, 2048)
        meta = _meta("sparse", codec.codec_params(), count=16,
                     capacity=codec.capacity)
        rebuilt = SparseCodec.from_meta(meta)
        assert rebuilt.indices == codec.indices
        assert rebuilt.value_bits == codec.value_bits
        assert rebuilt.codec_params() == codec.codec_params()

    def test_from_meta_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            _meta("sparse", (8, 3, 20), count=16)

    def test_from_meta_needs_value_width(self):
        with pytest.raises(ValueError, match="value width"):
            _meta("sparse", ())

    def test_describe_not_sliceable(self):
        codec = SparseCodec(SCHEME, 2048, indices=(1,), value_bits=8)
        caps = codec.describe()
        assert caps.slot_layout == "sparse-pairs"
        assert caps.sliceable is False


class TestMetaCodecAlgebra:
    def test_unknown_codec_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown packing codec"):
            _meta("zstd")

    def test_codec_params_coerced_to_int_tuple(self):
        meta = _meta("interleave", [np.int64(SCHEME.overflow_bits + 1)])
        assert meta.codec_params == (SCHEME.overflow_bits + 1,)
        assert all(type(p) is int for p in meta.codec_params)

    def test_summand_capacity_per_codec(self):
        b = SCHEME.overflow_bits
        assert _meta().summand_capacity() == 2 ** b
        assert _meta("interleave", (b + 8,)).summand_capacity() == 2 ** (b + 8)
        assert _meta("sparse", (8, 1)).summand_capacity() == 2 ** b

    def test_combine_add_rejects_codec_mismatch(self):
        dense = _meta()
        inter = _meta("interleave", (SCHEME.overflow_bits + 8,))
        with pytest.raises(ValueError, match="codec mismatch"):
            dense.combine_add(inter)

    def test_combine_add_rejects_pattern_mismatch(self):
        left = _meta("sparse", (8, 1, 5))
        right = _meta("sparse", (8, 2, 5))
        with pytest.raises(ValueError, match="parameter mismatch"):
            left.combine_add(right)

    def test_combine_add_same_pattern_adds_summands(self):
        left = _meta("sparse", (8, 1, 5))
        combined = left.combine_add(left)
        assert combined.summands == 2

    def test_sparse_meta_not_sliceable_or_summable(self):
        meta = _meta("sparse", (8, 1, 5))
        with pytest.raises(ValueError, match="not sliceable"):
            meta.sliced(0, 4)
        flat = _meta("sparse", (8, 1, 5), capacity=1)
        with pytest.raises(ValueError, match="sparse"):
            flat.summed(2)

    def test_num_words_consults_the_codec(self):
        sparse = _meta("sparse", (8, 1, 5), count=8, capacity=4)
        assert sparse.num_words == 1  # 2 stored values, 4 per word
        assert _meta(count=8, capacity=4).num_words == 2
