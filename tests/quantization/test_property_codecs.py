"""Property-based tests (hypothesis) for the packing-codec registry.

Satellite of the codec-layer issue: every registered codec must satisfy

1. pack -> unpack identity on random values and shapes,
2. homomorphic addition correctness up to ``max_safe_summands()``,
3. overflow detection exactly one summand past the limit,
4. cross-codec decode bit-identity: ``decode(encode(x))`` produces the
   same floats no matter which layout carried the encodings,
5. one word count: the meta, the packer's output and ``words_needed``
   agree for every input length, the empty array included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization.codecs import InterleavedCodec, SparseCodec
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker
from repro.tensor.plain import PlainTensor

PLAINTEXT_BITS = 512

r_bits_strategy = st.integers(min_value=4, max_value=20)
parties_strategy = st.integers(min_value=2, max_value=16)
unit_floats = st.floats(min_value=-1.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)
value_lists = st.lists(unit_floats, min_size=1, max_size=50)


def _scheme(r_bits, parties):
    return QuantizationScheme(alpha=1.0, r_bits=r_bits,
                              num_parties=parties)


def _all_codecs(scheme, values):
    """One instance of every registered layout for this input."""
    return [
        BatchPacker(scheme, plaintext_bits=PLAINTEXT_BITS),
        InterleavedCodec(scheme, plaintext_bits=PLAINTEXT_BITS),
        SparseCodec.for_values(np.asarray(values), scheme,
                               plaintext_bits=PLAINTEXT_BITS),
    ]


# ----------------------------------------------------------------------
# 1. pack -> unpack identity.
# ----------------------------------------------------------------------

@settings(max_examples=40)
@given(value_lists, r_bits_strategy, parties_strategy)
def test_pack_unpack_identity_every_codec(values, r_bits, parties):
    scheme = _scheme(r_bits, parties)
    encoded = scheme.encode_array(np.array(values))
    for codec in _all_codecs(scheme, values):
        words = codec.pack(encoded)
        assert codec.unpack(words, len(encoded)) == encoded, codec.codec_id


# ----------------------------------------------------------------------
# 2. homomorphic-add correctness up to max_safe_summands().
# ----------------------------------------------------------------------

@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=24),
       st.sampled_from([2, 4]),
       st.data())
def test_summed_words_decode_to_the_slotwise_sum(length, parties, data):
    """Slot-wise word sums decode exactly like encoding-level sums.

    ``parties`` in {2, 4} keeps ``2**b`` small enough to exercise the
    codec *at* its dense/sparse summand limit.
    """
    scheme = _scheme(16, parties)
    grads = [
        np.array(data.draw(st.lists(unit_floats, min_size=length,
                                    max_size=length)))
        for _ in range(parties)
    ]
    encoded = [scheme.encode_array(g) for g in grads]
    expected_slots = [sum(column) for column in zip(*encoded)]
    expected = scheme.decode_array(expected_slots, count=parties)
    codecs = [
        BatchPacker(scheme, plaintext_bits=PLAINTEXT_BITS),
        InterleavedCodec(scheme, plaintext_bits=PLAINTEXT_BITS),
        _sparse_for_union(scheme, encoded),
    ]
    for codec in codecs:
        assert parties <= codec.max_safe_summands()
        packed = [codec.pack(e) for e in encoded]
        summed = [sum(words) for words in zip(*packed)]
        decoded = codec.decode_words(summed, length, summands=parties)
        assert np.array_equal(decoded, expected), codec.codec_id


def _sparse_for_union(scheme, encoded):
    """Sparse codec over the union support with a width fitting every
    participant's offsets exactly (for_values only sees one gradient)."""
    e0 = scheme.encode(0.0)
    union = sorted({i for enc in encoded for i, e in enumerate(enc)
                    if e != e0})
    max_offset = max((abs(enc[i] - e0) for enc in encoded for i in union),
                     default=1)
    return SparseCodec(scheme, PLAINTEXT_BITS, indices=union,
                       value_bits=max(2, max_offset.bit_length() + 1))


# ----------------------------------------------------------------------
# 3. overflow detection exactly one summand past the limit.
# ----------------------------------------------------------------------

@settings(max_examples=20)
@given(st.integers(min_value=2, max_value=20),
       st.sampled_from([2, 4, 8]))
def test_overflow_raises_exactly_one_past_the_limit(length, parties):
    scheme = _scheme(16, parties)
    values = np.zeros(length)
    values[0] = 0.5
    codecs = _all_codecs(scheme, values)
    codecs[1] = InterleavedCodec(scheme, plaintext_bits=PLAINTEXT_BITS,
                                 guard_bits=scheme.overflow_bits)
    for codec in codecs:
        limit = codec.max_safe_summands()
        words = codec.pack_values(values)
        codec.decode_words(words, length, summands=min(limit, 2 ** 10))
        with pytest.raises(OverflowError):
            codec.decode_words(words, length, summands=limit + 1)


# ----------------------------------------------------------------------
# 4. cross-codec decode bit-identity.
# ----------------------------------------------------------------------

@settings(max_examples=40)
@given(value_lists, r_bits_strategy, parties_strategy)
def test_decode_is_bit_identical_across_codecs(values, r_bits, parties):
    """The layouts differ, the quantization grid does not: for any input
    the decoded floats agree to the last bit across every codec."""
    scheme = _scheme(r_bits, parties)
    arr = np.array(values)
    outputs = {}
    for codec in _all_codecs(scheme, arr):
        words = codec.pack_values(arr)
        outputs[codec.codec_id] = codec.decode_words(words, len(arr))
    baseline = outputs.pop("dense")
    for codec_id, decoded in outputs.items():
        assert np.array_equal(baseline, decoded), codec_id


# ----------------------------------------------------------------------
# 5. one word count, empty input included.
# ----------------------------------------------------------------------

@settings(max_examples=40)
@given(st.lists(unit_floats, min_size=0, max_size=50),
       r_bits_strategy, parties_strategy)
def test_word_count_agrees_between_meta_packer_and_formula(
        values, r_bits, parties):
    scheme = _scheme(r_bits, parties)
    arr = np.array(values)
    for codec in _all_codecs(scheme, arr):
        words = codec.pack_values(arr)
        meta = PlainTensor.encode(arr, codec).meta
        assert meta.num_words == len(words) == \
            codec.words_needed(len(arr)), codec.codec_id
