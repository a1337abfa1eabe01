"""Property-based tests (hypothesis) for quantization and packing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker

r_bits_strategy = st.integers(min_value=4, max_value=40)
parties_strategy = st.integers(min_value=2, max_value=32)
value_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60)


@settings(max_examples=50)
@given(value_lists, r_bits_strategy)
def test_encode_decode_within_one_step(values, r_bits):
    scheme = QuantizationScheme(alpha=1.0, r_bits=r_bits)
    for value in values:
        decoded = scheme.decode(scheme.encode(value))
        assert abs(decoded - value) <= scheme.quantization_step + 1e-15


@settings(max_examples=50)
@given(value_lists, r_bits_strategy, parties_strategy)
def test_pack_unpack_roundtrip(values, r_bits, parties):
    scheme = QuantizationScheme(alpha=1.0, r_bits=r_bits,
                                num_parties=parties)
    packer = BatchPacker(scheme, plaintext_bits=max(512, scheme.slot_bits))
    encoded = scheme.encode_array(np.array(values))
    assert packer.unpack(packer.pack(encoded), len(encoded)) == encoded


unit_floats = st.floats(min_value=-1.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=2, max_value=4),
       st.data())
def test_packed_aggregation_matches_plain_sum(length, parties, data):
    vectors = [
        data.draw(st.lists(unit_floats, min_size=length, max_size=length))
        for _ in range(parties)
    ]
    scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=parties)
    packer = BatchPacker(scheme, plaintext_bits=512)
    arrays = [np.array(vector) for vector in vectors]
    packed = [packer.pack(scheme.encode_array(array)) for array in arrays]
    summed_words = [sum(words) for words in zip(*packed)]
    decoded = scheme.decode_array(
        packer.unpack(summed_words, len(vectors[0])), count=parties)
    expected = np.sum(arrays, axis=0)
    tolerance = parties * scheme.quantization_step + 1e-12
    assert np.all(np.abs(decoded - expected) <= tolerance)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=10_000),
       st.sampled_from([1024, 2048, 4096]),
       parties_strategy)
def test_words_needed_consistent_with_ratio(n_values, key_bits, parties):
    scheme = QuantizationScheme(alpha=1.0, r_bits=30, num_parties=parties)
    packer = BatchPacker(scheme, plaintext_bits=key_bits - 1)
    words = packer.words_needed(n_values)
    assert (words - 1) * packer.capacity < n_values <= \
        words * packer.capacity


@settings(max_examples=50)
@given(st.floats(min_value=0.01, max_value=100.0,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=-1.0, max_value=1.0,
                 allow_nan=False, allow_infinity=False))
def test_alpha_scales_range(alpha, unit_value):
    scheme = QuantizationScheme(alpha=alpha, r_bits=20)
    value = unit_value * alpha
    decoded = scheme.decode(scheme.encode(value))
    assert abs(decoded - value) <= scheme.quantization_step + 1e-12
