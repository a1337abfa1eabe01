"""Layout goldens and the fixed-geometry contract of the slot-codec core.

The literal table was captured from the three pre-refactor codec
classes, so every packed bit of the dense, interleaved and sparse
layouts is pinned *below* the journal goldens: a refactor of
``repro.quantization`` that moves one slot fails here first, with the
codec and capacity named.
"""

import numpy as np
import pytest

from repro.counters import (CODEC_LOOKUPS, CODECS_BUILT, OVERFLOW_BITS,
                            counted)
from repro.quantization.codecs import (
    CODECS,
    InterleavedCodec,
    SparseCodec,
    build_codec,
)
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker, SlotCodec
from repro.tensor.plain import PlainTensor

SCHEME = QuantizationScheme(alpha=1.0, r_bits=12, num_parties=4)
#: Seven values: a partial final word at capacities 2, 3 and 4.
VALUES = [-1.0, -0.5, -0.125, 0.0, 0.25, 0.75, 1.0]
SPARSE_VALUES = [0.0, 0.5, 0.0, 0.0, -0.25, 0.0, 0.75, 0.0, 0.0, 1.0]
SUMMED3 = [-3.0, -1.4996336996336996, -0.37435897435897436,
           0.00073260073260073, 0.7494505494505495, 2.24981684981685, 3.0]
SPARSE_SUMMED3 = [0.00073260073260073, 1.4996336996336996,
                  0.00073260073260073, 0.00073260073260073,
                  -0.7494505494505495, 0.00073260073260073,
                  2.24981684981685, 0.00073260073260073,
                  0.00073260073260073, 3.0]

GOLDEN = {
    "dense/cap4": dict(
        codec=lambda: BatchPacker(SCHEME, plaintext_bits=64),
        values=VALUES, capacity=4, slot_bits=14, params=(),
        words=[274907269120, 11255562893246464],
        summed3=SUMMED3),
    "dense/cap3": dict(
        codec=lambda: BatchPacker(SCHEME, plaintext_bits=64, capacity=3),
        values=VALUES, capacity=3, slot_bits=14, params=(),
        words=[16779008, 549797744127, 1099243192320],
        summed3=SUMMED3),
    "interleave/cap4": dict(
        codec=lambda: InterleavedCodec(SCHEME, plaintext_bits=96),
        values=VALUES, capacity=4, slot_bits=22, params=(10,),
        words=[151115758977030333399040, 72040016880077311],
        summed3=SUMMED3),
    "interleave/cap2-guard3": dict(
        codec=lambda: InterleavedCodec(SCHEME, plaintext_bits=40,
                                       guard_bits=3),
        values=VALUES, capacity=2, slot_bits=15, params=(3,),
        words=[33554432, 67110656, 117410303, 4095],
        summed3=SUMMED3),
    "sparse/cap3": dict(
        codec=lambda: SparseCodec.for_values(
            np.array(SPARSE_VALUES), SCHEME, 48),
        values=SPARSE_VALUES, capacity=3, slot_bits=14,
        params=(12, 1, 4, 6, 9),
        words=[824390454783, 1099243192320],
        summed3=SPARSE_SUMMED3),
    "sparse/cap2": dict(
        codec=lambda: SparseCodec(SCHEME, 64, indices=(1, 4, 6, 9),
                                  value_bits=13, capacity=2),
        values=SPARSE_VALUES, capacity=2, slot_bits=15,
        params=(13, 1, 4, 6, 9),
        words=[167742976, 184522751],
        summed3=SPARSE_SUMMED3),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_packed_words_match_the_pre_refactor_layout(name):
    golden = GOLDEN[name]
    codec = golden["codec"]()
    values = np.array(golden["values"])
    assert (codec.capacity, codec.slot_bits, codec.codec_params()) == (
        golden["capacity"], golden["slot_bits"], golden["params"])
    words = codec.pack_values(values)
    assert words == golden["words"]
    assert codec.unpack(words, len(values)) == \
        SCHEME.encode_array(values)
    # Three identical uploads, slot-wise summed under encryption.
    aggregated = codec.decode_words([3 * w for w in words], len(values),
                                    summands=3)
    assert aggregated.tolist() == golden["summed3"]


def test_every_registered_codec_is_one_slot_codec():
    assert set(CODECS) == {"dense", "interleave", "sparse"}
    for cls in CODECS.values():
        assert issubclass(cls, SlotCodec)
        for shared in ("pack", "unpack", "pack_values", "decode_words",
                       "words_needed", "achieved_psu", "describe"):
            assert shared not in vars(cls), (cls.__name__, shared)


# ----------------------------------------------------------------------
# Geometry is fixed at construction.
# ----------------------------------------------------------------------

def test_warm_encode_decode_and_meta_algebra_derive_nothing():
    packed = BatchPacker(SCHEME, plaintext_bits=256)
    flat = BatchPacker(SCHEME, plaintext_bits=256, capacity=1)
    values = np.linspace(-1.0, 1.0, 64)
    # The first meta of a layout builds (and validates) its codec.
    for packer in (packed, flat):
        PlainTensor.encode(values, packer)

    with counted() as added:
        plain = PlainTensor.encode(values, packed)
        assert np.allclose(plain.decode(), values,
                           atol=SCHEME.quantization_step)
        meta = plain.meta
        assert meta.combine_add(meta).summands == 2
        assert meta.sliced(0, packed.capacity).count == packed.capacity
        assert meta.summand_capacity() == 4
        flat_meta = PlainTensor.encode(values, flat).meta
        assert flat_meta.summed(3).summands == 3
    assert added[OVERFLOW_BITS] == 0
    assert added[CODECS_BUILT] == 0


def test_build_codec_shares_one_codec_per_layout():
    meta = PlainTensor.encode(np.zeros(8), BatchPacker(SCHEME, 64)).meta
    codec = build_codec(meta)
    assert build_codec(meta.combine_add(meta)) is codec
    assert build_codec(meta.sliced(0, 4)) is codec

    other_scheme = QuantizationScheme(alpha=2.0, r_bits=12, num_parties=4)
    variants = [
        PlainTensor.encode(np.zeros(8),
                           BatchPacker(SCHEME, 64, capacity=3)).meta,
        PlainTensor.encode(np.zeros(8), BatchPacker(other_scheme, 64)).meta,
        PlainTensor.encode(np.zeros(8), InterleavedCodec(
            SCHEME, 128, guard_bits=10, capacity=4)).meta,
        PlainTensor.encode(np.zeros(8), InterleavedCodec(
            SCHEME, 128, guard_bits=11, capacity=4)).meta,
    ]
    codecs = [codec] + [build_codec(variant) for variant in variants]
    assert len({id(c) for c in codecs}) == len(codecs)


def test_a_shared_codec_cannot_be_mutated():
    codec = BatchPacker(SCHEME, plaintext_bits=64)
    with pytest.raises(AttributeError, match="immutable"):
        codec.capacity = 2


# ----------------------------------------------------------------------
# The sparse codec and the empty array.
# ----------------------------------------------------------------------

def test_sparse_codec_encodes_an_empty_array():
    empty = np.array([])
    codec = SparseCodec.for_values(empty, SCHEME, 64)
    assert codec.pack_values(empty) == []
    assert codec.words_needed(0) == 0
    plain = PlainTensor.encode(empty, codec)
    assert plain.words == () and plain.meta.num_words == 0
    assert plain.decode().shape == (0,)
    # An all-zero *non-empty* gradient keeps its one padding word.
    zeros = SparseCodec.for_values(np.zeros(5), SCHEME, 64)
    assert zeros.pack_values(np.zeros(5)) == [0]
    assert PlainTensor.encode(np.zeros(5), zeros).meta.num_words == 1


def test_a_warm_decode_looks_up_no_codec():
    """The meta built its codec; decoding reads it there."""
    packer = BatchPacker(SCHEME, plaintext_bits=256)
    values = np.linspace(-1.0, 1.0, 64)
    plain = PlainTensor.encode(values, packer)
    with counted() as added:
        for _ in range(10):
            assert np.allclose(plain.decode(), values,
                               atol=SCHEME.quantization_step)
    assert added[CODEC_LOOKUPS] == 0
