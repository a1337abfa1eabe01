"""Tests for the PlainTensor encode -> quantize -> pack codec."""

import numpy as np
import pytest

from repro.quantization.codecs import build_codec
from repro.tensor.plain import PLAINTEXT_FINGERPRINT, PlainTensor


class TestRoundtrip:
    def test_values_roundtrip_within_quantization(self, packed_packer):
        values = np.linspace(-0.95, 0.95, 11)
        plain = PlainTensor.encode(values, packed_packer)
        step = packed_packer.scheme.quantization_step
        assert np.allclose(plain.decode(), values, atol=step)

    def test_shape_preserved(self, packed_packer):
        values = np.linspace(-0.5, 0.5, 12).reshape(3, 4)
        plain = PlainTensor.encode(values, packed_packer)
        assert plain.meta.shape == (3, 4)
        assert plain.decode().shape == (3, 4)

    def test_word_count_matches_capacity(self, packed_packer):
        plain = PlainTensor.encode(np.zeros(10), packed_packer)
        assert len(plain.words) == 3  # ceil(10 / 4)
        assert plain.meta.packed

    def test_capacity_one_not_packed(self, flat_packer):
        plain = PlainTensor.encode(np.zeros(5), flat_packer)
        assert len(plain.words) == 5
        assert not plain.meta.packed

    def test_fingerprint_is_plaintext_sentinel(self, flat_packer):
        plain = PlainTensor.encode(np.zeros(2), flat_packer)
        assert plain.meta.key_fingerprint == PLAINTEXT_FINGERPRINT


class TestViews:
    def test_slot_values_match_scheme_encoding(self, packed_packer):
        values = np.array([-1.0, 0.0, 0.5, 1.0, 0.25])
        plain = PlainTensor.encode(values, packed_packer)
        expected = list(packed_packer.scheme.encode_array(values))
        assert build_codec(plain.meta).unpack(
            plain.word_list(), plain.meta.count) == expected

    def test_packer_for_reconstructs_unpacking(self, packed_packer):
        values = np.linspace(-0.9, 0.9, 9)
        plain = PlainTensor.encode(values, packed_packer)
        rebuilt = build_codec(plain.meta)
        assert rebuilt.capacity == packed_packer.capacity
        assert rebuilt.unpack(plain.word_list(), 9) == \
            list(packed_packer.scheme.encode_array(values))


class TestInvariants:
    def test_immutable(self, flat_packer):
        plain = PlainTensor.encode(np.zeros(2), flat_packer)
        with pytest.raises(AttributeError):
            plain.words = ()

    def test_word_count_validated(self, flat_packer):
        plain = PlainTensor.encode(np.zeros(3), flat_packer)
        with pytest.raises(ValueError):
            PlainTensor(plain.words[:1], plain.meta)
