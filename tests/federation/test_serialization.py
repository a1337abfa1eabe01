"""Tests for the concrete wire formats."""

import numpy as np
import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.federation.serialization import (
    TENSOR_HEADER,
    TENSOR_MAGIC,
    FrameError,
    deserialize_tensor,
    serialize_tensor,
)
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import KeyMismatchError, TensorMeta
from repro.tensor.plain import PlainTensor


#: A version 2 (``FLT2``, codec-less) frame of a capacity-3 dense
#: tensor, as written before that format was retired.
FLT2_FRAME = (
    "464c5432020102000000000800000002000000030000000300000010000004"
    "0000000040001000043ff0000000000000000102030405060708090a0b0c0d"
    "0e0f00000002000000040123456789abcdef0123456789abcdef0000000000"
    "00000000000000000000011ffffffffffffffffffffffffffffffd")


@pytest.fixture()
def tensor_fixture(paillier_128):
    engine = CpuPaillierEngine(paillier_128, ledger=CostLedger(),
                               rng=LimbRandom(seed=11))
    scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=8)
    packer = BatchPacker(scheme, plaintext_bits=127, capacity=4)
    values = np.linspace(-0.8, 0.8, 10).reshape(2, 5)
    tensor = engine.encrypt_tensor(PlainTensor.encode(values, packer))
    return engine, tensor, values


class TestTensorFormat:
    def test_roundtrip_preserves_everything(self, tensor_fixture):
        engine, tensor, values = tensor_fixture
        rebuilt = deserialize_tensor(serialize_tensor(tensor))
        assert list(rebuilt.words) == list(tensor.words)
        assert rebuilt.meta == tensor.meta
        decoded = engine.decrypt_tensor(rebuilt).decode()
        step = tensor.meta.scheme.quantization_step
        assert decoded.shape == (2, 5)
        assert np.allclose(decoded, values, atol=step)

    def test_decode_needs_no_caller_metadata(self, tensor_fixture):
        engine, tensor, _ = tensor_fixture
        # The frame alone (no count / summands / scheme arguments)
        # reconstructs a decryptable tensor.
        rebuilt = deserialize_tensor(serialize_tensor(tensor))
        assert rebuilt.meta.count == 10
        assert rebuilt.meta.summands == 1
        assert rebuilt.meta.scheme_id == tensor.meta.scheme_id

    def test_fingerprint_validated(self, tensor_fixture):
        _, tensor, _ = tensor_fixture
        blob = serialize_tensor(tensor)
        deserialize_tensor(
            blob, expected_fingerprint=tensor.meta.key_fingerprint)
        with pytest.raises(KeyMismatchError):
            deserialize_tensor(blob, expected_fingerprint=b"\xff" * 16)

    def test_summands_travel_in_header(self, tensor_fixture):
        engine, tensor, values = tensor_fixture
        total = (tensor + tensor).materialize()
        rebuilt = deserialize_tensor(serialize_tensor(total))
        assert rebuilt.meta.summands == 2

    def test_magic_and_version_checked(self, tensor_fixture):
        _, tensor, _ = tensor_fixture
        blob = serialize_tensor(tensor)
        with pytest.raises(ValueError, match="not a tensor frame"):
            deserialize_tensor(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="version"):
            deserialize_tensor(blob[:4] + b"\x07" + blob[5:])
        # A version 2 frame under the current magic is still version 2.
        with pytest.raises(ValueError, match="version"):
            deserialize_tensor(bytes.fromhex(FLT2_FRAME).replace(
                b"FLT2\x02", b"FLT3\x02", 1))

    def test_truncated_and_oversized_raise(self, tensor_fixture):
        _, tensor, _ = tensor_fixture
        blob = serialize_tensor(tensor)
        with pytest.raises(ValueError, match="truncated"):
            deserialize_tensor(blob[:TENSOR_HEADER.size - 1])
        with pytest.raises(ValueError, match="truncated"):
            deserialize_tensor(blob[:-1])
        with pytest.raises(ValueError, match="oversized"):
            deserialize_tensor(blob + b"\x00")

    def test_word_too_wide_raises(self, tensor_fixture):
        _, tensor, _ = tensor_fixture
        with pytest.raises(ValueError, match="does not fit"):
            serialize_tensor(tensor, ciphertext_bytes=4)

    def test_magic_is_distinct_from_packed(self):
        assert TENSOR_MAGIC != b"FLBP"

    def test_flt2_frame_rejected(self):
        """FLT3 is the only tensor frame: a version 2 frame, valid when
        it was written, is a typed framing error now."""
        with pytest.raises(FrameError, match="not a tensor frame"):
            deserialize_tensor(bytes.fromhex(FLT2_FRAME))


class TestPackedFlag:
    """The header's flag bit is derived from the layout: written as
    ``capacity > 1``, and a frame whose bit disagrees is rejected."""

    @staticmethod
    def _frame(capacity):
        meta = TensorMeta(
            key_fingerprint=bytes(range(16)), nominal_bits=1024,
            physical_bits=64,
            scheme=QuantizationScheme(alpha=1.0, r_bits=16,
                                      num_parties=4),
            capacity=capacity, shape=(8,), count=8)
        words = list(range(1, meta.num_words + 1))
        return serialize_tensor(CipherTensor(meta, words=words),
                                ciphertext_bytes=16)

    @pytest.mark.parametrize("capacity, flags", [(1, 0), (3, 1), (8, 1)])
    def test_written_as_capacity_above_one(self, capacity, flags):
        frame = self._frame(capacity)
        assert frame[5] == flags
        assert deserialize_tensor(frame).meta.capacity == capacity

    @pytest.mark.parametrize("capacity", [1, 8])
    def test_disagreeing_bit_rejected(self, capacity):
        frame = bytearray(self._frame(capacity))
        frame[5] ^= 1
        with pytest.raises(FrameError, match="disagrees with capacity"):
            deserialize_tensor(bytes(frame))
