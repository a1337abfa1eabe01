"""Tests for the concrete wire formats."""

import numpy as np
import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.federation.serialization import (
    TENSOR_HEADER,
    TENSOR_MAGIC,
    deserialize_tensor,
    serialize_tensor,
)
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import KeyMismatchError, TensorMeta
from repro.testing.fuzz import downgrade_to_flt2
from repro.tensor.plain import PlainTensor


#: ``serialize_tensor(tensor, ciphertext_bytes=16, version=2)`` at the
#: last commit that could write FLT2 (3d34801), for the tensor rebuilt
#: in ``test_committed_flt2_frame_still_reads``.
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
        # Magic/version cross-lies: v2 magic claiming v3 and vice versa.
        with pytest.raises(ValueError, match="version"):
            deserialize_tensor(b"FLT2" + blob[4:])
        v2 = downgrade_to_flt2(blob)
        with pytest.raises(ValueError, match="version"):
            deserialize_tensor(b"FLT3" + v2[4:])

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

    def test_committed_flt2_frame_still_reads(self):
        """Nothing writes FLT2 any more; this frame was captured from
        ``serialize_tensor(..., version=2)`` before the writer went."""
        meta = TensorMeta(
            key_fingerprint=bytes(range(16)), nominal_bits=1024,
            physical_bits=64,
            scheme=QuantizationScheme(alpha=1.0, r_bits=16,
                                      num_parties=4),
            capacity=3, shape=(2, 4), count=8, summands=2, packed=True)
        words = [0x0123456789abcdef0123456789abcdef, 1, (1 << 125) - 3]
        rebuilt = deserialize_tensor(bytes.fromhex(FLT2_FRAME))
        assert rebuilt.meta == meta
        assert rebuilt.meta.codec == "dense"
        assert list(rebuilt.words) == words
        # The downgraded FLT3 frame the fuzzer seeds from is that frame.
        assert downgrade_to_flt2(serialize_tensor(
            CipherTensor(meta, words=words), ciphertext_bytes=16)) \
            == bytes.fromhex(FLT2_FRAME)
