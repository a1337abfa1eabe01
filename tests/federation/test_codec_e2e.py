"""End-to-end rounds under each packing codec.

The acceptance bar for the codec layer: a full sharded aggregation
round -- and multi-round training -- produces **bit-identical** final
weights no matter which codec carried the ciphertexts, and every codec's
tensors survive the FLT3 wire byte-exactly.
"""

import numpy as np
import pytest

from repro.federation.aggregator import SecureAggregator
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.serialization import (
    TENSOR3_VERSION,
    TENSOR_VERSION,
    deserialize_tensor,
    serialize_tensor,
)
from repro.federation.shard import ShardedAggregationService
from repro.quantization.codecs import SparseCodec
from repro.testing.fuzz import downgrade_to_flt2


def make_runtime(num_clients=6, seed=11, **kwargs):
    kwargs.setdefault("key_bits", 256)
    kwargs.setdefault("physical_key_bits", 128)
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=num_clients,
                             seed=seed, **kwargs)


def client_vectors(num_clients, length=7, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.5, 0.5, size=length)
            for _ in range(num_clients)]


def sparse_vectors(num_clients, length=40, seed=5):
    """Client gradients sharing a small support (CSR-shaped)."""
    rng = np.random.default_rng(seed)
    support = sorted(rng.choice(length, size=5, replace=False).tolist())
    vectors = []
    for _ in range(num_clients):
        vector = np.zeros(length)
        vector[support] = rng.uniform(-0.5, 0.5, size=len(support))
        vectors.append(vector)
    return vectors


def sparse_aggregator(runtime, vectors):
    """A flat aggregator over ``runtime``'s engines with a sparse packer
    pinned to the clients' union support."""
    scheme = runtime.plan.scheme
    e0 = scheme.encode(0.0)
    encoded = [scheme.encode_array(v) for v in vectors]
    union = sorted({i for enc in encoded for i, e in enumerate(enc)
                    if e != e0})
    max_offset = max((abs(enc[i] - e0) for enc in encoded for i in union),
                     default=1)
    codec = SparseCodec(
        scheme,
        plaintext_bits=runtime.client_engine.physical_plaintext_bits,
        indices=union, value_bits=max(2, max_offset.bit_length() + 1))
    return SecureAggregator(
        client_engine=runtime.client_engine,
        silent_engine=runtime.silent_engine,
        server_engine=runtime.server_engine,
        packer=codec, channel=runtime.channel)


class TestRuntimeCodecKnob:
    def test_unknown_session_codec_rejected(self):
        with pytest.raises(ValueError, match="packing_codec"):
            make_runtime(packing_codec="zstd")

    def test_sparse_is_not_a_session_codec(self):
        # The sparse layout needs a per-tensor support pattern; a
        # session-wide default cannot supply one.
        with pytest.raises(ValueError, match="packing_codec"):
            make_runtime(packing_codec="sparse")

    def test_interleave_session_raises_summand_capacity(self):
        dense = make_runtime()
        inter = make_runtime(packing_codec="interleave")
        assert inter.aggregator.packer.codec_id == "interleave"
        assert inter.aggregator.packer.max_safe_summands() \
            > dense.aggregator.packer.max_safe_summands()


class TestFlatRounds:
    def test_interleave_aggregate_bit_identical_to_dense(self):
        vectors = client_vectors(6)
        expected = make_runtime().aggregator.aggregate(vectors,
                                                       round_index=0)
        inter = make_runtime(packing_codec="interleave")
        result = inter.aggregator.aggregate(vectors, round_index=0)
        assert np.array_equal(result, expected)

    def test_sparse_aggregate_bit_identical_to_dense(self):
        vectors = sparse_vectors(4)
        dense = make_runtime(num_clients=4)
        expected = dense.aggregator.aggregate(vectors, round_index=0)
        helper = make_runtime(num_clients=4)
        sparse = sparse_aggregator(helper, vectors)
        result = sparse.aggregate(vectors, round_index=0)
        assert np.array_equal(result, expected)

    def test_sparse_round_ships_fewer_words(self):
        vectors = sparse_vectors(4, length=40)
        helper = make_runtime(num_clients=4)
        sparse = sparse_aggregator(helper, vectors)
        dense_words = helper.aggregator.packer.words_needed(40)
        sparse_words = sparse.packer.words_needed(40)
        assert sparse_words < dense_words


class TestShardedRounds:
    @pytest.mark.parametrize("codec", ["dense", "interleave"])
    def test_sharded_sum_bit_identical_to_flat(self, codec):
        vectors = client_vectors(6)
        flat = make_runtime(packing_codec=codec)
        expected = flat.aggregator.aggregate(vectors, round_index=0)

        sharded = make_runtime(packing_codec=codec)
        service = ShardedAggregationService(sharded.aggregator, seed=11)
        result = service.run_round(vectors, round_index=0)
        assert np.array_equal(np.asarray(result), np.asarray(expected))

    def test_final_weights_bit_identical_across_session_codecs(self):
        """Multi-round training: the codec changes the ciphertext
        layout, never the model."""
        finals = {}
        for codec in ("dense", "interleave"):
            runtime = make_runtime(packing_codec=codec)
            service = ShardedAggregationService(runtime.aggregator,
                                                seed=11)
            weights = np.zeros(7)
            for round_index in range(3):
                grads = client_vectors(6, seed=100 + round_index)
                total = service.run_round(grads,
                                          round_index=round_index)
                weights = weights - 0.1 * (np.asarray(total) / 6)
            finals[codec] = weights
        assert np.array_equal(finals["dense"], finals["interleave"])


class TestWireRoundTrips:
    def _tensors(self):
        vectors = sparse_vectors(4)
        dense = make_runtime(num_clients=4)
        inter = make_runtime(num_clients=4, packing_codec="interleave")
        sparse = sparse_aggregator(make_runtime(num_clients=4), vectors)
        return {
            "dense": dense.aggregator.encrypt_tensor(vectors[0]),
            "interleave": inter.aggregator.encrypt_tensor(vectors[0]),
            "sparse": sparse.encrypt_tensor(vectors[0]),
        }

    def test_flt3_round_trips_byte_exactly_for_every_codec(self):
        for codec_id, tensor in self._tensors().items():
            blob = serialize_tensor(tensor)
            rebuilt = deserialize_tensor(blob)
            assert rebuilt.meta.codec == codec_id
            assert serialize_tensor(rebuilt) == blob, codec_id
            assert list(rebuilt.words) == list(tensor.words)

    def test_flt2_still_serializes_dense_tensors(self):
        """FLT2 is read-only: its only writer left is the fuzzer's
        downgrade of a dense FLT3 frame."""
        tensor = self._tensors()["dense"]
        blob = downgrade_to_flt2(serialize_tensor(tensor))
        assert blob[:4] == b"FLT2" and blob[4] == TENSOR_VERSION
        rebuilt = deserialize_tensor(blob)
        assert rebuilt.meta.codec == "dense"
        assert list(rebuilt.words) == list(tensor.words)

    def test_flt2_cannot_carry_parameterized_codecs(self):
        tensors = self._tensors()
        for codec_id in ("interleave", "sparse"):
            with pytest.raises(ValueError, match="FLT2"):
                downgrade_to_flt2(serialize_tensor(tensors[codec_id]))

    def test_decrypt_after_wire_matches_direct_decrypt(self):
        vectors = sparse_vectors(4)
        runtime = make_runtime(num_clients=4,
                               packing_codec="interleave")
        tensor = runtime.aggregator.encrypt_tensor(vectors[0])
        rebuilt = deserialize_tensor(serialize_tensor(tensor))
        direct = runtime.aggregator.decrypt_tensor(tensor)
        wired = runtime.aggregator.decrypt_tensor(rebuilt)
        assert np.array_equal(direct, wired)
        assert TENSOR3_VERSION == 3
