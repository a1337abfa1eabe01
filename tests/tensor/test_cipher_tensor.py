"""Tests for CipherTensor: lazy ops, fusion planning, key safety."""

import numpy as np
import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import KeyMismatchError
from repro.tensor.plain import PlainTensor
from tests.tensor.test_planner_edges import CountingEngine


def encrypt(engine, packer, values):
    return engine.encrypt_tensor(PlainTensor.encode(values, packer))


def engine_calls(engine, tensor):
    """Engine calls that materializing ``tensor`` spends."""
    counting = CountingEngine(engine)
    tensor.materialize(engine=counting)
    return sum(counting.calls.values())


@pytest.fixture()
def other_engine(paillier_256):
    return CpuPaillierEngine(paillier_256, ledger=CostLedger(),
                             rng=LimbRandom(seed=10))


class TestRoundtrip:
    def test_encrypt_decrypt(self, engine, packed_packer):
        values = np.linspace(-0.9, 0.9, 10)
        tensor = encrypt(engine, packed_packer, values)
        assert tensor.meta.key_fingerprint == engine.fingerprint()
        assert not tensor.is_lazy
        decoded = engine.decrypt_tensor(tensor).decode()
        step = packed_packer.scheme.quantization_step
        assert np.allclose(decoded, values, atol=step)

    def test_shape_travels_with_tensor(self, engine, packed_packer):
        values = np.linspace(-0.5, 0.5, 12).reshape(4, 3)
        tensor = encrypt(engine, packed_packer, values)
        assert engine.decrypt_tensor(tensor).decode().shape == (4, 3)

    def test_decrypt_needs_no_caller_metadata(self, engine, flat_packer):
        # Aggregate two tensors, decrypt without passing count/summands.
        t1 = encrypt(engine, flat_packer, np.full(4, 0.25))
        t2 = encrypt(engine, flat_packer, np.full(4, 0.5))
        decoded = engine.decrypt_tensor(t1 + t2).decode()
        step = flat_packer.scheme.quantization_step
        assert np.allclose(decoded, 0.75, atol=2 * step)


class TestLazyOps:
    def test_add_is_lazy_until_read(self, engine, packed_packer):
        t1 = encrypt(engine, packed_packer, np.full(8, 0.1))
        t2 = encrypt(engine, packed_packer, np.full(8, 0.2))
        expr = t1 + t2
        assert expr.is_lazy
        assert expr.meta.summands == 2
        _ = expr.words
        assert not expr.is_lazy

    def test_scalar_mul(self, engine, flat_packer):
        values = np.array([-0.5, 0.0, 0.5])
        tensor = encrypt(engine, flat_packer, values)
        tripled = 3 * tensor
        assert tripled.meta.summands == 3
        decoded = engine.decrypt_tensor(tripled).decode()
        step = flat_packer.scheme.quantization_step
        assert np.allclose(decoded, 3 * values, atol=3 * step)

    def test_scalar_folding_single_launch(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(4))
        expr = 2 * (2 * tensor)
        assert expr.meta.summands == 4
        assert engine_calls(engine, expr) == 1  # folded to one *4

    def test_mul_rejects_non_int(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(2))
        with pytest.raises(TypeError):
            _ = tensor * 1.5
        with pytest.raises(TypeError):
            _ = tensor * True

    def test_sum_capacity_one(self, engine, flat_packer):
        values = np.array([0.1, 0.2, 0.3, -0.4])
        tensor = encrypt(engine, flat_packer, values)
        total = tensor.sum()
        assert total.meta.count == 1
        assert total.meta.summands == 4
        decoded = engine.decrypt_tensor(total).decode()
        step = flat_packer.scheme.quantization_step
        assert np.allclose(decoded, values.sum(), atol=4 * step)

    def test_sum_packed_raises(self, engine, packed_packer):
        tensor = encrypt(engine, packed_packer, np.zeros(8))
        with pytest.raises(ValueError):
            tensor.sum()


class TestFusionPlanning:
    def test_add_tree_is_logarithmic(self, engine, flat_packer):
        tensors = [encrypt(engine, flat_packer, np.full(4, 0.05))
                   for _ in range(8)]
        expr = tensors[0]
        for tensor in tensors[1:]:
            expr = expr + tensor
        # 8 leaves reduce level-wise: ceil(log2 8) = 3 launches, not 7.
        assert engine_calls(engine, expr) == 3

    def test_scalars_coalesce_into_one_launch(self, engine, flat_packer):
        t1 = encrypt(engine, flat_packer, np.full(4, 0.1))
        t2 = encrypt(engine, flat_packer, np.full(4, 0.1))
        expr = 2 * t1 + 3 * t2
        # One coalesced scalar_mul_batch + one add level.
        assert engine_calls(engine, expr) == 2
        decoded = engine.decrypt_tensor(expr).decode()
        step = flat_packer.scheme.quantization_step
        assert np.allclose(decoded, 0.5, atol=5 * step)
        assert expr.meta.summands == 5

    def test_materialized_plan_is_zero(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(4))
        assert engine_calls(engine, tensor) == 0


class TestSlicing:
    def test_slice_is_free_and_word_aligned(self, engine, packed_packer):
        values = np.linspace(-0.9, 0.9, 12)
        tensor = encrypt(engine, packed_packer, values)
        head = tensor[0:8]
        assert engine_calls(engine, head) == 0
        assert head.num_words == 2
        decoded = engine.decrypt_tensor(head).decode()
        step = packed_packer.scheme.quantization_step
        assert np.allclose(decoded, values[:8], atol=step)

    def test_misaligned_slice_raises(self, engine, packed_packer):
        tensor = encrypt(engine, packed_packer, np.zeros(12))
        with pytest.raises(IndexError):
            _ = tensor[2:6]

    def test_int_index_capacity_one(self, engine, flat_packer):
        values = np.array([0.1, -0.2, 0.3])
        tensor = encrypt(engine, flat_packer, values)
        one = tensor[1]
        assert len(one) == 1
        decoded = engine.decrypt_tensor(one).decode()
        step = flat_packer.scheme.quantization_step
        assert np.allclose(decoded, [-0.2], atol=step)

    def test_slice_pushdown_through_add(self, engine, flat_packer):
        t1 = encrypt(engine, flat_packer, np.full(6, 0.2))
        t2 = encrypt(engine, flat_packer, np.full(6, 0.3))
        sliced = (t1 + t2)[2:4]
        assert sliced.num_words == 2
        decoded = engine.decrypt_tensor(sliced).decode()
        step = flat_packer.scheme.quantization_step
        assert np.allclose(decoded, 0.5, atol=2 * step)


class TestKeySafety:
    def test_cross_key_add_raises(self, engine, other_engine, flat_packer):
        t1 = encrypt(engine, flat_packer, np.zeros(4))
        t2 = encrypt(other_engine, flat_packer, np.zeros(4))
        with pytest.raises(KeyMismatchError):
            _ = t1 + t2

    def test_cross_key_decrypt_raises(self, engine, other_engine,
                                      flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(4))
        with pytest.raises(KeyMismatchError):
            other_engine.decrypt_tensor(tensor)


class TestInvariants:
    def test_immutable(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(2))
        with pytest.raises(AttributeError):
            tensor.meta = None

    def test_words_xor_node_required(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(2))
        with pytest.raises(ValueError):
            CipherTensor(tensor.meta)

    def test_word_count_validated(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(3))
        with pytest.raises(ValueError):
            CipherTensor(tensor.meta, words=list(tensor.words)[:1])

    def test_lazy_without_engine_raises(self, engine, flat_packer):
        tensor = encrypt(engine, flat_packer, np.zeros(2))
        detached = CipherTensor(tensor.meta, words=list(tensor.words))
        expr = detached + detached
        with pytest.raises(RuntimeError):
            expr.materialize()
        # Passing an engine explicitly recovers.
        assert not expr.materialize(engine=engine).is_lazy
