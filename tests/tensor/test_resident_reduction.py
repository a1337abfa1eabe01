"""The one level-wise reducer, with its words resident and without.

``planner.reduce_rows`` holds a reduction's words inside the native
library from the first level to the last.  That must be invisible: the
same ciphertext words, device launches and ledger entries whether or
not a library is bound, nothing but plain integers in the result, and
-- where a library *is* bound -- resident operands at every level, so a
silently disengaged path cannot hide behind the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.ledger import CostLedger
from repro.mpint import native
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker
from repro.tensor import planner
from repro.tensor.plain import PlainTensor
from tests.conftest import _unbind_native

VIEWS, BINS, BIN_SIZE = 4, 8, 128
LEVELS = (BIN_SIZE - 1).bit_length()

SCALAR_ENGINES = pytest.mark.parametrize(
    "engine_class", (CpuPaillierEngine, GpuPaillierEngine),
    ids=("cpu", "gpu"))


def packer_for(summands):
    scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=summands)
    return BatchPacker(scheme, plaintext_bits=127, capacity=1)


def histogram(engine_class, keypair):
    """Everything observable about a VIEWS x BINS x BIN_SIZE histogram."""
    engine = engine_class(keypair, ledger=CostLedger(),
                          rng=LimbRandom(seed=31))
    rng = np.random.default_rng(17)
    values = rng.uniform(-1.0, 1.0, BINS * BIN_SIZE)
    encrypted = engine.encrypt_tensor(
        PlainTensor.encode(values, packer_for(BIN_SIZE)))
    orders = [rng.permutation(len(values)) for _ in range(VIEWS)]
    sums = [
        encrypted.with_words([encrypted.words[i] for i in order])
        [b * BIN_SIZE:(b + 1) * BIN_SIZE].sum().materialize()
        for order in orders for b in range(BINS)]
    decoded = [float(engine.decrypt_tensor(total).decode()[0])
               for total in sums]
    expected = [float(values[order[b * BIN_SIZE:(b + 1) * BIN_SIZE]].sum())
                for order in orders for b in range(BINS)]
    kernels = getattr(engine, "kernels", None)
    return {
        "words": [total.words for total in sums],
        "launches": list(kernels.device.launches) if kernels else None,
        "ledger": engine.ledger.snapshot(),
        "decoded": decoded,
    }, expected


@pytest.fixture()
def products(monkeypatch):
    """The operand types of every ``mulmod_batch`` the engines make."""
    seen = []

    def spy(a, b, modulus):
        seen.append((type(a), type(b), len(a)))
        return native.mulmod_batch(a, b, modulus)

    monkeypatch.setattr("repro.crypto.cpu_engine.mulmod_batch", spy)
    monkeypatch.setattr("repro.gpu.kernels.mulmod_batch", spy)
    return seen


@SCALAR_ENGINES
def test_histogram_is_identical_bound_and_unbound(engine_class,
                                                  paillier_128,
                                                  monkeypatch):
    bound, expected = histogram(engine_class, paillier_128)
    with monkeypatch.context() as patch:
        _unbind_native(patch.setattr)
        unbound, _ = histogram(engine_class, paillier_128)
    assert bound == unbound
    # snapshot rows are (seconds, count, bytes)
    assert bound["ledger"]["he.add"][1] == VIEWS * BINS * (BIN_SIZE - 1)
    tolerance = BIN_SIZE * packer_for(BIN_SIZE).scheme.quantization_step
    assert np.allclose(bound["decoded"], expected, atol=tolerance)
    # Nothing resident escapes into a tensor.
    for words in bound["words"]:
        assert type(words) is tuple and [type(w) for w in words] == [int]


@SCALAR_ENGINES
def test_every_level_of_a_sum_sees_resident_operands(engine_class,
                                                     paillier_128,
                                                     products):
    histogram(engine_class, paillier_128)
    adds = [seen for seen in products if seen[2] < BIN_SIZE * BINS]
    assert [size for _, _, size in adds] == \
        [BIN_SIZE >> level for level in range(1, LEVELS + 1)] * VIEWS * BINS
    kind = native.ResidueBatch if native.HAVE_NATIVE else list
    assert {(a, b) for a, b, _ in adds} == {(kind, kind)}


@SCALAR_ENGINES
def test_every_level_of_an_nary_add_sees_resident_operands(
        engine_class, paillier_128, products):
    engine = engine_class(paillier_128, ledger=CostLedger(),
                          rng=LimbRandom(seed=31))
    rng = np.random.default_rng(5)
    arrays = [rng.uniform(-0.9, 0.9, 6) for _ in range(5)]
    tensors = [engine.encrypt_tensor(PlainTensor.encode(a, packer_for(8)))
               for a in arrays]
    del products[:]
    total = tensors[0]
    for tensor in tensors[1:]:
        total = total + tensor
    fused = total.materialize()
    # Five rows of six words: 2 pairs, 1 pair, 1 pair.
    assert [size for _, _, size in products] == [12, 6, 6]
    kind = native.ResidueBatch if native.HAVE_NATIVE else list
    assert {(a, b) for a, b, _ in products} == {(kind, kind)}
    assert [type(word) for word in fused.words] == [int] * 6
    eager = planner.eager_flush(total._node, engine)
    assert list(fused.words) == eager
    assert np.allclose(engine.decrypt_tensor(fused).decode(), sum(arrays),
                       atol=5 * packer_for(8).scheme.quantization_step)


def test_one_shot_adds_stay_python(paillier_128, products):
    engine = CpuPaillierEngine(paillier_128, ledger=CostLedger(),
                               rng=LimbRandom(seed=31))
    left, right = engine.encrypt_batch([1, 2, 3]), \
        engine.encrypt_batch([4, 5, 6])
    del products[:]
    assert engine.decrypt_batch(engine.add_batch(left, right)) == [5, 7, 9]
    assert products == [(list, list, 3)]
    # A single row has no level to run: no conversion either way.
    assert planner.reduce_rows(engine, left, 3) == left
    assert products == [(list, list, 3)]


def test_the_vector_engine_keeps_plain_lists(paillier_128, monkeypatch):
    vector = VectorPaillierEngine(paillier_128, ledger=CostLedger(),
                                  rng=LimbRandom(seed=31),
                                  randomizer_pool_size=0)
    scalar = CpuPaillierEngine(paillier_128, ledger=CostLedger(),
                               rng=LimbRandom(seed=31))
    words = scalar.encrypt_batch(list(range(1, 12)))
    seen = []
    add_batch = VectorPaillierEngine.add_batch
    monkeypatch.setattr(
        VectorPaillierEngine, "add_batch",
        lambda self, c1, c2: (seen.append((type(c1), type(c2))),
                              add_batch(self, c1, c2))[1])
    assert vector.sum_ciphertexts(words) == scalar.sum_ciphertexts(words)
    assert set(seen) == {(list, list)} and len(seen) == 4
