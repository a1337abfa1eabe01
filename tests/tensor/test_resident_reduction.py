"""The one level-wise reducer, with its words resident and without.

``planner.reduce_rows`` holds a reduction's words inside the native
library from the first level to the last, and a leaf keeps its words
there for as long as its tensor lives, shared by its slices and
permuted views.  That must be invisible: the same ciphertext words,
device launches and ledger entries whether or not a library is bound,
nothing but plain integers in the result, and -- where a library *is*
bound -- resident operands at every level and each word converted once,
so a silently disengaged path cannot hide behind the fallback.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.counters import CONVERSIONS, WORDS_ENTERED, counted
from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.ledger import CostLedger
from repro.mpint import native
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker
from repro.tensor import planner
from repro.tensor.cipher import CipherTensor
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


def histogram(engine_class, keypair, passes=1):
    """Everything observable about ``passes`` VIEWS x BINS x BIN_SIZE
    histograms over the same views."""
    engine = engine_class(keypair, ledger=CostLedger(),
                          rng=LimbRandom(seed=31))
    rng = np.random.default_rng(17)
    values = rng.uniform(-1.0, 1.0, BINS * BIN_SIZE)
    encrypted = engine.encrypt_tensor(
        PlainTensor.encode(values, packer_for(BIN_SIZE)))
    orders = [rng.permutation(len(values)) for _ in range(VIEWS)]
    views = [encrypted.with_words([encrypted.words[i] for i in order])
             for order in orders]
    sums = [view[b * BIN_SIZE:(b + 1) * BIN_SIZE].sum().materialize()
            for _ in range(passes) for view in views for b in range(BINS)]
    decoded = [float(engine.decrypt_tensor(total).decode()[0])
               for total in sums]
    expected = [float(values[order[b * BIN_SIZE:(b + 1) * BIN_SIZE]].sum())
                for order in orders for b in range(BINS)] * passes
    kernels = getattr(engine, "kernels", None)
    return {
        "words": [total.words for total in sums],
        "device": (kernels.device.launches, kernels.device.total_seconds,
                   kernels.device.busy_seconds) if kernels else None,
        "ledger": engine.ledger.snapshot(),
        "decoded": decoded,
    }, expected


@pytest.fixture()
def fresh_contexts(monkeypatch):
    """A fresh context index, so the session key's ciphertext modulus
    gets a new context: each deficit's first leave enters a fixup."""
    monkeypatch.setattr(native, "_index", weakref.WeakValueDictionary())


def entered(added):
    """(conversions into the library, words they entered) of a block."""
    return added[CONVERSIONS], added[WORDS_ENTERED]


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
                                                  monkeypatch,
                                                  fresh_contexts):
    with counted() as added:
        bound, expected = histogram(engine_class, paillier_128, passes=2)
    if native.HAVE_NATIVE:
        # The source's words, once for every view and both passes, then
        # the one R^(d+1) fixup all bins of depth LEVELS leave through.
        assert entered(added) == (2, BINS * BIN_SIZE + 1)
    with monkeypatch.context() as patch:
        _unbind_native(patch.setattr)
        unbound, _ = histogram(engine_class, paillier_128, passes=2)
    assert bound == unbound
    half = VIEWS * BINS
    assert bound["words"][:half] == bound["words"][half:]
    # snapshot rows are (seconds, count, bytes)
    assert bound["ledger"]["he.add"][1] == 2 * half * (BIN_SIZE - 1)
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


@SCALAR_ENGINES
def test_a_second_pass_converts_nothing(engine_class, paillier_128,
                                        fresh_contexts):
    engine = engine_class(paillier_128, ledger=CostLedger(),
                          rng=LimbRandom(seed=31))
    encrypted = engine.encrypt_tensor(PlainTensor.encode(
        np.linspace(-0.9, 0.9, BINS * BIN_SIZE), packer_for(BIN_SIZE)))
    order = np.random.default_rng(3).permutation(BINS * BIN_SIZE)
    view = encrypted.with_words([encrypted.words[i] for i in order])
    bins = [view[b * BIN_SIZE:(b + 1) * BIN_SIZE] for b in range(BINS)]
    both = view + encrypted

    def one_pass():
        return ([part.sum().materialize().words for part in bins],
                both.materialize().words)

    with counted() as cold:
        first = one_pass()
    with counted() as warm:
        assert one_pass() == first
    assert first[1] == tuple(planner.eager_flush(both._node, engine))
    if native.HAVE_NATIVE:
        # The source's words, then the fixups of deficits LEVELS and 1.
        assert entered(cold) == (3, BINS * BIN_SIZE + 2)
        assert entered(warm) == (0, 0)


@SCALAR_ENGINES
def test_an_nary_add_enters_its_leaves_in_one_conversion(
        engine_class, paillier_128, fresh_contexts):
    engine = engine_class(paillier_128, ledger=CostLedger(),
                          rng=LimbRandom(seed=31))
    tensors = [engine.encrypt_tensor(PlainTensor.encode(
        np.full(3, 0.1 * i), packer_for(8))) for i in range(5)]
    total = CipherTensor.add_all(tensors)
    with counted() as added:
        first = total.materialize().words
    assert list(first) == planner.eager_flush(total._node, engine)
    if native.HAVE_NATIVE:
        # Five leaves' words in one conversion, then the final fixup.
        assert entered(added) == (2, 15 + 1)
    with counted() as added:
        again = CipherTensor.add_all(tensors[::-1]).materialize().words
    assert again == first and entered(added) == (0, 0)


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
