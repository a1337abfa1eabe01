"""Property test: lazy-fused expressions decrypt identically to eager.

Paillier's homomorphic ops are modular multiplications/exponentiations,
so the fused level-wise reduction and the eager pair-at-a-time path must
produce *bit-identical* ciphertexts -- not merely close decodes.  The
sweep covers value counts, packing capacities, quantization schemes,
operand counts and scalar factors.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker
from repro.tensor.plain import PlainTensor


# tests/test_no_native.py collects this class a second time (library
# unbound), so each method legitimately runs on two instances.
TWO_BINDINGS = [HealthCheck.differing_executors]


@st.composite
def fusion_cases(draw):
    count = draw(st.integers(min_value=1, max_value=18))
    capacity = draw(st.sampled_from([1, 2, 4]))
    r_bits = draw(st.sampled_from([10, 14]))
    operands = draw(st.integers(min_value=2, max_value=4))
    # Summands after fusion = sum of scalars; keep within the 16-party
    # overflow headroom (4 reserved bits).
    scalars = draw(st.lists(st.integers(min_value=1, max_value=3),
                            min_size=operands, max_size=operands))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return count, capacity, r_bits, scalars, seed


class TestFusedEqualsEager:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=TWO_BINDINGS)
    @given(case=fusion_cases())
    def test_weighted_sum_matches(self, paillier_128, case):
        count, capacity, r_bits, scalars, seed = case
        scheme = QuantizationScheme(alpha=1.0, r_bits=r_bits,
                                    num_parties=16)
        packer = BatchPacker(scheme, plaintext_bits=127, capacity=capacity)
        engine = CpuPaillierEngine(paillier_128, ledger=CostLedger(),
                                   rng=LimbRandom(seed=7))
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(-0.9, 0.9, count) for _ in scalars]
        tensors = [engine.encrypt_tensor(PlainTensor.encode(a, packer))
                   for a in arrays]

        # Eager: one engine call per op, left-to-right.
        eager = None
        for tensor, scalar in zip(tensors, scalars):
            words = list(tensor.words)
            if scalar != 1:
                words = engine.scalar_mul_batch(words,
                                                [scalar] * len(words))
            eager = words if eager is None else \
                engine.add_batch(eager, words)

        # Lazy: one fused expression, flushed by the planner.
        expr = scalars[0] * tensors[0]
        for tensor, scalar in zip(tensors[1:], scalars[1:]):
            expr = expr + scalar * tensor
        fused = expr.materialize()

        assert list(fused.words) == eager
        assert fused.meta.summands == sum(scalars)

        decoded = engine.decrypt_tensor(fused).decode()
        expected = sum(s * a for s, a in zip(scalars, arrays))
        tolerance = sum(scalars) * scheme.quantization_step
        assert np.allclose(decoded, expected, atol=tolerance)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=TWO_BINDINGS)
    @given(count=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_sum_matches_eager_accumulation(self, paillier_128, count,
                                            seed):
        scheme = QuantizationScheme(alpha=1.0, r_bits=12, num_parties=16)
        packer = BatchPacker(scheme, plaintext_bits=127, capacity=1)
        engine = CpuPaillierEngine(paillier_128, ledger=CostLedger(),
                                   rng=LimbRandom(seed=7))
        values = np.random.default_rng(seed).uniform(-0.9, 0.9, count)
        tensor = engine.encrypt_tensor(PlainTensor.encode(values, packer))

        total = tensor.sum().materialize()
        eager = list(tensor.words)[0]
        for word in list(tensor.words)[1:]:
            eager = engine.add_batch([eager], [word])[0]

        assert list(total.words) == [eager]
        decoded = engine.decrypt_tensor(total).decode()
        assert np.allclose(decoded, values.sum(),
                           atol=count * scheme.quantization_step)
