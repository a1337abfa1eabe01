"""Fusion acceptance: fewer simulated-GPU launches, identical results.

The lazy CipherTensor planner must make the Homo-LR-style aggregation
round strictly cheaper in kernel launches than the eager pair-at-a-time
path -- while producing bit-identical decrypted outputs (Paillier adds
are commutative modular multiplications).
"""

import numpy as np

from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime


def make_runtime(fused):
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=8,
                             key_bits=1024, physical_key_bits=256,
                             fused=fused)


def client_vectors(num_clients=8, length=24, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.9, 0.9, length) for _ in range(num_clients)]


class TestFusedVsEager:
    def test_fused_uses_strictly_fewer_server_launches(self):
        vectors = client_vectors()
        results = {}
        server_launches = {}
        for mode in (True, False):
            runtime = make_runtime(fused=mode)
            runtime.begin_epoch()
            results[mode] = runtime.aggregator.aggregate(vectors)
            server_launches[mode] = \
                runtime.server_engine.kernels.device.launches
        # 8 uploads reduce in ceil(log2 8) = 3 fused add launches versus
        # 7 eager ones.
        assert server_launches[True] < server_launches[False]
        assert np.array_equal(results[True], results[False])

    def test_fused_epoch_records_fewer_ledger_launches(self):
        vectors = client_vectors()
        counts = {}
        for mode in (True, False):
            runtime = make_runtime(fused=mode)
            ledger = runtime.begin_epoch()
            runtime.aggregator.aggregate(vectors)
            counts[mode] = ledger.count("gpu.launch")
        assert counts[True] < counts[False]

    def test_fused_sum_is_exact_vs_plaintext(self):
        vectors = client_vectors()
        runtime = make_runtime(fused=True)
        total = runtime.aggregator.aggregate(vectors)
        step = runtime.plan.scheme.quantization_step
        assert np.allclose(total, np.sum(vectors, axis=0),
                           atol=len(vectors) * step)
