"""Related-work comparison: symmetric masking vs Paillier (paper Sec. II).

Quantifies the temptation the paper's related work warns about: a
FLASHE/ASHE-style symmetric masking scheme aggregates orders of magnitude
faster than Paillier -- and falls to a one-known-pair attack the moment a
mask is reused (demonstrated in ``tests/crypto/test_symmetric_he.py``).
FLBooster's answer is to keep asymmetric Paillier and win the time back
with GPU parallelism + batch compression instead.
"""

import time

import numpy as np

from benchmarks.common import bench_rng, publish
from repro.crypto.symmetric_he import MaskingScheme
from repro.experiments.harness import format_table
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime

VECTOR_LENGTH = 1024
NUM_PARTIES = 4


def collect():
    rng = bench_rng(3)
    vectors = [rng.integers(0, 1 << 20, VECTOR_LENGTH).tolist()
               for _ in range(NUM_PARTIES)]

    # Symmetric masking: wall-clock is a fair proxy (pure integer adds).
    masking = MaskingScheme(key=b"bench", num_parties=NUM_PARTIES, bits=64)
    start = time.perf_counter()
    ciphertexts = [masking.encrypt(vector, round_index=0, party=index)
                   for index, vector in enumerate(vectors)]
    totals = masking.aggregate_decrypt(ciphertexts, round_index=0)
    masking_seconds = time.perf_counter() - start
    expected = [sum(column) for column in zip(*vectors)]
    assert totals == expected

    # Paillier under FLBooster: modelled seconds at the 1024-bit key.
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=NUM_PARTIES,
                                key_bits=1024, physical_key_bits=256)
    ledger = runtime.begin_epoch()
    float_vectors = [np.asarray(vector, dtype=np.float64) / (1 << 21)
                     for vector in vectors]
    runtime.aggregator.aggregate(float_vectors)
    paillier_seconds = ledger.total_seconds

    return masking_seconds, paillier_seconds


def test_related_work_symmetric(benchmark):
    masking_seconds, paillier_seconds = benchmark.pedantic(
        collect, rounds=1, iterations=1)

    # The masking time is wall-clock and varies run to run, so it is
    # printed but kept out of the committed table, which must regenerate
    # byte-identically; the Paillier time is the cost ledger's.
    table = format_table(
        ["Scheme", "Round time (s)", "Clock", "Security"],
        [["Symmetric masking (FLASHE-style)", "not recorded",
          "measured (wall-clock)",
          "breaks on mask reuse (known-plaintext)"],
         ["Paillier + FLBooster", f"{paillier_seconds:.4f}",
          "modelled (cost ledger)", "semantically secure (DCRA)"]],
        title="Related work -- symmetric HE vs accelerated Paillier "
              f"({NUM_PARTIES} parties x {VECTOR_LENGTH} values)")
    publish("related_work_symmetric", table)
    print(f"symmetric masking round, measured: {masking_seconds:.4f} s "
          "wall-clock")

    # The temptation is real: masking is at least 10x faster even than
    # the fully accelerated Paillier pipeline.
    assert masking_seconds < paillier_seconds
    # But FLBooster keeps the asymmetric gap bounded -- the whole point.
    assert paillier_seconds < 1000 * max(masking_seconds, 1e-6)
