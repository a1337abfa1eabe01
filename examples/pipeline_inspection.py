"""Inside the FLBooster pipeline (paper Fig. 4) and the BC theory.

Run:  python examples/pipeline_inspection.py

Runs one secure-aggregation round through the FLBooster runtime, prints
its cost ledger one category per row in the order the round charged
them (encode/pack -> encrypt -> upload -> sum -> download -> decrypt ->
unpack/decode), then sweeps the batch-compression theory (Eqs. 11-12)
across key sizes and slot layouts.
"""

import numpy as np

from repro.experiments.harness import format_table
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.quantization.packing import (
    compression_ratio,
    packing_capacity,
    plaintext_space_utilization,
)


def main() -> None:
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4, key_bits=1024,
                                seed=7)
    scheme = runtime.plan.scheme
    print(f"1024-bit Paillier, r = {scheme.r_bits} value bits + "
          f"{scheme.overflow_bits} overflow bits, "
          f"capacity = {runtime.plan.packer.capacity} gradients per "
          f"ciphertext\n")

    ledger = runtime.begin_epoch()
    gradients = np.random.default_rng(1).uniform(-1, 1, (4, 2048))
    total = runtime.aggregator.aggregate(list(gradients))
    print("one aggregation round, by ledger category (Fig. 4 order):")
    for category, (seconds, count, _) in ledger.snapshot().items():
        share = 100 * seconds / ledger.total_seconds
        print(f"  {category:<24s} {seconds * 1e3:9.3f} ms  "
              f"({share:5.1f}%)  [{count} items]")
    print(f"  {'TOTAL':<24s} {ledger.total_seconds * 1e3:9.3f} ms")
    error = float(np.max(np.abs(total - gradients.sum(axis=0))))
    print(f"  max error of the decrypted sum: {error:.2e} "
          f"(quantization step {scheme.quantization_step:.2e})\n")

    rows = []
    for key_bits in (1024, 2048, 4096):
        for r_bits in (14, 30, 62):
            capacity = packing_capacity(key_bits, r_bits, 4)
            rows.append([key_bits, r_bits + 2, capacity,
                         f"{compression_ratio(100_000, key_bits, r_bits, 4):.1f}x",
                         f"{plaintext_space_utilization(100_000, key_bits, r_bits, 4):.1%}"])
    print(format_table(
        ["Key bits", "Slot bits", "Capacity", "Compression (Eq. 11)",
         "PSU (Eq. 12)"],
        rows,
        title="Batch-compression theory sweep"))


if __name__ == "__main__":
    main()
