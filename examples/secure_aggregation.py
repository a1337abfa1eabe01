"""Secure gradient aggregation: one FLBooster round, end to end.

Run:  python examples/secure_aggregation.py

Four hospitals jointly average a gradient vector without revealing their
individual updates (the paper's Fig. 2 loop).  The same round is executed
under the FATE baseline and under FLBooster, and the modelled cost
breakdown shows where the 2-orders-of-magnitude gap comes from.
"""

import numpy as np

from repro.baselines import FATE, FLBOOSTER
from repro.federation.runtime import FederationRuntime

NUM_HOSPITALS = 4
GRADIENT_DIM = 2048


def run_round(config, gradients):
    runtime = FederationRuntime(config, num_clients=NUM_HOSPITALS,
                                key_bits=1024, physical_key_bits=256)
    ledger = runtime.begin_epoch()
    averaged = runtime.aggregator.average(gradients, tag="hospital_round")
    return runtime, ledger, averaged


def main() -> None:
    rng = np.random.default_rng(7)
    gradients = [rng.uniform(-0.5, 0.5, GRADIENT_DIM)
                 for _ in range(NUM_HOSPITALS)]
    expected = np.mean(gradients, axis=0)

    print(f"{NUM_HOSPITALS} hospitals, {GRADIENT_DIM}-dim gradients, "
          f"1024-bit Paillier\n")

    results = {}
    for config in (FATE, FLBOOSTER):
        runtime, ledger, averaged = run_round(config, gradients)
        error = float(np.max(np.abs(averaged - expected)))
        results[config.name] = ledger
        print(f"--- {config.name} ---")
        print(f"  max aggregation error : {error:.2e}")
        print(f"  ciphertexts on wire   : {runtime.channel.stats.ciphertexts}")
        print(f"  wire bytes            : {runtime.channel.stats.wire_bytes:,}")
        print(f"  HE operations         : {ledger.count('he')}")
        print(f"  modelled round time   : {ledger.total_seconds:.3f} s")
        for component, seconds in ledger.by_component().items():
            print(f"    {component:<15s} {seconds:9.3f} s")
        if config.batch_compression:
            packer = runtime.plan.packer
            print(f"  packing: {packer.capacity} gradients/ciphertext, "
                  f"compression {GRADIENT_DIM / packer.words_needed(GRADIENT_DIM):.1f}x, "
                  f"PSU {packer.achieved_psu(GRADIENT_DIM):.1%}")
        print()

    speedup = results["FATE"].total_seconds / \
        results["FLBooster"].total_seconds
    print(f"FLBooster speedup over FATE for this round: {speedup:.0f}x")


if __name__ == "__main__":
    main()
