"""Fig. 7: batch-compression ratio of FLBooster versus key size.

Theoretical curve (Eq. 11) and the ratio actually achieved on each
model's real transfer sizes: ~32x at 1024 bits, ~64x at 2048, ~128x at
4096, nearly identical across datasets and models.
"""

from benchmarks.common import (
    bench_datasets,
    bench_key_sizes,
    bench_models,
    publish,
)
from repro.experiments.harness import format_table, run_epoch_experiment
from repro.federation.runtime import FLBOOSTER_SYSTEM, WITHOUT_BC
from repro.quantization.packing import compression_ratio


def collect():
    cells = {}
    for model in bench_models():
        for dataset in bench_datasets():
            for key_bits in bench_key_sizes():
                packed = run_epoch_experiment(FLBOOSTER_SYSTEM, model, dataset,
                                              key_bits)
                unpacked = run_epoch_experiment(WITHOUT_BC, model, dataset,
                                                key_bits)
                cells[(model, dataset, key_bits)] = (
                    unpacked.wire_bytes / max(packed.wire_bytes, 1),
                    compression_ratio(12_800, key_bits, 30, 4))
    return cells


def test_fig7_compression_ratio(benchmark):
    cells = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = [[model, dataset, key_bits, f"{achieved:.1f}x",
             f"{theory:.1f}x"]
            for (model, dataset, key_bits), (achieved, theory)
            in sorted(cells.items(),
                      key=lambda kv: (bench_models().index(kv[0][0]),
                                      kv[0][1], kv[0][2]))]
    table = format_table(
        ["Model", "Dataset", "Key", "Achieved (wire bytes)",
         "Theory (Eq. 11)"],
        rows,
        title="Fig. 7 -- compression ratio vs key size")
    publish("fig7_compression_ratio", table)

    for (model, dataset, key_bits), (achieved, theory) in cells.items():
        # Theory: ~k/32.
        assert abs(theory - key_bits / 32) < 1.5
        # Achieved wire reduction tracks the packing capacity times the
        # object-vs-packed serialization gap; at least half the capacity.
        assert achieved > theory / 2, (model, dataset, key_bits)

    if len(bench_key_sizes()) > 1:
        for model in bench_models():
            for dataset in bench_datasets():
                curve = [cells[(model, dataset, k)][0]
                         for k in bench_key_sizes()]
                # Ratio increases with key size (Fig. 7's trend).
                assert curve == sorted(curve), (model, dataset)
