"""Table IV: HE-operation throughput (instances per second).

Paper targets at 1024/2048/4096 bits: FATE ~363/69/12, HAFLO
~59k/10k/1.7k, FLBooster ~400k/65k/11k -- the reproduction's cost model
is calibrated to land on these orders, and the ordering/scaling shapes
are asserted.
"""

from benchmarks.common import bench_datasets, bench_key_sizes, publish
from repro.experiments.harness import (
    format_table,
    he_throughput,
    scaled_dataset,
)
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
)

SYSTEMS = (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM)

#: Paper Table IV reference bands (Homo LR column, rounded):
PAPER_REFERENCE = {
    (  "FATE", 1024): 363, (  "FATE", 2048): 69, (  "FATE", 4096): 12,
    ( "HAFLO", 1024): 58823, ( "HAFLO", 2048): 9783, ( "HAFLO", 4096): 1709,
    ("FLBooster", 1024): 398309, ("FLBooster", 2048): 64782,
    ("FLBooster", 4096): 11316,
}


def collect():
    measurements = {}
    for dataset in bench_datasets():
        # Saturating batches (the paper pipelines full gradient vectors
        # through the device); the dataset's feature dimension nudges the
        # batch size, which is why the paper's per-dataset throughput
        # differs slightly.
        batch = 2048 + 2 * scaled_dataset(dataset).num_features
        for key_bits in bench_key_sizes():
            for config in SYSTEMS:
                measurements[(dataset, key_bits, config.name)] = \
                    he_throughput(config, key_bits, batch_size=batch)
    return measurements


def test_table4_throughput(benchmark):
    measurements = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for (dataset, key_bits, system), value in sorted(measurements.items()):
        paper = PAPER_REFERENCE.get((system, key_bits))
        rows.append([dataset, key_bits, system, f"{value:,.0f}",
                     f"{paper:,}" if paper else "-"])
    table = format_table(
        ["Dataset", "Key", "System", "Measured (inst/s)", "Paper (inst/s)"],
        rows,
        title="Table IV -- HE-operation throughput")
    publish("table4_throughput", table)

    for dataset in bench_datasets():
        for key_bits in bench_key_sizes():
            fate = measurements[(dataset, key_bits, "FATE")]
            haflo = measurements[(dataset, key_bits, "HAFLO")]
            flb = measurements[(dataset, key_bits, "FLBooster")]
            assert fate < haflo < flb, (dataset, key_bits)
            # Within ~3x of the paper's absolute numbers.
            for system, value in (("FATE", fate), ("HAFLO", haflo),
                                  ("FLBooster", flb)):
                paper = PAPER_REFERENCE[(system, key_bits)]
                assert paper / 4 < value < paper * 4, \
                    (dataset, key_bits, system, value, paper)
