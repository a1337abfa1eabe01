"""Table V: ablation -- FLBooster vs w/o GHE vs w/o BC.

Removing batch compression hurts far more than removing the GPU
(communication dominates once HE is fast), and both ablations are slower
than the full system in every cell.
"""

from benchmarks.common import (
    bench_datasets,
    bench_key_sizes,
    bench_models,
    publish,
)
from repro.experiments.harness import format_table, run_epoch_experiment
from repro.federation.runtime import FLBOOSTER_SYSTEM, WITHOUT_BC, WITHOUT_GHE

SYSTEMS = (FLBOOSTER_SYSTEM, WITHOUT_GHE, WITHOUT_BC)


def collect():
    cells = {}
    for model in bench_models():
        for dataset in bench_datasets():
            for key_bits in bench_key_sizes():
                for config in SYSTEMS:
                    report = run_epoch_experiment(config, model, dataset,
                                                  key_bits)
                    cells[(model, dataset, key_bits, config.name)] = \
                        report.epoch_seconds
    return cells


def test_table5_ablation(benchmark):
    cells = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    seen = sorted({key[:3] for key in cells},
                  key=lambda k: (bench_models().index(k[0]), k[1], k[2]))
    for model, dataset, key_bits in seen:
        flb = cells[(model, dataset, key_bits, "FLBooster")]
        no_ghe = cells[(model, dataset, key_bits, "w/o GHE")]
        no_bc = cells[(model, dataset, key_bits, "w/o BC")]
        rows.append([model, dataset, key_bits, f"{flb:.3f}",
                     f"{no_ghe:.3f}", f"{no_bc:.3f}",
                     f"{no_ghe / flb:.1f}x", f"{no_bc / flb:.1f}x"])
    table = format_table(
        ["Model", "Dataset", "Key", "FLBooster (s)", "w/o GHE (s)",
         "w/o BC (s)", "GHE gain", "BC gain"],
        rows,
        title="Table V -- ablation (modelled epoch seconds)")
    publish("table5_ablation", table)

    for model, dataset, key_bits in seen:
        flb = cells[(model, dataset, key_bits, "FLBooster")]
        no_ghe = cells[(model, dataset, key_bits, "w/o GHE")]
        no_bc = cells[(model, dataset, key_bits, "w/o BC")]
        # Full system fastest in every cell.
        assert flb < no_ghe, (model, dataset, key_bits)
        assert flb < no_bc, (model, dataset, key_bits)
        # Paper Sec. VI-E: BC gains (14.3x-126.7x) dwarf GHE gains (~2-9x).
        assert no_bc > no_ghe, (model, dataset, key_bits)
        assert 1.2 < no_ghe / flb < 60, (model, dataset, key_bits)
        assert 5 < no_bc / flb < 400, (model, dataset, key_bits)
