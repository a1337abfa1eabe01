"""Table III: average running time per epoch, FATE / HAFLO / FLBooster.

The paper's headline table: 4 models x 3 datasets x 3 key sizes.  The
reproduction runs scaled datasets with modelled time (DESIGN.md), so the
comparison targets are the *ratios*: FLBooster beats HAFLO by 1-2 orders
and FATE by 2-3, gains grow with the key size, and the relative gain is
smallest for Hetero SBT.
"""

from benchmarks.common import (
    bench_datasets,
    bench_key_sizes,
    bench_models,
    publish,
)
from repro.experiments.harness import (
    format_table,
    run_epoch_experiment,
    scaled_dataset,
)
from repro.experiments.extrapolate import extrapolate_report
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
)

SYSTEMS = (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM)

#: Paper Table III FATE column (seconds) for the extrapolation check.
PAPER_FATE_1024 = {
    ("Homo LR", "RCV1"): 10009.9, ("Homo LR", "Avazu"): 79457.9,
    ("Homo LR", "Synthetic"): 1327.2,
    ("Hetero LR", "RCV1"): 4760.0, ("Hetero LR", "Avazu"): 25109.8,
    ("Hetero LR", "Synthetic"): 706.6,
    ("Hetero SBT", "RCV1"): 36489.2, ("Hetero SBT", "Avazu"): 92526.3,
    ("Hetero SBT", "Synthetic"): 5462.3,
    ("Hetero NN", "RCV1"): 26696.7, ("Hetero NN", "Avazu"): 83324.7,
    ("Hetero NN", "Synthetic"): 3974.2,
}


def collect():
    cells = {}
    for model in bench_models():
        for dataset in bench_datasets():
            for key_bits in bench_key_sizes():
                for config in SYSTEMS:
                    report = run_epoch_experiment(config, model, dataset,
                                                  key_bits)
                    cells[(model, dataset, key_bits, config.name)] = report
    return cells


def test_table3_running_time(benchmark):
    cells = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    seen = sorted({key[:3] for key in cells},
                  key=lambda k: (bench_models().index(k[0]), k[1], k[2]))
    for model, dataset, key_bits in seen:
        fate_report = cells[(model, dataset, key_bits, "FATE")]
        fate = fate_report.epoch_seconds
        haflo = cells[(model, dataset, key_bits, "HAFLO")].epoch_seconds
        flb = cells[(model, dataset, key_bits, "FLBooster")].epoch_seconds
        extrapolated = extrapolate_report(fate_report,
                                          scaled_dataset(dataset))
        paper = PAPER_FATE_1024.get((model, dataset)) \
            if key_bits == 1024 else None
        rows.append([model, dataset, key_bits,
                     f"{fate:.2f}", f"{haflo:.2f}", f"{flb:.4f}",
                     f"{fate / flb:.1f}x", f"{haflo / flb:.1f}x",
                     f"{extrapolated:,.0f}",
                     f"{paper:,.0f}" if paper else "-"])
    table = format_table(
        ["Model", "Dataset", "Key", "FATE (s)", "HAFLO (s)",
         "FLBooster (s)", "FATE/FLB", "HAFLO/FLB",
         "FATE paper-scale est.", "FATE paper"],
        rows,
        title="Table III -- epoch time (modelled, scaled datasets)")
    publish("table3_running_time", table)

    for (model, dataset, key_bits), _ in [(key[:3], None)
                                          for key in cells
                                          if key[3] == "FATE"]:
        fate = cells[(model, dataset, key_bits, "FATE")].epoch_seconds
        haflo = cells[(model, dataset, key_bits, "HAFLO")].epoch_seconds
        flb = cells[(model, dataset, key_bits, "FLBooster")].epoch_seconds
        # Ordering: FLBooster < HAFLO < FATE in every cell.
        assert flb < haflo < fate, (model, dataset, key_bits)
        # Magnitude: paper reports 14.3x-138x over HAFLO; allow a wide
        # band around it for the scaled substrate.
        assert 5 < haflo / flb < 400, (model, dataset, key_bits)

    if len(bench_key_sizes()) > 1:
        # Acceleration over FATE grows with the key size (paper Sec. VI-C).
        for model in bench_models():
            for dataset in bench_datasets():
                small = cells[(model, dataset, 1024, "FATE")].epoch_seconds \
                    / cells[(model, dataset, 1024, "FLBooster")].epoch_seconds
                large = cells[(model, dataset, 4096, "FATE")].epoch_seconds \
                    / cells[(model, dataset, 4096, "FLBooster")].epoch_seconds
                assert large > small, (model, dataset)
