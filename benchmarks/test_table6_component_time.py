"""Table VI: component running-time percentages at a 1024-bit key.

Paper values (Homo LR): FATE 0.1 / 52.0 / 47.9 (others / HE / comm),
HAFLO 0.2 / 0.6 / 99.2, FLBooster 22.1 / 5.9 / 72.0.
"""

from benchmarks.common import bench_datasets, publish
from repro.experiments.harness import format_table, run_epoch_experiment
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
)

SYSTEMS = (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM)

#: Paper Table VI reference, RCV1 rows: (others, HE, comm).
PAPER_REFERENCE = {
    "FATE": (0.1, 52.0, 47.9),
    "HAFLO": (0.2, 0.6, 99.2),
    "FLBooster": (22.1, 5.9, 72.0),
}


def collect():
    cells = {}
    for dataset in bench_datasets():
        for config in SYSTEMS:
            report = run_epoch_experiment(config, "Homo LR", dataset, 1024)
            cells[(dataset, config.name)] = report.component_percentages()
    return cells


def test_table6_component_time(benchmark):
    cells = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for (dataset, system), p in sorted(cells.items()):
        paper = PAPER_REFERENCE[system]
        rows.append([dataset, system,
                     f"{p['Others']:.1f}", f"{p['HE operations']:.1f}",
                     f"{p['Communication']:.1f}",
                     f"{paper[0]}/{paper[1]}/{paper[2]}"])
    table = format_table(
        ["Dataset", "System", "Others %", "HE %", "Comm %",
         "Paper (o/he/c)"],
        rows,
        title="Table VI -- component running time @1024 (Homo LR)")
    publish("table6_component_time", table)

    for dataset in bench_datasets():
        fate = cells[(dataset, "FATE")]
        haflo = cells[(dataset, "HAFLO")]
        flb = cells[(dataset, "FLBooster")]
        # FATE: HE and comm split the epoch roughly evenly, others ~0.
        assert 35 < fate["HE operations"] < 70, dataset
        assert 30 < fate["Communication"] < 60, dataset
        assert fate["Others"] < 3, dataset
        # HAFLO: GPU kills HE share, communication dominates.
        assert haflo["Communication"] > 90, dataset
        assert haflo["HE operations"] < 8, dataset
        # FLBooster: "others" (pipeline conversion) becomes visible,
        # HE stays small, comm still the largest share.
        assert flb["Others"] > fate["Others"] + 3, dataset
        assert flb["HE operations"] < 15, dataset
        assert flb["Communication"] > 40, dataset
