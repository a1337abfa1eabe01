"""Fig. 1: FATE per-epoch running time broken into HE / comm / other.

The paper's motivating figure: for all four FL models at a 1024-bit key,
HE operations take >50% of a FATE epoch and communication >40%.
"""

from benchmarks.common import bench_models, publish
from repro.experiments.harness import format_table, run_epoch_experiment
from repro.federation.runtime import FATE_SYSTEM


def collect():
    rows = []
    for model in bench_models():
        report = run_epoch_experiment(FATE_SYSTEM, model, "RCV1", 1024)
        percentages = report.component_percentages()
        rows.append((model, report, percentages))
    return rows


def test_fig1_fate_breakdown(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["Model", "Epoch (s, modelled)", "HE ops %", "Comm %", "Others %"],
        [[model,
          f"{report.epoch_seconds:.1f}",
          f"{p['HE operations']:.1f}",
          f"{p['Communication']:.1f}",
          f"{p['Others']:.1f}"]
         for model, report, p in rows],
        title="Fig. 1 -- FATE epoch breakdown @1024 (RCV1-like, scaled)")
    publish("fig1_fate_breakdown", table)

    for model, report, percentages in rows:
        # The paper's claim: HE > 50%, comm > 40% of a FATE epoch --
        # scaled runs keep both components dominant (>= 90% combined)
        # with "others" negligible.
        assert percentages["HE operations"] + \
            percentages["Communication"] > 90, model
        assert percentages["Others"] < 10, model
        assert percentages["HE operations"] > 30, model
        assert percentages["Communication"] > 10, model
