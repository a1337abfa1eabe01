"""One-command compact reproduction of the paper's evaluation.

Run:  python examples/reproduce_paper.py        (~2 minutes)

Runs a trimmed pass over every experiment family -- the full sweeps live
in ``pytest benchmarks/ --benchmark-only`` -- and prints a one-screen
paper-versus-measured summary.
"""

from repro.experiments.harness import (
    format_table,
    he_throughput,
    run_epoch_experiment,
    run_training,
    sm_utilization,
)
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
    WITHOUT_BC,
    WITHOUT_GHE,
)
from repro.quantization.packing import compression_ratio

KEY = 1024
DATASET = "Synthetic"


def main() -> None:
    print("FLBooster reproduction -- compact evaluation pass "
          f"({DATASET}-like data, {KEY}-bit keys)\n")

    # --- Table III / Fig. 1 / Table VI: one epoch per system ---------
    reports = {config.name: run_epoch_experiment(
        config, "Homo LR", DATASET, KEY)
        for config in (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM,
                       WITHOUT_GHE, WITHOUT_BC)}
    rows = []
    for name, report in reports.items():
        p = report.component_percentages()
        rows.append([name, f"{report.epoch_seconds:.3f}",
                     f"{p['Others']:.1f}/{p['HE operations']:.1f}/"
                     f"{p['Communication']:.1f}",
                     f"{reports['FATE'].epoch_seconds / report.epoch_seconds:.0f}x"])
    print(format_table(
        ["System", "Epoch (s)", "others/HE/comm %", "vs FATE"],
        rows, title="Homo LR epoch (Tables III, V, VI; Fig. 1)"))

    # --- Table IV: throughput ----------------------------------------
    print()
    rows = [[config.name,
             f"{he_throughput(config, KEY, batch_size=4096):,.0f}",
             paper]
            for config, paper in ((FATE_SYSTEM, "363"),
                                  (HAFLO_SYSTEM, "58,823"),
                                  (FLBOOSTER_SYSTEM, "398,309"))]
    print(format_table(["System", "HE ops/s (measured)", "Paper"],
                       rows, title="HE throughput @1024 (Table IV)"))

    # --- Fig. 6 / Fig. 7 ---------------------------------------------
    print()
    rows = [[key,
             f"{sm_utilization(FLBOOSTER_SYSTEM, key):.0%} / "
             f"{sm_utilization(HAFLO_SYSTEM, key):.0%}",
             f"{compression_ratio(12_800, key, 30, 4):.0f}x"]
            for key in (1024, 2048, 4096)]
    print(format_table(
        ["Key", "SM util FLB / HAFLO (Fig. 6)",
         "Compression (Fig. 7, Eq. 11)"],
        rows, title="GPU utilization and compression vs key size"))

    # --- Fig. 8 / Table VII: convergence ------------------------------
    print()
    fate_trace = run_training(FATE_SYSTEM, "Homo LR", DATASET, KEY,
                              max_epochs=4, physical_key_bits=256).trace
    flb_trace = run_training(FLBOOSTER_SYSTEM, "Homo LR", DATASET, KEY,
                             max_epochs=4, physical_key_bits=256,
                             bc_capacity="physical").trace
    bias = abs(fate_trace.final_loss - flb_trace.final_loss) \
        / fate_trace.final_loss
    speedup = fate_trace.cumulative_seconds[-1] / \
        flb_trace.cumulative_seconds[-1]
    print(format_table(
        ["Metric", "Measured", "Paper"],
        [["final loss FATE", f"{fate_trace.final_loss:.4f}", "-"],
         ["final loss FLBooster", f"{flb_trace.final_loss:.4f}", "-"],
         ["convergence bias (Eq. 15)", f"{100 * bias:.3f}%", "<= 3.3%"],
         ["time-to-converge speedup", f"{speedup:.0f}x", "28.7-144.3x"]],
        title="Convergence (Fig. 8, Table VII)"))

    print("\nfull sweeps: pytest benchmarks/ --benchmark-only "
          "(results land in benchmarks/results/)")


if __name__ == "__main__":
    main()
