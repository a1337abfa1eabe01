"""Federated training under all three systems (mini Table III + Fig. 8).

Run:  python examples/federated_training.py [model]

Trains one of the paper's four benchmark models on the scaled Synthetic
dataset under FATE, HAFLO and FLBooster, printing per-epoch losses and
modelled epoch times.  The loss trajectories coincide (same mathematics);
the time axes differ by orders of magnitude -- the paper's Fig. 8.
"""

import sys

from repro.experiments.harness import format_table, run_training
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
)

EPOCHS = 4


def main(model_name: str = "Homo LR") -> None:
    print(f"training {model_name} on Synthetic (scaled), "
          f"1024-bit key, {EPOCHS} epochs\n")

    traces = {}
    for config in (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM):
        traces[config.name] = run_training(
            config, model_name, "Synthetic", key_bits=1024,
            max_epochs=EPOCHS, physical_key_bits=256,
            bc_capacity="physical").trace

    rows = []
    for system, trace in traces.items():
        for epoch, (loss, seconds) in enumerate(
                zip(trace.losses, trace.cumulative_seconds)):
            rows.append([system, epoch + 1, f"{loss:.4f}",
                         f"{seconds:.2f}"])
    print(format_table(
        ["System", "Epoch", "Loss", "Cumulative time (s, modelled)"],
        rows))

    fate_total = traces["FATE"].cumulative_seconds[-1]
    flb_total = traces["FLBooster"].cumulative_seconds[-1]
    haflo_total = traces["HAFLO"].cumulative_seconds[-1]
    print(f"\nsame losses, different clocks:")
    print(f"  FLBooster vs FATE : {fate_total / flb_total:6.1f}x faster")
    print(f"  FLBooster vs HAFLO: {haflo_total / flb_total:6.1f}x faster")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "Homo LR")
