"""Fig. 8: loss-versus-wallclock convergence on Synthetic at 1024 bits.

FLBooster reaches any given loss level far sooner in modelled wall-clock
than HAFLO, which beats FATE; all three converge to equivalent losses
(the quantization runs at the paper's full precision via
``bc_capacity="physical"``).
"""

import numpy as np

from benchmarks.common import bench_models, fast_mode, publish
from repro.experiments.plots import ascii_chart
from repro.experiments.harness import format_table, run_training
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
)

SYSTEMS = (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM)
MAX_EPOCHS = 3 if fast_mode() else 6


def collect():
    traces = {}
    for model in bench_models():
        for config in SYSTEMS:
            traces[(model, config.name)] = run_training(
                config, model, "Synthetic", 1024, max_epochs=MAX_EPOCHS,
                physical_key_bits=256, bc_capacity="physical").trace
    return traces


def test_fig8_convergence(benchmark):
    traces = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for model in bench_models():
        for system in ("FATE", "HAFLO", "FLBooster"):
            trace = traces[(model, system)]
            total = trace.cumulative_seconds[-1]
            rows.append([model, system, len(trace.losses),
                         f"{trace.losses[0]:.4f}",
                         f"{trace.final_loss:.4f}", f"{total:.1f}"])
    table = format_table(
        ["Model", "System", "Epochs", "First loss", "Final loss",
         "Total time (s, modelled)"],
        rows,
        title="Fig. 8 -- convergence on Synthetic @1024")
    publish("fig8_convergence", table)

    # Also persist the raw curves and an ASCII rendering of the figure.
    curve_lines = ["model\tsystem\tepoch\tseconds\tloss"]
    for (model, system), trace in traces.items():
        for epoch, (seconds, loss) in enumerate(
                zip(trace.cumulative_seconds, trace.losses)):
            curve_lines.append(
                f"{model}\t{system}\t{epoch}\t{seconds:.3f}\t{loss:.6f}")
    publish("fig8_convergence_curves", "\n".join(curve_lines))

    charts = []
    for model in bench_models():
        series = {
            system: list(zip(traces[(model, system)].cumulative_seconds,
                             traces[(model, system)].losses))
            for system in ("FATE", "HAFLO", "FLBooster")
        }
        charts.append(ascii_chart(
            series, width=56, height=12, log_x=True,
            title=f"Fig. 8 -- {model}: loss vs modelled seconds "
                  f"(log time axis)",
            x_label="modelled seconds (log)", y_label="training loss"))
    publish("fig8_convergence_chart", "\n\n".join(charts))

    for model in bench_models():
        fate = traces[(model, "FATE")]
        haflo = traces[(model, "HAFLO")]
        flb = traces[(model, "FLBooster")]
        # Same number of epochs reaches an equivalent loss...
        assert np.isfinite(flb.final_loss)
        assert abs(flb.final_loss - fate.final_loss) / fate.final_loss \
            < 0.1, model
        # ...in a fraction of the wall-clock (paper: 28.7x-144.3x vs
        # FATE, 14.3x-75.2x vs HAFLO; conservative bounds here because
        # the physical-capacity packing under-credits compression).
        assert flb.cumulative_seconds[-1] * 8 < \
            fate.cumulative_seconds[-1], model
        assert flb.cumulative_seconds[-1] * 3 < \
            haflo.cumulative_seconds[-1], model
        assert haflo.cumulative_seconds[-1] < \
            fate.cumulative_seconds[-1], model
