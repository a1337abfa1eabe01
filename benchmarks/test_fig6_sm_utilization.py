"""Fig. 6: GPU SM utilization in HE operations, HAFLO vs FLBooster.

The resource manager (block sizing, register budgeting, branch combining)
is what separates the two curves; both degrade as the key size raises
register pressure.
"""

from benchmarks.common import bench_key_sizes, publish
from repro.experiments.harness import (
    format_table,
    physical_key_for,
    sm_utilization,
)
from repro.experiments.plots import ascii_chart
from repro.federation.runtime import (
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
    FederationRuntime,
)


def measured_utilization(config, key_bits):
    """Utilization as actually observed on the device after a workload."""
    runtime = FederationRuntime(config, num_clients=4, key_bits=key_bits,
                                physical_key_bits=physical_key_for(key_bits))
    runtime.begin_epoch()
    engine = runtime.client_engine
    ciphertexts = engine.encrypt_batch(list(range(256)))
    engine.decrypt_batch(ciphertexts)
    return runtime.gpu_device().mean_sm_utilization()


def collect():
    rows = []
    for key_bits in bench_key_sizes():
        rows.append((key_bits,
                     sm_utilization(FLBOOSTER_SYSTEM, key_bits),
                     sm_utilization(HAFLO_SYSTEM, key_bits),
                     measured_utilization(FLBOOSTER_SYSTEM, key_bits),
                     measured_utilization(HAFLO_SYSTEM, key_bits)))
    return rows


def test_fig6_sm_utilization(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["Key", "FLBooster (plan)", "HAFLO (plan)",
         "FLBooster (measured)", "HAFLO (measured)"],
        [[key_bits, f"{flb_plan:.1%}", f"{haflo_plan:.1%}",
          f"{flb_run:.1%}", f"{haflo_run:.1%}"]
         for key_bits, flb_plan, haflo_plan, flb_run, haflo_run in rows],
        title="Fig. 6 -- SM utilization in HE operations")
    publish("fig6_sm_utilization", table)

    if len(rows) > 1:
        chart = ascii_chart(
            {"FLBooster": [(row[0], 100 * row[1]) for row in rows],
             "HAFLO": [(row[0], 100 * row[2]) for row in rows]},
            width=50, height=12, log_x=True,
            title="Fig. 6 -- SM utilization vs key size",
            x_label="key size (bits, log)", y_label="SM utilization (%)")
        publish("fig6_sm_utilization_chart", chart)

    for key_bits, flb_plan, haflo_plan, flb_run, haflo_run in rows:
        assert flb_plan > 3 * haflo_plan, key_bits
        assert flb_run > haflo_run, key_bits
        assert 0 < haflo_plan < flb_plan <= 1.0

    if len(rows) > 1:
        flb_curve = [row[1] for row in rows]
        haflo_curve = [row[2] for row in rows]
        assert flb_curve == sorted(flb_curve, reverse=True)
        assert haflo_curve == sorted(haflo_curve, reverse=True)
