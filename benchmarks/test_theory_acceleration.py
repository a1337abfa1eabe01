"""Eqs. 10-14: theoretical acceleration ratios versus measured.

Checks the paper's analytical model against the reproduction's measured
behaviour: the GHE ratio (Eq. 10), the BC ratio = compression ratio
(Eqs. 11/13), and the multiplicative composition AC = AC_ghe * AC_bc
(Eq. 14).
"""

from benchmarks.common import bench_key_sizes, publish
from repro.experiments.harness import (
    format_table,
    he_throughput,
    run_epoch_experiment,
)
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    WITHOUT_BC,
    WITHOUT_GHE,
)
from repro.gpu.cost_model import DEFAULT_PROFILE
from repro.gpu.resource_manager import ResourceManager
from repro.quantization.packing import compression_ratio


def collect():
    rows = []
    manager = ResourceManager(managed=True)
    for key_bits in bench_key_sizes():
        plan = manager.plan(4096, DEFAULT_PROFILE.ciphertext_limbs(key_bits))
        eq10 = DEFAULT_PROFILE.eq10_acceleration_ratio(4096, key_bits, plan)
        measured_ghe = (
            he_throughput(FLBOOSTER_SYSTEM, key_bits, batch_size=4096)
            / he_throughput(FATE_SYSTEM, key_bits, batch_size=4096))
        eq13 = compression_ratio(10_000, key_bits, 30, 4)
        fate = run_epoch_experiment(FATE_SYSTEM, "Homo LR", "RCV1", key_bits)
        flb = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "RCV1",
                                   key_bits)
        no_bc = run_epoch_experiment(WITHOUT_BC, "Homo LR", "RCV1",
                                     key_bits)
        no_ghe = run_epoch_experiment(WITHOUT_GHE, "Homo LR", "RCV1",
                                      key_bits)
        measured_bc = no_bc.he_operations / max(flb.he_operations, 1)
        ghe_gain = no_ghe.epoch_seconds / flb.epoch_seconds
        bc_gain = no_bc.epoch_seconds / flb.epoch_seconds
        total_gain = fate.epoch_seconds / flb.epoch_seconds
        rows.append((key_bits, eq10, measured_ghe, eq13, measured_bc,
                     ghe_gain, bc_gain, total_gain))
    return rows


def test_theory_acceleration(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["Key", "AC_ghe (Eq.10)", "GHE throughput x", "AC_bc (Eq.13)",
         "HE-op reduction x", "GHE epoch gain", "BC epoch gain",
         "Total gain"],
        [[key_bits, f"{eq10:.0f}", f"{ghe:.0f}", f"{eq13:.1f}",
          f"{bc:.1f}", f"{ghe_gain:.1f}", f"{bc_gain:.1f}",
          f"{total:.1f}"]
         for key_bits, eq10, ghe, eq13, bc, ghe_gain, bc_gain, total
         in rows],
        title="Eqs. 10-14 -- theory vs measured acceleration")
    publish("theory_acceleration", table)

    for key_bits, eq10, measured_ghe, eq13, measured_bc, \
            ghe_gain, bc_gain, total_gain in rows:
        # Eq. 10's analytic ratio within 3x of the measured throughput gap.
        assert eq10 / 3 < measured_ghe < eq10 * 3, key_bits
        # Eq. 13: the HE-op reduction equals the compression ratio.
        assert abs(measured_bc - eq13) / eq13 < 0.35, key_bits
        # Eq. 14: the total gain is super-additive -- it exceeds each
        # individual module's epoch gain (the modules compose).
        assert total_gain > ghe_gain, key_bits
        assert total_gain > 0.5 * bc_gain, key_bits
