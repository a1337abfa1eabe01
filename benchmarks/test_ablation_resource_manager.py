"""Design-choice ablation: which resource-manager mechanism buys what.

Beyond the paper's system-level Table V, this decomposes the GPU-side gap
between HAFLO and FLBooster into its three mechanisms (Sec. IV-A2):

- block-size selection vs a fixed maximal block,
- branch combining vs divergence-inflated registers,
- the memory table vs per-launch device allocation.
"""

from benchmarks.common import bench_key_sizes, publish
from repro.experiments.harness import format_table
from repro.gpu.cost_model import DEFAULT_PROFILE
from repro.gpu.device import RTX_3090
from repro.gpu.resource_manager import (
    BASE_REGISTERS_PER_THREAD,
    COMMON_BLOCK_SIZES,
    LAUNCH_LATENCY_MANAGED,
    LAUNCH_LATENCY_UNMANAGED,
    REGISTERS_PER_LIMB,
    UNMANAGED_BRANCH_REGISTER_FACTOR,
    ResourceManager,
)


def block_size_sweep(key_bits):
    """Occupancy of each candidate block size for ciphertext operands."""
    manager = ResourceManager(managed=True)
    limbs = DEFAULT_PROFILE.ciphertext_limbs(key_bits)
    plan = manager.plan(4096, limbs)
    registers = plan.registers_per_thread
    rows = {}
    for block in COMMON_BLOCK_SIZES:
        if block < plan.threads_per_task:
            continue
        resident = manager._resident_threads(block, registers)
        rows[block] = resident / RTX_3090.max_threads_per_sm
    return plan.block_size, rows


def register_factor_sweep(key_bits):
    """Occupancy as branch divergence inflates register demand."""
    manager = ResourceManager(managed=True)
    limbs = DEFAULT_PROFILE.ciphertext_limbs(key_bits)
    plan = manager.plan(4096, limbs)
    base = BASE_REGISTERS_PER_THREAD + \
        REGISTERS_PER_LIMB * plan.limbs_per_thread
    out = {}
    for factor in (1, 2, UNMANAGED_BRANCH_REGISTER_FACTOR):
        resident = manager._resident_threads(plan.block_size, base * factor)
        out[factor] = resident / RTX_3090.max_threads_per_sm
    return out


def collect():
    results = []
    for key_bits in bench_key_sizes():
        chosen, occupancies = block_size_sweep(key_bits)
        factors = register_factor_sweep(key_bits)
        results.append((key_bits, chosen, occupancies, factors))
    return results


def test_ablation_resource_manager(benchmark):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for key_bits, chosen, occupancies, factors in results:
        for block, occupancy in sorted(occupancies.items()):
            marker = " <= chosen" if block == chosen else ""
            rows.append([key_bits, f"block={block}{marker}",
                         f"{occupancy:.0%}"])
        for factor, occupancy in sorted(factors.items()):
            rows.append([key_bits, f"register x{factor} (branches)",
                         f"{occupancy:.0%}"])
        rows.append([key_bits, "launch latency managed/unmanaged",
                     f"{LAUNCH_LATENCY_MANAGED * 1e6:.0f}us / "
                     f"{LAUNCH_LATENCY_UNMANAGED * 1e6:.0f}us"])
    table = format_table(
        ["Key", "Mechanism", "SM occupancy / value"],
        rows,
        title="Resource-manager design-choice ablation")
    publish("ablation_resource_manager", table)

    for key_bits, chosen, occupancies, factors in results:
        # The chosen block size is (one of) the occupancy maximizers.
        assert occupancies[chosen] == max(occupancies.values()), key_bits
        # Register inflation strictly degrades occupancy.
        assert factors[1] >= factors[2] >= \
            factors[UNMANAGED_BRANCH_REGISTER_FACTOR], key_bits
        assert factors[UNMANAGED_BRANCH_REGISTER_FACTOR] < \
            0.7 * factors[1], key_bits
