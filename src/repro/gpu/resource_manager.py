"""GPU resource manager (paper Sec. IV-A2).

The resource manager is the piece of FLBooster that "fully release[s] the
computation power of GPUs": it stores common block sizes and picks one per
task count, keeps a memory table of marked addresses so repeated launches
skip allocation, budgets registers per thread, and combines divergent
branches so a warp is not split.  Disabling it (the HAFLO configuration)
reproduces the lower SM utilization of Fig. 6:

- without block-size tuning, a fixed oversized block is launched;
- without branch combining, divergence doubles register demand and halves
  warp issue efficiency;
- without the memory table, every launch pays a device-allocation latency.

:meth:`ResourceManager.plan` turns (tasks, limb count) into a
:class:`BlockPlan` whose occupancy arithmetic follows the standard CUDA
occupancy calculation against the :class:`~repro.gpu.device.DeviceSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.gpu.device import DeviceSpec, RTX_3090

#: Block sizes the manager keeps precomputed ("stores the common block
#: sizes", Sec. IV-A2).
COMMON_BLOCK_SIZES = (64, 128, 256, 512, 1024)

#: Register model: a thread needs a fixed working set plus storage for the
#: limbs it owns (operand, modulus and accumulator words).
BASE_REGISTERS_PER_THREAD = 16
REGISTERS_PER_LIMB = 10

#: Launch latencies (seconds).  The memory table replaces a device
#: allocation (~cudaMalloc, tens of microseconds) with a table lookup.
LAUNCH_LATENCY_MANAGED = 5e-6
LAUNCH_LATENCY_UNMANAGED = 30e-6

#: Warp issue efficiency.  Managed launches lose a little to inter-thread
#: carry propagation; unmanaged launches serialize both sides of divergent
#: branches ("the threads in a warp will be split into several parts").
ISSUE_EFFICIENCY_MANAGED = 0.95
ISSUE_EFFICIENCY_UNMANAGED = 0.50

#: Register inflation when branches are not combined: nested divergent
#: paths each keep live state, costing "double or even several times the
#: number of registers" (Sec. IV-A2).
UNMANAGED_BRANCH_REGISTER_FACTOR = 4

#: Thread mapping: the managed path assigns up to this many threads to one
#: big-integer task (approaching 1 limb per thread); the unmanaged baseline
#: statically halves limbs onto threads with a one-warp floor.
MANAGED_MAX_THREADS_PER_TASK = 128
UNMANAGED_MIN_THREADS_PER_TASK = 32


@dataclass(frozen=True)
class BlockPlan:
    """Resolved launch geometry and its occupancy consequences.

    Attributes:
        block_size: Threads per block.
        threads_per_task: Threads cooperating on one big integer.
        limbs_per_thread: ``x = s / T`` of Algorithm 2.
        registers_per_thread: Budgeted registers (after branch handling).
        resident_threads_per_sm: Threads that actually fit on one SM.
        occupancy: ``resident / max`` thread occupancy.
        issue_efficiency: Warp issue efficiency (branch handling).
        launch_latency: Fixed per-launch cost (memory table vs allocation).
    """

    block_size: int
    threads_per_task: int
    limbs_per_thread: int
    registers_per_thread: int
    resident_threads_per_sm: int
    occupancy: float
    issue_efficiency: float
    launch_latency: float

    @property
    def sm_utilization(self) -> float:
        """The Fig. 6 metric: occupancy discounted by issue efficiency."""
        return self.occupancy * self.issue_efficiency


@dataclass
class MemoryTable:
    """The marked-address table of Sec. IV-A2.

    ``allocate`` looks for a free slot of sufficient size before reserving
    new device memory; ``free`` marks the slot reusable.  ``hits`` counts
    allocations served from the table (no device allocation latency).
    """

    capacity: int
    _slots: List[Tuple[int, int, bool]] = field(default_factory=list)
    _next_address: int = 0
    hits: int = 0
    misses: int = 0

    def allocate(self, size: int) -> int:
        """Reserve ``size`` bytes; returns the device address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        for index, (address, slot_size, occupied) in enumerate(self._slots):
            if not occupied and slot_size >= size:
                self._slots[index] = (address, slot_size, True)
                self.hits += 1
                return address
        if self._next_address + size > self.capacity:
            raise MemoryError(
                f"device memory exhausted: need {size} bytes, "
                f"{self.capacity - self._next_address} free")
        address = self._next_address
        self._next_address += size
        self._slots.append((address, size, True))
        self.misses += 1
        return address

    def free(self, address: int) -> None:
        """Mark the slot at ``address`` free for reuse."""
        for index, (slot_address, slot_size, occupied) in enumerate(self._slots):
            if slot_address == address:
                if not occupied:
                    raise ValueError(f"double free of device address {address}")
                self._slots[index] = (slot_address, slot_size, False)
                return
        raise ValueError(f"unknown device address {address}")


class ResourceManager:
    """Block-size, register, memory and branch management (Sec. IV-A2).

    Args:
        spec: Device the manager allocates on.
        managed: When False the manager degrades into the naive baseline
            used by HAFLO-style systems: fixed block size, no branch
            combining (register doubling + divergence), no memory table.
    """

    def __init__(self, spec: DeviceSpec = RTX_3090, managed: bool = True):
        self.spec = spec
        self.managed = managed
        self.memory = MemoryTable(capacity=spec.global_memory)
        self._plan_cache: Dict[Tuple[int, int], BlockPlan] = {}

    def plan(self, tasks: int, limbs: int) -> BlockPlan:
        """Resolve launch geometry for ``tasks`` integers of ``limbs`` words.

        The managed path picks the block size from
        :data:`COMMON_BLOCK_SIZES` that maximizes occupancy for the register
        budget; the unmanaged path always launches the largest common block.
        """
        if tasks <= 0 or limbs <= 0:
            raise ValueError("tasks and limbs must be positive")
        key = (min(tasks, self.spec.max_concurrent_threads), limbs)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached

        if self.managed:
            threads_per_task = min(limbs, MANAGED_MAX_THREADS_PER_TASK)
            limbs_per_thread = max(1, math.ceil(limbs / threads_per_task))
            registers = (BASE_REGISTERS_PER_THREAD
                         + REGISTERS_PER_LIMB * limbs_per_thread)
            block_size = self._best_block_size(registers, threads_per_task)
            issue = self._issue_efficiency(
                ISSUE_EFFICIENCY_MANAGED, threads_per_task, limbs_per_thread)
            latency = LAUNCH_LATENCY_MANAGED
        else:
            threads_per_task = max(UNMANAGED_MIN_THREADS_PER_TASK, limbs // 2)
            limbs_per_thread = max(1, math.ceil(limbs / threads_per_task))
            # Unhandled branch divergence keeps every path's state live
            # ("double or even several times the number of registers").
            registers = UNMANAGED_BRANCH_REGISTER_FACTOR * (
                BASE_REGISTERS_PER_THREAD
                + REGISTERS_PER_LIMB * limbs_per_thread)
            block_size = COMMON_BLOCK_SIZES[-1]
            issue = self._issue_efficiency(
                ISSUE_EFFICIENCY_UNMANAGED, threads_per_task, limbs_per_thread)
            latency = LAUNCH_LATENCY_UNMANAGED

        resident = self._resident_threads(block_size, registers)
        occupancy = resident / self.spec.max_threads_per_sm
        plan = BlockPlan(
            block_size=block_size,
            threads_per_task=threads_per_task,
            limbs_per_thread=limbs_per_thread,
            registers_per_thread=registers,
            resident_threads_per_sm=resident,
            occupancy=occupancy,
            issue_efficiency=issue,
            launch_latency=latency,
        )
        self._plan_cache[key] = plan
        return plan

    def _best_block_size(self, registers_per_thread: int,
                         threads_per_task: int) -> int:
        """Pick the common block size with the highest occupancy.

        Ties go to the smaller block (finer-grained scheduling), and blocks
        smaller than one task's thread group are skipped.
        """
        best_size = COMMON_BLOCK_SIZES[0]
        best_resident = -1
        for size in COMMON_BLOCK_SIZES:
            if size < threads_per_task:
                continue
            resident = self._resident_threads(size, registers_per_thread)
            if resident > best_resident:
                best_resident = resident
                best_size = size
        return best_size

    def _resident_threads(self, block_size: int,
                          registers_per_thread: int) -> int:
        """CUDA-style occupancy: threads resident on one SM.

        Whole blocks are scheduled while both the thread and the register
        budgets hold; when even one block exceeds the register file the
        hardware caps resident warps to what the registers allow.
        """
        spec = self.spec
        registers_per_block = registers_per_thread * block_size
        if registers_per_block > spec.registers_per_sm:
            warps = spec.registers_per_sm // (registers_per_thread * spec.warp_size)
            return max(warps, 1) * spec.warp_size
        blocks_by_threads = spec.max_threads_per_sm // block_size
        blocks_by_registers = spec.registers_per_sm // registers_per_block
        blocks = min(blocks_by_threads, blocks_by_registers)
        return max(blocks, 1) * block_size

    @staticmethod
    def _issue_efficiency(base: float, threads_per_task: int,
                          limbs_per_thread: int) -> float:
        """Issue efficiency eroded by carry chains and wide thread groups.

        Carries propagate across the whole thread group (Sec. IV-A1), so
        both a wider group and a fatter per-thread slice serialize a
        fraction of issue slots; the erosion grows logarithmically, which is
        the "SM performance degrades" trend of Fig. 6.
        """
        penalty = (0.01 * math.log2(max(threads_per_task, 1))
                   + 0.02 * math.log2(limbs_per_thread + 1))
        return max(base - penalty, 0.05)

    def utilization_for_key_size(self, key_bits: int,
                                 word_bits: int = 32) -> float:
        """Convenience: SM utilization for ciphertext-sized operands.

        Paillier ciphertexts live modulo ``n^2`` so carry ``2 * key_bits``
        bits; this is the quantity Fig. 6 sweeps.
        """
        limbs = max(1, (2 * key_bits) // word_bits)
        return self.plan(tasks=4096, limbs=limbs).sm_utilization
