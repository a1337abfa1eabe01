"""Batched big-integer GPU kernels (paper Sec. IV-A3).

Each kernel executes the real arithmetic for a whole batch (so results are
bit-exact and downstream training is genuine) and records one simulated
launch: the resource manager resolves the launch geometry, the cost model
prices transfer + parallel compute, and the device adds the price to the
sums the utilization figures read.  A price is a function of the launch's
shape, so each distinct shape is priced once.

Cost accounting is decoupled from the arithmetic through ``work_bits``: the
kernel charges time as if the modulus had ``work_bits`` bits, which lets
benchmarks run the *mathematics* at a reduced key size while charging the
*paper's* key size (see DESIGN.md, timing methodology).  When ``work_bits``
is omitted the actual modulus size is charged.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.counters import LAUNCH_PRICES, WORK
from repro.gpu.cost_model import DEFAULT_PROFILE
from repro.gpu.device import DeviceSpec, SimulatedGpu
from repro.gpu.resource_manager import (
    BASE_REGISTERS_PER_THREAD,
    REGISTERS_PER_LIMB,
    SHAPE_MEMO_SIZE,
    UNMANAGED_BRANCH_REGISTER_FACTOR,
    ResourceManager,
)
from repro.mpint.modexp import modexp_multiplication_count
from repro.mpint.montgomery import cios_work_estimate
from repro.mpint.native import mulmod_batch, powmod

#: CUDA's architectural per-thread register ceiling (compute 7.x+).
MAX_REGISTERS_PER_THREAD = 255

#: CUDA's architectural per-block thread ceiling.
MAX_BLOCK_THREADS = 1024


@dataclass(frozen=True)
class KernelBudget:
    """Declared worst-case resource envelope for one kernel.

    These are *declarations*, not measurements: each kernel states the
    most registers, shared memory, and block width it will ever request,
    and :meth:`GpuKernels.__init__` validates every envelope against its
    device's :class:`DeviceSpec` (:func:`validate_budgets`).  An
    over-budget kernel therefore fails the first time any GPU engine is
    built, before it launches anything.

    Attributes:
        registers_per_thread: Worst-case registers one thread may hold.
        shared_memory_per_block: Worst-case shared-memory bytes per block.
        block_size: Widest block the kernel is ever launched with.
    """

    registers_per_thread: int
    shared_memory_per_block: int
    block_size: int

    def violations(self, spec: DeviceSpec) -> List[str]:
        """Hard-launchability violations of this budget on ``spec``."""
        problems: List[str] = []
        if self.block_size < spec.warp_size or \
                self.block_size % spec.warp_size != 0:
            problems.append(
                f"block_size {self.block_size} is not a positive multiple "
                f"of the warp size {spec.warp_size}")
        if self.block_size > MAX_BLOCK_THREADS:
            problems.append(
                f"block_size {self.block_size} exceeds the CUDA per-block "
                f"ceiling {MAX_BLOCK_THREADS}")
        if self.block_size > spec.max_threads_per_sm:
            problems.append(
                f"block_size {self.block_size} exceeds the device's "
                f"{spec.max_threads_per_sm} threads/SM")
        if self.registers_per_thread > MAX_REGISTERS_PER_THREAD:
            problems.append(
                f"registers_per_thread {self.registers_per_thread} exceeds "
                f"the architectural ceiling {MAX_REGISTERS_PER_THREAD}")
        block_registers = self.registers_per_thread * self.block_size
        if block_registers > spec.registers_per_sm:
            problems.append(
                f"one block needs {block_registers} registers "
                f"({self.registers_per_thread}/thread x {self.block_size}) "
                f"but an SM has {spec.registers_per_sm}")
        if self.shared_memory_per_block > spec.shared_memory_per_sm:
            problems.append(
                f"shared_memory_per_block {self.shared_memory_per_block} "
                f"exceeds the SM's {spec.shared_memory_per_sm} bytes")
        return problems


#: Declared envelopes, one per kernel `_record` name.  The register
#: figure is the unmanaged worst case the resource manager can budget --
#: the branch-handling factor times the base + per-limb cost at the
#: 2-limbs-per-thread split -- so the declaration stays honest even for
#: the HAFLO-style baseline path.
KERNEL_BUDGETS: Dict[str, KernelBudget] = {
    "mod_mul": KernelBudget(
        registers_per_thread=UNMANAGED_BRANCH_REGISTER_FACTOR * (
            BASE_REGISTERS_PER_THREAD + REGISTERS_PER_LIMB * 2),
        shared_memory_per_block=32 * 1024,
        block_size=256,
    ),
    "mod_pow": KernelBudget(
        registers_per_thread=UNMANAGED_BRANCH_REGISTER_FACTOR * (
            BASE_REGISTERS_PER_THREAD + REGISTERS_PER_LIMB * 2),
        shared_memory_per_block=48 * 1024,
        block_size=256,
    ),
}


def validate_budgets(spec: DeviceSpec) -> None:
    """Raise ``ValueError`` if any declared budget cannot launch on ``spec``."""
    problems = [f"{name}: {problem}"
                for name, budget in sorted(KERNEL_BUDGETS.items())
                for problem in budget.violations(spec)]
    if problems:
        raise ValueError(
            "kernel resource budgets exceed device limits:\n  "
            + "\n  ".join(problems))


class GpuKernels:
    """Batched modular-arithmetic kernels on a simulated device.

    Args:
        device: Launch sums; a fresh :class:`SimulatedGpu` when omitted.
        resource_manager: Launch planner; pass one with ``managed=False``
            to model the HAFLO-style baseline.
    """

    def __init__(self, device: Optional[SimulatedGpu] = None,
                 resource_manager: Optional[ResourceManager] = None):
        self.device = device if device is not None else SimulatedGpu()
        self.resource_manager = (resource_manager if resource_manager is not None
                                 else ResourceManager(self.device.spec))
        self.profile = DEFAULT_PROFILE
        validate_budgets(self.device.spec)
        #: (tasks, limbs, words, bytes in, bytes out) -> (seconds, SM
        #: utilization) of a launch of that shape.
        self._prices: Dict[Tuple[int, int, int, int, int],
                           Tuple[float, float]] = {}
        #: Prices of the launches made inside the open :meth:`collect`.
        self._collected: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Public kernels.
    # ------------------------------------------------------------------

    def mod_mul(self, a: Sequence[int], b: Sequence[int], modulus: int,
                work_bits: Optional[int] = None) -> List[int]:
        """Element-wise ``a[i] * b[i] mod modulus`` as one launch."""
        self._check_pair(a, b)
        results = mulmod_batch(a, b, modulus)
        limbs = self._work_limbs(modulus, work_bits)
        words = len(a) * cios_work_estimate(limbs)
        operand_bytes = limbs * (self.profile.word_bits // 8)
        self._record("mod_mul", tasks=len(a), limbs=limbs, words=words,
                     bytes_in=2 * len(a) * operand_bytes,
                     bytes_out=len(a) * operand_bytes)
        return results

    def mod_pow(self, bases: Sequence[int], exponents: Sequence[int],
                modulus: int, work_bits: Optional[int] = None,
                exponent_bits: Optional[int] = None) -> List[int]:
        """Element-wise ``bases[i] ** exponents[i] mod modulus``.

        ``exponent_bits`` overrides the charged exponent length (used when
        the mathematics runs at a reduced key size but costs should follow
        the nominal key's exponent length).
        """
        self._check_pair(bases, exponents)
        results = [powmod(base, exp, modulus)
                   for base, exp in zip(bases, exponents)]
        limbs = self._work_limbs(modulus, work_bits)
        if exponent_bits is not None:
            per_op_modmuls = modexp_multiplication_count(exponent_bits)
        else:
            # Mean schedule length, one count per distinct exponent size.
            sizes = Counter(max(exp.bit_length(), 1) for exp in exponents)
            per_op_modmuls = sum(
                modexp_multiplication_count(bits) * times
                for bits, times in sizes.items()) // len(exponents)
        words = len(bases) * per_op_modmuls * cios_work_estimate(limbs)
        operand_bytes = limbs * (self.profile.word_bits // 8)
        self._record("mod_pow", tasks=len(bases), limbs=limbs, words=words,
                     bytes_in=2 * len(bases) * operand_bytes,
                     bytes_out=len(bases) * operand_bytes)
        return results

    def mod_pow_scalar_exponent(self, bases: Sequence[int], exponent: int,
                                modulus: int,
                                work_bits: Optional[int] = None,
                                exponent_bits: Optional[int] = None) -> List[int]:
        """``bases[i] ** exponent mod modulus`` with one shared exponent."""
        return self.mod_pow(bases, [exponent] * len(bases), modulus,
                            work_bits=work_bits, exponent_bits=exponent_bits)

    def charge_mod_mul(self, tasks: int, modulus_bits: int) -> float:
        """Charge one mod_mul launch without executing it.

        Used when the caller computed the results through an equivalent
        (faster) host-side route, e.g. CRT decryption: the *work charged*
        is the kernel's, the *values* come from the caller.
        """
        limbs = max(1, modulus_bits // self.profile.word_bits)
        words = tasks * cios_work_estimate(limbs)
        operand_bytes = limbs * (self.profile.word_bits // 8)
        return self._record("mod_mul", tasks=tasks, limbs=limbs, words=words,
                            bytes_in=2 * tasks * operand_bytes,
                            bytes_out=tasks * operand_bytes)

    def charge_mod_pow(self, tasks: int, modulus_bits: int,
                       exponent_bits: int) -> float:
        """Charge one mod_pow launch without executing it."""
        limbs = max(1, modulus_bits // self.profile.word_bits)
        modmuls = modexp_multiplication_count(max(exponent_bits, 1))
        words = tasks * modmuls * cios_work_estimate(limbs)
        operand_bytes = limbs * (self.profile.word_bits // 8)
        return self._record("mod_pow", tasks=tasks, limbs=limbs, words=words,
                            bytes_in=2 * tasks * operand_bytes,
                            bytes_out=tasks * operand_bytes)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _work_limbs(self, modulus: int, work_bits: Optional[int]) -> int:
        bits = work_bits if work_bits is not None else modulus.bit_length()
        return max(1, bits // self.profile.word_bits)

    @staticmethod
    def _check_pair(a: Sequence, b: Sequence) -> None:
        if len(a) != len(b):
            raise ValueError(
                f"kernel operand lengths differ: {len(a)} vs {len(b)}")
        if not a:
            raise ValueError("kernel launched with an empty batch")

    @contextmanager
    def collect(self) -> Iterator[List[float]]:
        """Prices of the launches made in the block, in launch order."""
        self._collected = prices = []
        try:
            yield prices
        finally:
            self._collected = None

    def _price(self, tasks: int, limbs: int, words: int, bytes_in: int,
               bytes_out: int) -> Tuple[float, float]:
        """(seconds, SM utilization) of one launch of this shape."""
        WORK[LAUNCH_PRICES] += 1
        spec = self.device.spec
        if bytes_in + bytes_out > spec.global_memory:
            raise MemoryError(
                f"launch needs {bytes_in + bytes_out} bytes of device "
                f"memory, the device has {spec.global_memory}")
        plan = self.resource_manager.plan(tasks, limbs)
        seconds = self.profile.gpu_seconds(
            tasks, words, bytes_in, bytes_out, plan, spec=spec,
            managed=self.resource_manager.managed)
        return seconds, plan.sm_utilization

    def _record(self, name: str, tasks: int, limbs: int, words: int,
                bytes_in: int, bytes_out: int) -> float:
        """Report one ``name`` launch to the device; returns its seconds."""
        key = (tasks, limbs, words, bytes_in, bytes_out)
        price = self._prices.get(key)
        if price is None:
            price = self._price(*key)
            if len(self._prices) >= SHAPE_MEMO_SIZE:
                self._prices.clear()
            self._prices[key] = price
        seconds, sm_utilization = price
        self.device.record_launch(seconds, sm_utilization)
        if self._collected is not None:
            self._collected.append(seconds)
        return seconds
