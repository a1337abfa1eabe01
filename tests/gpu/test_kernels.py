"""Tests for the batched simulated-GPU kernels."""

import dataclasses
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.federation.runtime import cached_keypair
from repro.gpu.device import RTX_3090, SimulatedGpu
from repro.gpu.kernels import (
    KERNEL_BUDGETS,
    GpuKernels,
    KernelBudget,
    validate_budgets,
)
from repro.gpu.resource_manager import SHAPE_MEMO_SIZE, ResourceManager
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom


@pytest.fixture()
def kernels():
    return GpuKernels(device=SimulatedGpu(),
                      resource_manager=ResourceManager(managed=True))


class Launch(NamedTuple):
    name: str
    tasks: int
    words: int
    seconds: float


@pytest.fixture()
def launches(monkeypatch):
    """Every launch reported to a device from here on, in order."""
    seen = []
    record = GpuKernels._record

    def spy(kernels, name, tasks, limbs, words, bytes_in, bytes_out):
        seconds = record(kernels, name, tasks, limbs, words, bytes_in,
                         bytes_out)
        seen.append(Launch(name, tasks, words, seconds))
        return seconds

    monkeypatch.setattr(GpuKernels, "_record", spy)
    return seen


class TestModMul:
    def test_correct_results(self, kernels):
        n = 10007
        a = [1, 2, 3, 9999]
        b = [5, 6, 7, 9999]
        assert kernels.mod_mul(a, b, n) == [(x * y) % n
                                            for x, y in zip(a, b)]

    def test_records_one_launch(self, kernels, launches):
        kernels.mod_mul([1, 2], [3, 4], 101)
        assert kernels.device.launches == 1
        [launch] = launches
        assert launch.name == "mod_mul"
        assert launch.tasks == 2
        assert launch.seconds == kernels.device.total_seconds > 0

    def test_length_mismatch_raises(self, kernels):
        with pytest.raises(ValueError):
            kernels.mod_mul([1], [2, 3], 7)

    def test_empty_batch_raises(self, kernels):
        with pytest.raises(ValueError):
            kernels.mod_mul([], [], 7)


class TestModPow:
    def test_correct_results(self, kernels):
        rng = random.Random(31)
        n = rng.getrandbits(128) | 1
        bases = [rng.randrange(n) for _ in range(10)]
        exps = [rng.getrandbits(40) for _ in range(10)]
        assert kernels.mod_pow(bases, exps, n) == \
            [pow(b, e, n) for b, e in zip(bases, exps)]

    def test_scalar_exponent_helper(self, kernels):
        n = 10007
        bases = [2, 3, 4]
        assert kernels.mod_pow_scalar_exponent(bases, 5, n) == \
            [pow(b, 5, n) for b in bases]

    def test_mixed_exponent_sizes_charge_the_mean_schedule(self, kernels,
                                                           launches):
        from repro.mpint.modexp import modexp_multiplication_count
        from repro.mpint.montgomery import cios_work_estimate

        n = (1 << 127) - 1
        exps = [0, 1, 5, 5, 1 << 40, (1 << 40) + 3, 1 << 90]
        kernels.mod_pow([3] * len(exps), exps, n)
        per_op = sum(modexp_multiplication_count(max(e.bit_length(), 1))
                     for e in exps) // len(exps)
        limbs = kernels._work_limbs(n, None)
        assert launches[-1].words == \
            len(exps) * per_op * cios_work_estimate(limbs)

    def test_pow_costs_more_than_mul(self, kernels, launches):
        # Large batches so compute dominates the fixed launch latency.
        n = (1 << 127) - 1
        batch = 8192
        kernels.mod_mul([3] * batch, [5] * batch, n, work_bits=2048)
        mul_seconds = launches[-1].seconds
        kernels.mod_pow([3] * batch, [7] * batch, n, work_bits=2048,
                        exponent_bits=1024)
        pow_seconds = launches[-1].seconds
        assert pow_seconds > 5 * mul_seconds


class TestWorkBitsOverride:
    def test_nominal_charging_exceeds_physical(self, kernels, launches):
        n = (1 << 255) | 1   # a 256-bit modulus
        batch = 8192         # compute-dominated launches
        kernels.mod_pow([2] * batch, [3] * batch, n, exponent_bits=256)
        physical = launches[-1].seconds
        kernels.mod_pow([2] * batch, [3] * batch, n, work_bits=8192,
                        exponent_bits=4096)
        nominal = launches[-1].seconds
        assert nominal > 10 * physical

    def test_exponent_bits_override(self, kernels, launches):
        n = (1 << 127) - 1
        kernels.mod_pow([2] * 16, [3] * 16, n)          # tiny exponents
        small = launches[-1].seconds
        kernels.mod_pow([2] * 16, [3] * 16, n, exponent_bits=2048)
        large = launches[-1].seconds
        assert large > 10 * small


class TestChargeOnly:
    def test_charge_mod_mul_records_without_computing(self, kernels, launches):
        seconds = kernels.charge_mod_mul(tasks=100, modulus_bits=2048)
        assert seconds > 0
        assert launches[-1].tasks == 100

    def test_charge_mod_pow_matches_real_launch(self, kernels, launches):
        n = (1 << 255) | 5
        kernels.mod_pow_scalar_exponent([3] * 50, 1 << 200, n,
                                        work_bits=256, exponent_bits=201)
        real = launches[-1].seconds
        charged = kernels.charge_mod_pow(tasks=50, modulus_bits=256,
                                         exponent_bits=201)
        assert abs(charged - real) / real < 0.05


class TestManagedVsUnmanaged:
    def test_managed_kernels_faster(self):
        managed = GpuKernels(resource_manager=ResourceManager(managed=True))
        unmanaged = GpuKernels(
            resource_manager=ResourceManager(managed=False))
        n = (1 << 255) | 5
        bases = [3] * 2048
        managed.mod_pow_scalar_exponent(bases, 12345, n, work_bits=2048,
                                        exponent_bits=1024)
        unmanaged.mod_pow_scalar_exponent(bases, 12345, n, work_bits=2048,
                                          exponent_bits=1024)
        assert unmanaged.device.total_seconds > \
            3 * managed.device.total_seconds


class _PricedAfresh(GpuKernels):
    """Prices every launch as if its shape had never been seen."""

    def _record(self, *args, **kwargs):
        self._prices.clear()
        return super()._record(*args, **kwargs)


class TestLaunchPriceTable:
    @pytest.mark.parametrize("managed", [True, False])
    def test_table_pricing_records_what_fresh_pricing_records(self,
                                                              managed):
        """Same launch sequence, priced from the table or afresh: the
        same device sums and ledger."""
        keypair = cached_keypair(256, seed=3)
        runs = []
        for kernels_cls in (GpuKernels, _PricedAfresh):
            kernels = kernels_cls(
                resource_manager=ResourceManager(managed=managed))
            engine = GpuPaillierEngine(keypair, kernels=kernels,
                                       ledger=CostLedger(),
                                       rng=LimbRandom(seed=5),
                                       randomizer_pool_size=4)
            for count in (3, 5, 3, 3, 5):
                words = engine.encrypt_batch(list(range(count)))
                total = engine.sum_ciphertexts(words)
                engine.scalar_mul_batch(words, [2] * count)
                engine.decrypt_batch([total, total])
            device = kernels.device
            runs.append((device.launches, device.total_seconds,
                         device.busy_seconds, engine.ledger))
        table, fresh = runs
        assert table[0] > 40
        assert table == fresh


#: Launch shapes: (name, tasks, limbs, words, bytes in, bytes out).
_SHAPES = st.tuples(st.sampled_from(["mod_mul", "mod_pow"]),
                    st.integers(1, 10 ** 6), st.integers(1, 512),
                    st.integers(0, 10 ** 12), st.integers(0, 2 ** 32),
                    st.integers(0, 2 ** 32))


class TestLaunchPrices:
    @pytest.mark.parametrize("managed", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(_SHAPES, min_size=1, max_size=8))
    def test_every_price_is_positive(self, managed, shapes):
        kernels = GpuKernels(
            resource_manager=ResourceManager(managed=managed))
        for shape in shapes:
            assert kernels._record(*shape) > 0
        assert kernels.device.launches == len(shapes)
        assert 0 < kernels.device.mean_sm_utilization() <= 1

    @pytest.mark.parametrize("managed", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_memoized_prices_match_fresh_pricing(self, managed, data):
        """A few shapes launched over and over: the memo reports each
        launch at the price a fresh pricing gives, and the device sums
        agree exactly."""
        shapes = data.draw(st.lists(_SHAPES, min_size=1, max_size=4))
        sequence = data.draw(st.lists(st.sampled_from(shapes), min_size=1,
                                      max_size=30))
        runs = []
        for kernels_cls in (GpuKernels, _PricedAfresh):
            kernels = kernels_cls(
                resource_manager=ResourceManager(managed=managed))
            with kernels.collect() as prices:
                for shape in sequence:
                    kernels._record(*shape)
            device = kernels.device
            runs.append((prices, device.launches, device.total_seconds,
                         device.busy_seconds))
        memoized, fresh = runs
        assert memoized == fresh

    def test_a_launch_that_fills_memory_exactly_is_priced(self):
        spec = dataclasses.replace(RTX_3090, global_memory=96)
        kernels = GpuKernels(device=SimulatedGpu(spec=spec))
        assert kernels.charge_mod_mul(tasks=1, modulus_bits=256) > 0
        assert kernels.device.launches == 1

    def test_exhaustion_raises(self):
        """A launch whose buffers outgrow the device's memory fails."""
        spec = dataclasses.replace(RTX_3090, global_memory=1000)
        kernels = GpuKernels(device=SimulatedGpu(spec=spec))
        kernels.charge_mod_mul(tasks=1, modulus_bits=256)   # 96 bytes
        with pytest.raises(MemoryError):
            kernels.charge_mod_mul(tasks=2, modulus_bits=2048)
        assert kernels.device.launches == 1

    def test_launch_memos_stay_bounded(self, launches):
        """More shapes than a memo holds: the launch prices and plans
        never outgrow the cap, and every launch is still reported with
        its own shape."""
        kernels = GpuKernels(resource_manager=ResourceManager(managed=True))
        manager = kernels.resource_manager
        shapes = range(SHAPE_MEMO_SIZE + 44, 0, -1)
        for tasks in shapes:
            kernels.charge_mod_mul(tasks=tasks, modulus_bits=2048)
            assert len(kernels._prices) <= SHAPE_MEMO_SIZE
            assert len(manager._plan_cache) <= SHAPE_MEMO_SIZE
        assert [launch.tasks for launch in launches] == list(shapes)


class TestCollect:
    def test_collects_the_block_prices_in_launch_order(self, kernels,
                                                       launches):
        kernels.charge_mod_mul(tasks=1, modulus_bits=256)
        with kernels.collect() as prices:
            kernels.charge_mod_pow(tasks=4, modulus_bits=512,
                                   exponent_bits=64)
            kernels.charge_mod_mul(tasks=4, modulus_bits=512)
        kernels.charge_mod_mul(tasks=2, modulus_bits=256)
        assert prices == [launch.seconds for launch in launches[1:3]]
        assert kernels.device.launches == 4

    def test_collect_closes_when_the_block_raises(self, kernels):
        with pytest.raises(RuntimeError):
            with kernels.collect() as prices:
                kernels.charge_mod_mul(tasks=1, modulus_bits=256)
                raise RuntimeError("launch failed")
        kernels.charge_mod_mul(tasks=2, modulus_bits=256)
        assert len(prices) == 1
        assert kernels._collected is None


#: One budget per violation kind:
#: (registers_per_thread, shared_memory_per_block, block_size) -> message.
VIOLATIONS = pytest.mark.parametrize("fields, expected", [
    ((300, 16 * 1024, 128), "architectural ceiling 255"),
    ((32, 16 * 1024, 100), "not a positive multiple of the warp size"),
    ((32, 16 * 1024, 2048), "CUDA per-block ceiling 1024"),
    ((128, 16 * 1024, 1024), "but an SM has 65536"),
    ((32, 128 * 1024, 128), "shared_memory_per_block 131072 exceeds"),
], ids=["register-ceiling", "warp-multiple", "block-width",
        "register-file", "shared-memory"])


def _budget(fields):
    registers, shared, block = fields
    return KernelBudget(registers_per_thread=registers,
                        shared_memory_per_block=shared,
                        block_size=block)


class TestKernelBudgets:
    """Declared envelopes are checked where kernels are built."""

    @VIOLATIONS
    def test_each_violation_is_named(self, fields, expected):
        problems = _budget(fields).violations(RTX_3090)
        assert any(expected in problem for problem in problems), problems

    @VIOLATIONS
    def test_kernels_refuse_each_violation(self, fields, expected,
                                           monkeypatch):
        # The construction gate fires on each kind on its own, not only on
        # a budget that breaks several limits at once.
        monkeypatch.setitem(KERNEL_BUDGETS, "bogus", _budget(fields))
        with pytest.raises(ValueError, match="bogus: ") as raised:
            GpuKernels()
        assert expected in str(raised.value)

    def test_shipped_budgets_fit_the_device(self):
        validate_budgets(RTX_3090)
        GpuKernels()

    def test_runtime_validation_rejects_over_budget(self, monkeypatch):
        bad = KernelBudget(registers_per_thread=300,
                           shared_memory_per_block=1 << 20,
                           block_size=100)
        assert len(bad.violations(RTX_3090)) == 3
        monkeypatch.setitem(KERNEL_BUDGETS, "bogus", bad)
        with pytest.raises(ValueError, match="exceed device limits"):
            validate_budgets(RTX_3090)
        with pytest.raises(ValueError, match="bogus: "):
            GpuKernels()

    def test_declared_budgets_match_resource_model(self):
        # The declared register envelope covers the unmanaged worst case
        # the resource manager can produce for the 2-limbs-per-thread
        # split.
        from repro.gpu.resource_manager import (
            BASE_REGISTERS_PER_THREAD,
            REGISTERS_PER_LIMB,
            UNMANAGED_BRANCH_REGISTER_FACTOR,
        )
        worst = UNMANAGED_BRANCH_REGISTER_FACTOR * (
            BASE_REGISTERS_PER_THREAD + REGISTERS_PER_LIMB * 2)
        for budget in KERNEL_BUDGETS.values():
            assert budget.registers_per_thread >= worst
