"""Tests for the batched simulated-GPU kernels."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.federation.runtime import cached_keypair
from repro.gpu.device import RTX_3090, KernelLaunch, SimulatedGpu
from repro.gpu.kernels import (
    KERNEL_BUDGETS,
    GpuKernels,
    KernelBudget,
    validate_budgets,
)
from repro.gpu.resource_manager import (
    SHAPE_MEMO_SIZE,
    MemoryTable,
    ResourceManager,
)
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom


@pytest.fixture()
def kernels():
    return GpuKernels(device=SimulatedGpu(),
                      resource_manager=ResourceManager(managed=True))


class TestModMul:
    def test_correct_results(self, kernels):
        n = 10007
        a = [1, 2, 3, 9999]
        b = [5, 6, 7, 9999]
        assert kernels.mod_mul(a, b, n) == [(x * y) % n
                                            for x, y in zip(a, b)]

    def test_records_one_launch(self, kernels):
        kernels.mod_mul([1, 2], [3, 4], 101)
        assert len(kernels.device.launches) == 1
        launch = kernels.device.launches[0]
        assert launch.name == "mod_mul"
        assert launch.tasks == 2
        assert launch.seconds > 0

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

    def test_mixed_exponent_sizes_charge_the_mean_schedule(self, kernels):
        from repro.mpint.modexp import modexp_multiplication_count
        from repro.mpint.montgomery import cios_work_estimate

        n = (1 << 127) - 1
        exps = [0, 1, 5, 5, 1 << 40, (1 << 40) + 3, 1 << 90]
        kernels.mod_pow([3] * len(exps), exps, n)
        per_op = sum(modexp_multiplication_count(max(e.bit_length(), 1))
                     for e in exps) // len(exps)
        limbs = kernels._work_limbs(n, None)
        assert kernels.device.launches[-1].word_multiplications == \
            len(exps) * per_op * cios_work_estimate(limbs)

    def test_pow_costs_more_than_mul(self, kernels):
        # Large batches so compute dominates the fixed launch latency.
        n = (1 << 127) - 1
        batch = 8192
        kernels.mod_mul([3] * batch, [5] * batch, n, work_bits=2048)
        mul_seconds = kernels.device.launches[-1].seconds
        kernels.mod_pow([3] * batch, [7] * batch, n, work_bits=2048,
                        exponent_bits=1024)
        pow_seconds = kernels.device.launches[-1].seconds
        assert pow_seconds > 5 * mul_seconds


class TestWorkBitsOverride:
    def test_nominal_charging_exceeds_physical(self, kernels):
        n = (1 << 255) | 1   # a 256-bit modulus
        batch = 8192         # compute-dominated launches
        kernels.mod_pow([2] * batch, [3] * batch, n, exponent_bits=256)
        physical = kernels.device.launches[-1].seconds
        kernels.mod_pow([2] * batch, [3] * batch, n, work_bits=8192,
                        exponent_bits=4096)
        nominal = kernels.device.launches[-1].seconds
        assert nominal > 10 * physical

    def test_exponent_bits_override(self, kernels):
        n = (1 << 127) - 1
        kernels.mod_pow([2] * 16, [3] * 16, n)          # tiny exponents
        small = kernels.device.launches[-1].seconds
        kernels.mod_pow([2] * 16, [3] * 16, n, exponent_bits=2048)
        large = kernels.device.launches[-1].seconds
        assert large > 10 * small


class TestChargeOnly:
    def test_charge_mod_mul_records_without_computing(self, kernels):
        seconds = kernels.charge_mod_mul(tasks=100, modulus_bits=2048)
        assert seconds > 0
        assert kernels.device.launches[-1].tasks == 100

    def test_charge_mod_pow_matches_real_launch(self, kernels):
        n = (1 << 255) | 5
        kernels.mod_pow_scalar_exponent([3] * 50, 1 << 200, n,
                                        work_bits=256, exponent_bits=201)
        real = kernels.device.launches[-1].seconds
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


class TestMemoryTableIntegration:
    def test_repeated_launches_reuse_slots(self):
        kernels = GpuKernels(resource_manager=ResourceManager(managed=True))
        n = (1 << 255) | 5
        for _ in range(5):
            kernels.mod_mul([1] * 16, [2] * 16, n)
        table = kernels.resource_manager.memory
        # First launch misses twice (in + out buffers); the rest hit.
        assert table.misses == 2
        assert table.hits == 8

    def test_unmanaged_path_skips_table(self):
        kernels = GpuKernels(resource_manager=ResourceManager(managed=False))
        n = (1 << 255) | 5
        kernels.mod_mul([1] * 16, [2] * 16, n)
        table = kernels.resource_manager.memory
        assert table.hits == 0 and table.misses == 0


class _PricedAfresh(GpuKernels):
    """Prices every launch as if its shape had never been seen."""

    def _launch(self, *shape):
        self._launches.clear()
        return super()._launch(*shape)


class TestLaunchPriceTable:
    @pytest.mark.parametrize("managed", [True, False])
    def test_table_pricing_records_what_fresh_pricing_records(self,
                                                              managed):
        """Same launch sequence, priced from the table or afresh: the
        same launch log, ledger and memory-table hits and misses."""
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
            memory = kernels.resource_manager.memory
            runs.append((kernels.device.launches, engine.ledger,
                         memory.hits, memory.misses))
        table, fresh = runs
        assert len(table[0]) > 40
        assert table == fresh


def _reference_launch(kernels, table, device, shape):
    """What a launch did before launches and memory-table outcomes were
    memoized: price it afresh, claim both buffers by first-fit scan,
    free them and log a new record."""
    name, tasks, limbs, words, bytes_in, bytes_out = shape
    plan = kernels.resource_manager.plan(tasks, limbs)
    seconds = kernels.profile.gpu_seconds(
        tasks, words, bytes_in, bytes_out, plan, spec=device.spec,
        managed=True)
    addresses = [table.allocate(max(bytes_in, 1)),
                 table.allocate(max(bytes_out, 1))]
    for address in addresses:
        table.free(address)
    device.record_launch(KernelLaunch(
        name=name, tasks=tasks, threads_per_task=plan.threads_per_task,
        word_multiplications=words, bytes_in=bytes_in,
        bytes_out=bytes_out, sm_utilization=plan.sm_utilization,
        seconds=seconds))


#: Few distinct sizes, so a size pair repeats (memo hits) while a larger
#: size than any slot so far forces a miss and a new slot.
_BYTES = st.sampled_from([0, 96, 512, 4096, 65536])
_SHAPES = st.tuples(st.sampled_from(["mod_mul", "mod_pow"]),
                    st.sampled_from([1, 64]), st.sampled_from([1, 32]),
                    st.integers(1, 2), _BYTES, _BYTES)


@st.composite
def _steps(draw):
    """Launches drawn from a few shapes, interleaved with buffers held
    outside any launch (claimed, later released), which the memoized
    path must notice."""
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=4))
    return draw(st.lists(st.one_of(
        st.tuples(st.just("launch"), st.sampled_from(shapes)),
        st.tuples(st.just("hold"), _BYTES),
        st.tuples(st.just("release"), st.none())), max_size=60))


#: A shape whose size pair gets memoized, for the explicit example.
_PAIR = ("mod_mul", 1, 1, 1, 512, 96)


class TestMemoryTableOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps=_steps())
    # A memoized pair, then a buffer held over it, then released.
    @example(steps=[("launch", _PAIR)] * 2 + [("hold", 96)]
             + [("launch", _PAIR), ("release", None), ("launch", _PAIR)])
    def test_memoized_launches_match_the_allocate_free_loop(self, steps):
        kernels = GpuKernels(resource_manager=ResourceManager(managed=True))
        table = kernels.resource_manager.memory
        reference = MemoryTable(capacity=table.capacity)
        device = SimulatedGpu()
        held = []
        for kind, arg in steps:
            if kind == "launch":
                kernels._record(*arg)
                _reference_launch(kernels, reference, device, arg)
            elif kind == "hold":
                held.append((table.allocate(max(arg, 1)),
                             reference.allocate(max(arg, 1))))
            elif held:
                address, reference_address = held.pop(0)
                table.free(address)
                reference.free(reference_address)
            assert (table.hits, table.misses, table._slots) == \
                (reference.hits, reference.misses, reference._slots)
            log, expected = kernels.device, device
            assert len(log.launches) == len(expected.launches)
            assert [launch.name for launch in log.launches] == \
                [launch.name for launch in expected.launches]
            assert log.total_seconds == expected.total_seconds
            assert log.mean_sm_utilization() == \
                expected.mean_sm_utilization()

    def test_launch_memos_stay_bounded(self):
        """More shapes than a memo holds: the launch records, plans and
        memory-table pairs never outgrow the cap, and every launch is
        still logged with its own shape."""
        kernels = GpuKernels(resource_manager=ResourceManager(managed=True))
        manager = kernels.resource_manager
        # Largest first: every later pair of buffer sizes hits.
        shapes = range(SHAPE_MEMO_SIZE + 44, 0, -1)
        for tasks in shapes:
            kernels.charge_mod_mul(tasks=tasks, modulus_bits=2048)
            assert len(kernels._launches) <= SHAPE_MEMO_SIZE
            assert len(manager._plan_cache) <= SHAPE_MEMO_SIZE
            assert len(manager.memory._both_hit) <= SHAPE_MEMO_SIZE
        assert manager.memory.misses == 2
        assert [launch.tasks for launch in kernels.device.launches] == \
            list(shapes)


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
