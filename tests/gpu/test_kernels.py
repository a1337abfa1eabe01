"""Tests for the batched simulated-GPU kernels."""

import random

import pytest

from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.federation.runtime import cached_keypair
from repro.gpu.device import SimulatedGpu
from repro.gpu.kernels import GpuKernels
from repro.gpu.resource_manager import ResourceManager
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

    def _price(self, *shape):
        self._prices.clear()
        return super()._price(*shape)


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
