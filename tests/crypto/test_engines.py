"""Tests for the CPU and GPU Paillier engines."""

import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.gpu.kernels import GpuKernels
from repro.gpu.resource_manager import ResourceManager
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom


def make_engines(keypair, nominal_bits=1024):
    ledger_cpu, ledger_gpu = CostLedger(), CostLedger()
    cpu = CpuPaillierEngine(keypair, nominal_bits=nominal_bits,
                            ledger=ledger_cpu, rng=LimbRandom(seed=5))
    gpu = GpuPaillierEngine(
        keypair, kernels=GpuKernels(
            resource_manager=ResourceManager(managed=True)),
        nominal_bits=nominal_bits, ledger=ledger_gpu,
        rng=LimbRandom(seed=5))
    return cpu, gpu


class TestCorrectness:
    @pytest.mark.parametrize("engine_index", [0, 1],
                             ids=["cpu", "gpu"])
    def test_roundtrip(self, paillier_128, engine_index):
        engine = make_engines(paillier_128)[engine_index]
        values = [0, 1, 1000, paillier_128.public_key.n - 1]
        assert engine.decrypt_batch(engine.encrypt_batch(values)) == values

    @pytest.mark.parametrize("engine_index", [0, 1],
                             ids=["cpu", "gpu"])
    def test_homomorphic_add(self, paillier_128, engine_index):
        engine = make_engines(paillier_128)[engine_index]
        c1 = engine.encrypt_batch([1, 2, 3])
        c2 = engine.encrypt_batch([10, 20, 30])
        assert engine.decrypt_batch(engine.add_batch(c1, c2)) == [11, 22, 33]

    @pytest.mark.parametrize("engine_index", [0, 1],
                             ids=["cpu", "gpu"])
    def test_scalar_mul(self, paillier_128, engine_index):
        engine = make_engines(paillier_128)[engine_index]
        cs = engine.encrypt_batch([1, 2, 3])
        assert engine.decrypt_batch(
            engine.scalar_mul_batch(cs, [2, 3, 4])) == [2, 6, 12]

    @pytest.mark.parametrize("engine_index", [0, 1],
                             ids=["cpu", "gpu"])
    def test_sum_ciphertexts(self, paillier_128, engine_index):
        engine = make_engines(paillier_128)[engine_index]
        cs = engine.encrypt_batch(list(range(10)))
        assert engine.decrypt_batch([engine.sum_ciphertexts(cs)]) == [45]

    @pytest.mark.parametrize("engine_index", [0, 1],
                             ids=["cpu", "gpu"])
    def test_sum_odd_length(self, paillier_128, engine_index):
        # Odd batches exercise the leftover-passthrough of the pairwise
        # halving reduction.
        engine = make_engines(paillier_128)[engine_index]
        cs = engine.encrypt_batch(list(range(7)))
        assert engine.decrypt_batch([engine.sum_ciphertexts(cs)]) == [21]

    @pytest.mark.parametrize("engine_index", [0, 1],
                             ids=["cpu", "gpu"])
    def test_sum_single_element(self, paillier_128, engine_index):
        engine = make_engines(paillier_128)[engine_index]
        cs = engine.encrypt_batch([42])
        assert engine.decrypt_batch([engine.sum_ciphertexts(cs)]) == [42]

    def test_sum_single_element_is_free(self, paillier_128):
        _, gpu = make_engines(paillier_128)
        cs = gpu.encrypt_batch([42])
        before = gpu.kernels.device.launches
        gpu.sum_ciphertexts(cs)
        # A one-element sum needs no additions, so no kernel launches.
        assert gpu.kernels.device.launches == before

    def test_sum_empty_raises(self, paillier_128):
        cpu, _ = make_engines(paillier_128)
        with pytest.raises(ValueError):
            cpu.sum_ciphertexts([])

    def test_out_of_range_plaintext_raises(self, paillier_128):
        cpu, gpu = make_engines(paillier_128)
        with pytest.raises(ValueError):
            cpu.encrypt_batch([paillier_128.public_key.n])
        with pytest.raises(ValueError):
            gpu.encrypt_batch([-1])

    @pytest.mark.parametrize("pool_size", [0, 3])
    @pytest.mark.parametrize("engine_cls", [CpuPaillierEngine,
                                            GpuPaillierEngine,
                                            VectorPaillierEngine])
    def test_a_rejected_plaintext_draws_no_randomizer(
            self, paillier_128, engine_cls, pool_size):
        """The range check runs before any draw: the engine's rng stream
        and pool are where an engine that never saw the batch has them."""
        def engine():
            return engine_cls(paillier_128, rng=LimbRandom(seed=8),
                              randomizer_pool_size=pool_size)

        rejecting, untouched = engine(), engine()
        with pytest.raises(ValueError, match="outside"):
            rejecting.encrypt_batch([1, paillier_128.public_key.n])
        assert rejecting.encrypt_batch([5, 6]) == \
            untouched.encrypt_batch([5, 6])

    def test_mismatched_batches_raise(self, paillier_128):
        cpu, gpu = make_engines(paillier_128)
        with pytest.raises(ValueError):
            cpu.add_batch([1], [1, 2])
        with pytest.raises(ValueError):
            gpu.scalar_mul_batch([1, 2], [1])

    def test_negative_scalar_raises(self, paillier_128):
        for engine in make_engines(paillier_128):
            cs = engine.encrypt_batch([1, 2])
            with pytest.raises(ValueError, match="negative"):
                engine.scalar_mul_batch(cs, [2, -1])

    def test_empty_gpu_batches_are_noops(self, paillier_128):
        _, gpu = make_engines(paillier_128)
        assert gpu.encrypt_batch([]) == []
        assert gpu.decrypt_batch([]) == []
        assert gpu.add_batch([], []) == []
        assert gpu.scalar_mul_batch([], []) == []


class TestCharging:
    def test_cpu_charges_per_op(self, paillier_128):
        cpu, _ = make_engines(paillier_128)
        cpu.encrypt_batch([1, 2, 3, 4])
        assert cpu.ledger.count("he.encrypt") == 4
        assert cpu.ledger.seconds("he.encrypt") > 0

    def test_gpu_charges_launches(self, paillier_128):
        _, gpu = make_engines(paillier_128)
        gpu.encrypt_batch([1, 2, 3, 4])
        assert gpu.ledger.count("he.encrypt") == 4
        assert gpu.ledger.seconds("he.encrypt") > 0
        assert gpu.kernels.device.launches >= 2

    def test_gpu_charge_is_the_sum_of_its_launch_prices(self, paillier_128,
                                                        monkeypatch):
        _, gpu = make_engines(paillier_128)
        prices = []
        record = GpuKernels._record

        def spy(kernels, *args, **kwargs):
            prices.append(record(kernels, *args, **kwargs))
            return prices[-1]

        monkeypatch.setattr(GpuKernels, "_record", spy)
        gpu.encrypt_batch([1, 2, 3, 4])
        assert len(prices) == 3
        assert gpu.ledger.seconds("he.encrypt") == sum(prices)
        assert gpu.ledger.count("gpu.launch") == 3

    def test_a_raising_block_charges_nothing(self, paillier_128):
        _, gpu = make_engines(paillier_128)
        with pytest.raises(RuntimeError):
            with gpu._charging("he.add", 1):
                gpu.kernels.charge_mod_mul(1, 256)
                raise RuntimeError("launch failed")
        assert gpu.kernels.device.launches == 1
        assert gpu.ledger.count("he.add") == 0
        assert gpu.ledger.seconds("he") == 0.0

    def test_gpu_batch_faster_than_cpu(self, paillier_128):
        cpu, gpu = make_engines(paillier_128)
        values = list(range(512))
        cpu.encrypt_batch(values)
        gpu.encrypt_batch(values)
        assert cpu.ledger.seconds("he.encrypt") > \
            20 * gpu.ledger.seconds("he.encrypt")

    def test_nominal_bits_scale_charges(self, paillier_128):
        cpu_small, _ = make_engines(paillier_128, nominal_bits=1024)
        cpu_large, _ = make_engines(paillier_128, nominal_bits=4096)
        cpu_small.encrypt_batch([1] * 16)
        cpu_large.encrypt_batch([1] * 16)
        assert cpu_large.ledger.seconds("he") > \
            10 * cpu_small.ledger.seconds("he")

    def test_report_counts(self, paillier_128):
        cpu, _ = make_engines(paillier_128)
        cs = cpu.encrypt_batch([1, 2])
        cpu.decrypt_batch(cs)
        cpu.add_batch(cs, cs)
        assert cpu.ledger.count("he.encrypt") == 2
        assert cpu.ledger.count("he.decrypt") == 2
        assert cpu.ledger.count("he.add") == 2
        assert cpu.ledger.count("he") == 6
        assert cpu.ledger.seconds("he") > 0


class TestRandomizerPool:
    def test_pool_still_decrypts_correctly(self, paillier_128):
        engine = CpuPaillierEngine(paillier_128, nominal_bits=256,
                                   rng=LimbRandom(seed=6),
                                   randomizer_pool_size=4)
        values = list(range(20))
        assert engine.decrypt_batch(engine.encrypt_batch(values)) == values

    @pytest.mark.parametrize("engine_cls", [CpuPaillierEngine,
                                            GpuPaillierEngine])
    def test_pooled_encryption_is_the_textbook_product(self, paillier_128,
                                                       engine_cls):
        """r^n mod n beside each pooled r^n, one product modulo n and a
        conditional subtraction: still g^m r^n mod n^2, lap after lap."""
        engine = engine_cls(paillier_128, rng=LimbRandom(seed=6),
                            randomizer_pool_size=3)
        public = paillier_128.public_key
        n, n_squared = public.n, public.n_squared
        values = [0, 1, n - 1, 12345, n // 2, 7, n - 2]
        powers = engine.randomizer_pool_snapshot()
        assert engine.encrypt_batch(values) == [
            pow(public.g, m, n_squared) * powers[i % 3] % n_squared
            for i, m in enumerate(values)]

    def test_pool_cycles(self, paillier_128):
        engine = CpuPaillierEngine(paillier_128, nominal_bits=256,
                                   rng=LimbRandom(seed=6),
                                   randomizer_pool_size=3)
        engine.encrypt_batch([0] * 7)
        assert len(engine._randomizer_pool) == 3

    def test_no_pool_is_fresh_each_time(self, paillier_128):
        engine = CpuPaillierEngine(paillier_128, nominal_bits=256,
                                   rng=LimbRandom(seed=6),
                                   randomizer_pool_size=0)
        c1 = engine.encrypt_batch([5])[0]
        c2 = engine.encrypt_batch([5])[0]
        assert c1 != c2

    def test_nominal_geometry_helpers(self, paillier_128):
        engine = CpuPaillierEngine(paillier_128, nominal_bits=2048)
        assert engine.physical_bits == 128
        assert engine.nominal_ciphertext_bytes() == 512
        assert engine.physical_plaintext_bits == 127
