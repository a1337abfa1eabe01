"""Tests for the calibrated hardware cost model (paper Eq. 10)."""

import pytest

from repro.gpu.cost_model import DEFAULT_PROFILE, HardwareProfile
from repro.gpu.resource_manager import ResourceManager


class TestWorkAccounting:
    def test_ciphertext_limbs(self):
        assert DEFAULT_PROFILE.ciphertext_limbs(1024) == 64
        assert DEFAULT_PROFILE.ciphertext_limbs(4096) == 256

    def test_ciphertext_bytes(self):
        assert DEFAULT_PROFILE.ciphertext_bytes(1024) == 256
        assert DEFAULT_PROFILE.ciphertext_bytes(2048) == 512

    def test_encrypt_decrypt_symmetric_order(self):
        enc = DEFAULT_PROFILE.words_per_encrypt(1024)
        dec = DEFAULT_PROFILE.words_per_decrypt(1024)
        assert 0.5 < enc / dec < 2.0

    def test_add_much_cheaper_than_encrypt(self):
        assert DEFAULT_PROFILE.words_per_homomorphic_add(1024) * 100 < \
            DEFAULT_PROFILE.words_per_encrypt(1024)

    def test_scalar_mul_between_add_and_encrypt(self):
        add = DEFAULT_PROFILE.words_per_homomorphic_add(1024)
        scalar = DEFAULT_PROFILE.words_per_scalar_mul(1024)
        enc = DEFAULT_PROFILE.words_per_encrypt(1024)
        assert add < scalar < enc

    def test_work_grows_cubically_with_key(self):
        # Exponent bits x2, CIOS words x4 => ~8x per key doubling.
        ratio = (DEFAULT_PROFILE.words_per_encrypt(2048)
                 / DEFAULT_PROFILE.words_per_encrypt(1024))
        assert 6.0 < ratio < 9.0


class TestCalibration:
    """The cost model must land on the paper's Table IV orders."""

    @pytest.mark.parametrize("key_bits,paper_low,paper_high", [
        (1024, 250, 550), (2048, 45, 100), (4096, 6, 20)])
    def test_fate_cpu_throughput(self, key_bits, paper_low, paper_high):
        words = DEFAULT_PROFILE.words_per_encrypt(key_bits)
        throughput = 1.0 / DEFAULT_PROFILE.cpu_seconds(1, words)
        assert paper_low < throughput < paper_high

    def test_haflo_gpu_throughput_at_1024(self):
        manager = ResourceManager(managed=False)
        plan = manager.plan(4096, DEFAULT_PROFILE.ciphertext_limbs(1024))
        words = DEFAULT_PROFILE.words_per_encrypt(1024)
        seconds = DEFAULT_PROFILE.gpu_seconds(
            4096, 4096 * words, 4096 * 4, 4096 * 256, plan, managed=False)
        throughput = 4096 / seconds
        assert 30_000 < throughput < 90_000        # paper: ~59k

    def test_flbooster_gpu_throughput_at_1024(self):
        manager = ResourceManager(managed=True)
        plan = manager.plan(4096, DEFAULT_PROFILE.ciphertext_limbs(1024))
        words = DEFAULT_PROFILE.words_per_encrypt(1024)
        seconds = DEFAULT_PROFILE.gpu_seconds(
            4096, 4096 * words, 4096 * 4, 4096 * 256, plan, managed=True)
        throughput = 4096 / seconds
        assert 250_000 < throughput < 600_000      # paper: ~400k


class TestTimeModel:
    def test_cpu_zero_ops(self):
        assert DEFAULT_PROFILE.cpu_seconds(0, 1000) == 0.0

    def test_cpu_linear_in_ops(self):
        one = DEFAULT_PROFILE.cpu_seconds(1, 10_000)
        ten = DEFAULT_PROFILE.cpu_seconds(10, 10_000)
        assert abs(ten - 10 * one) < 1e-12

    def test_gpu_zero_tasks(self):
        plan = ResourceManager().plan(1, 64)
        assert DEFAULT_PROFILE.gpu_seconds(0, 0, 0, 0, plan) == 0.0

    def test_gpu_small_batch_underfills(self):
        # Per-op cost of a tiny batch exceeds that of a saturated one.
        plan = ResourceManager().plan(8, 64)
        words = DEFAULT_PROFILE.words_per_encrypt(1024)
        small = DEFAULT_PROFILE.gpu_seconds(8, 8 * words, 32, 2048, plan) / 8
        big_plan = ResourceManager().plan(8192, 64)
        big = DEFAULT_PROFILE.gpu_seconds(
            8192, 8192 * words, 32768, 8192 * 256, big_plan) / 8192
        assert small > big

    def test_unmanaged_pays_full_transfer(self):
        profile = HardwareProfile()
        plan_u = ResourceManager(managed=False).plan(1024, 64)
        plan_m = ResourceManager(managed=True).plan(1024, 64)
        # Same bytes: unmanaged transfer term is 10x the managed one.
        only_transfer_u = (1 - profile.transfer_overlap_unmanaged)
        only_transfer_m = (1 - profile.transfer_overlap_managed)
        assert only_transfer_u > 5 * only_transfer_m
        assert plan_u is not plan_m

    def test_network_seconds(self):
        profile = HardwareProfile(network_bandwidth=1e6,
                                  network_latency=1e-3)
        assert abs(profile.network_seconds(1_000_000, messages=2)
                   - (0.002 + 1.0)) < 1e-9

    def test_wire_bytes_bloat(self):
        objects = DEFAULT_PROFILE.wire_bytes(256, packed=False)
        packed = DEFAULT_PROFILE.wire_bytes(256, packed=True)
        assert objects > 2 * packed / 1.05
        assert packed >= 256

    def test_eq10_acceleration_positive_and_large(self):
        plan = ResourceManager(managed=True).plan(4096, 64)
        ratio = DEFAULT_PROFILE.eq10_acceleration_ratio(4096, 1024, plan)
        assert ratio > 100       # GPU must beat CPU by orders of magnitude


def stream_makespan(batches, depth):
    """End-to-end seconds of ``(h2d, compute, d2h)`` batches.

    A list-scheduling simulation of Sec. V's stream pipeline: one
    copy-in engine, one compute engine and one copy-out engine, each
    running its queue in order; a batch's stages run in that order, and
    batch ``i`` may start only once batch ``i - depth`` has drained.
    """
    h2d_free = compute_free = d2h_free = 0.0
    done = []
    for index, (h2d, compute, d2h) in enumerate(batches):
        ready = done[index - depth] if index >= depth else 0.0
        h2d_free = max(h2d_free, ready) + h2d
        compute_free = max(compute_free, h2d_free) + compute
        d2h_free = max(d2h_free, compute_free) + d2h
        done.append(d2h_free)
    return done[-1] if done else 0.0


def he_batches(count, transfer_fraction=0.05, compute=1.0e-3):
    """HE-shaped batches: each copy is a small fraction of the compute."""
    transfer = compute * transfer_fraction
    return [(transfer, compute, transfer)] * count


def transfer_hidden(batches, depth):
    """Fraction of the copy time the pipeline runs under compute."""
    transfer = sum(h2d + d2h for h2d, _, d2h in batches)
    serial = sum(map(sum, batches))
    return (serial - stream_makespan(batches, depth)) / transfer


class TestStreamOverlap:
    """Where the managed depth (8) and overlap (0.9) constants come from."""

    def test_depth_one_is_serial_and_hides_nothing(self):
        batches = he_batches(64)
        assert stream_makespan(batches, 1) == \
            pytest.approx(sum(map(sum, batches)))
        assert transfer_hidden(batches, 1) == pytest.approx(
            DEFAULT_PROFILE.transfer_overlap_unmanaged, abs=1e-9)

    def test_empty(self):
        assert stream_makespan([], 8) == 0.0

    def test_single_batch_is_serial(self):
        batch = (0.1, 1.0, 0.1)
        assert stream_makespan([batch], 8) == pytest.approx(sum(batch))

    def test_pipelining_beats_serial(self):
        batches = he_batches(20)
        assert stream_makespan(batches, 8) < \
            0.95 * sum(map(sum, batches))

    def test_deeper_is_never_slower(self):
        batches = he_batches(30, transfer_fraction=0.5)
        spans = [stream_makespan(batches, depth)
                 for depth in (1, 2, 4, 8, 16)]
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(spans, spans[1:]))

    def test_compute_bound_limit(self):
        # Small copies: the makespan is the compute plus one fill.
        batches = he_batches(50)
        compute = sum(seconds for _, seconds, _ in batches)
        assert compute < stream_makespan(batches, 8) < 1.1 * compute

    def test_managed_constants(self):
        assert DEFAULT_PROFILE.pipeline_depth_managed == 8
        assert DEFAULT_PROFILE.transfer_overlap_managed == 0.9
        assert transfer_hidden(he_batches(64),
                               DEFAULT_PROFILE.pipeline_depth_managed) >= \
            DEFAULT_PROFILE.transfer_overlap_managed

    def test_transfer_heavy_work_cannot_hide_everything(self):
        # The copy engines saturate: streams do not replace compression.
        assert transfer_hidden(he_batches(64, transfer_fraction=1.0),
                               16) < 0.99
