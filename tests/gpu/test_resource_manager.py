"""Tests for the GPU resource manager (paper Sec. IV-A2, Fig. 6)."""

import pytest

from repro.gpu.device import RTX_3090
from repro.gpu.resource_manager import (
    COMMON_BLOCK_SIZES,
    MemoryTable,
    ResourceManager,
)


class TestBlockPlanning:
    def test_managed_plan_fits_device(self):
        manager = ResourceManager(managed=True)
        plan = manager.plan(tasks=1024, limbs=64)
        assert plan.block_size in COMMON_BLOCK_SIZES
        assert plan.resident_threads_per_sm <= RTX_3090.max_threads_per_sm
        assert 0 < plan.occupancy <= 1.0

    def test_unmanaged_uses_largest_block(self):
        manager = ResourceManager(managed=False)
        plan = manager.plan(tasks=1024, limbs=64)
        assert plan.block_size == COMMON_BLOCK_SIZES[-1]

    def test_branch_handling_register_gap(self):
        # Unmanaged divergence inflates register demand several-fold.
        managed = ResourceManager(managed=True).plan(1024, 64)
        unmanaged = ResourceManager(managed=False).plan(1024, 64)
        assert unmanaged.registers_per_thread > \
            2 * managed.registers_per_thread

    def test_managed_utilization_beats_unmanaged(self):
        for limbs in (64, 128, 256):
            managed = ResourceManager(managed=True).plan(1024, limbs)
            unmanaged = ResourceManager(managed=False).plan(1024, limbs)
            assert managed.sm_utilization > 2 * unmanaged.sm_utilization

    def test_utilization_degrades_with_key_size(self):
        # Fig. 6: "SM performance degrades due to the lack of resources".
        manager = ResourceManager(managed=True)
        utils = [manager.utilization_for_key_size(bits)
                 for bits in (1024, 2048, 4096)]
        assert utils[0] >= utils[1] >= utils[2]

    def test_launch_latency_managed_cheaper(self):
        managed = ResourceManager(managed=True).plan(16, 64)
        unmanaged = ResourceManager(managed=False).plan(16, 64)
        assert managed.launch_latency < unmanaged.launch_latency

    def test_limbs_per_thread_consistent(self):
        plan = ResourceManager(managed=True).plan(100, 256)
        assert plan.limbs_per_thread * plan.threads_per_task >= 256

    def test_invalid_inputs_raise(self):
        manager = ResourceManager()
        with pytest.raises(ValueError):
            manager.plan(0, 64)
        with pytest.raises(ValueError):
            manager.plan(10, 0)

    def test_plan_cache_returns_same_object(self):
        manager = ResourceManager()
        assert manager.plan(100, 64) is manager.plan(100, 64)


class TestMemoryTable:
    def test_allocate_and_free(self):
        table = MemoryTable(capacity=1000)
        address = table.allocate(100)
        table.free(address)
        assert table.misses == 1

    def test_reuse_marks_hit(self):
        table = MemoryTable(capacity=1000)
        address = table.allocate(100)
        table.free(address)
        again = table.allocate(80)
        assert again == address
        assert table.hits == 1

    def test_no_reuse_of_occupied(self):
        table = MemoryTable(capacity=1000)
        first = table.allocate(100)
        second = table.allocate(100)
        assert first != second
        assert table.misses == 2

    def test_too_small_slot_not_reused(self):
        table = MemoryTable(capacity=1000)
        address = table.allocate(50)
        table.free(address)
        big = table.allocate(100)
        assert big != address

    def test_exhaustion_raises(self):
        table = MemoryTable(capacity=100)
        table.allocate(80)
        with pytest.raises(MemoryError):
            table.allocate(50)

    def test_double_free_raises(self):
        table = MemoryTable(capacity=100)
        address = table.allocate(10)
        table.free(address)
        with pytest.raises(ValueError):
            table.free(address)

    def test_unknown_free_raises(self):
        with pytest.raises(ValueError):
            MemoryTable(capacity=100).free(12345)

    def test_nonpositive_allocation_raises(self):
        with pytest.raises(ValueError):
            MemoryTable(capacity=100).allocate(0)
