"""Tests for the GPU resource manager (paper Sec. IV-A2, Fig. 6)."""

import pytest

from repro.gpu.device import RTX_3090
from repro.gpu.resource_manager import COMMON_BLOCK_SIZES, ResourceManager


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

    @pytest.mark.parametrize("managed", [True, False])
    def test_plan_is_keyed_by_limbs_alone(self, managed):
        manager = ResourceManager(managed=managed)
        for limbs in (1, 64, 256):
            assert manager.plan(1, limbs) is manager.plan(10 ** 6, limbs)

    @pytest.mark.parametrize("managed, expected", [
        (True, (0.87, 0.86, 0.8483007499855768)),
        (False, (0.12200438541245993, 0.11908771874579326,
                 0.11617105207912659)),
    ], ids=["managed", "unmanaged"])
    def test_utilization_for_key_size_is_pinned(self, managed, expected):
        # Literals: how the plan cache is keyed must not move a plan.
        manager = ResourceManager(managed=managed)
        assert tuple(manager.utilization_for_key_size(bits)
                     for bits in (1024, 2048, 4096)) == expected
