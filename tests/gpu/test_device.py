"""Tests for the simulated device and launch bookkeeping."""

from repro.gpu.device import RTX_3090, DeviceSpec, SimulatedGpu
from repro.gpu.resource_manager import ResourceManager


class TestDeviceSpec:
    def test_rtx3090_shape(self):
        assert RTX_3090.num_sms == 82
        assert RTX_3090.warp_size == 32
        assert RTX_3090.max_threads_per_sm == 1536

    def test_custom_spec(self):
        spec = DeviceSpec(name="tiny", num_sms=2, max_threads_per_sm=64,
                          warp_size=32, registers_per_sm=1024,
                          shared_memory_per_sm=1024, global_memory=1 << 20,
                          core_clock_hz=1e9, pcie_bandwidth=1e9)
        plan = ResourceManager(spec).plan(tasks=1, limbs=4)
        assert plan.resident_threads_per_sm <= spec.max_threads_per_sm


class TestSimulatedGpu:
    def test_records_launches(self):
        gpu = SimulatedGpu()
        gpu.record_launch(1.0, 0.5)
        gpu.record_launch(2.0, 0.5)
        assert gpu.launches == 2
        assert gpu.total_seconds == 3.0

    def test_mean_utilization_time_weighted(self):
        gpu = SimulatedGpu()
        gpu.record_launch(1.0, 0.2)
        gpu.record_launch(3.0, 0.6)
        expected = (0.2 * 1.0 + 0.6 * 3.0) / 4.0
        assert abs(gpu.mean_sm_utilization() - expected) < 1e-12

    def test_mean_utilization_empty(self):
        assert SimulatedGpu().mean_sm_utilization() == 0.0

    def test_reset(self):
        gpu = SimulatedGpu()
        gpu.record_launch(1.0, 0.5)
        gpu.reset()
        assert gpu.launches == 0
        assert gpu.total_seconds == 0.0
        assert gpu.busy_seconds == 0.0
