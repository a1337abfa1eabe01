"""Tests for the simulated device and launch bookkeeping."""

from repro.gpu.device import RTX_3090, DeviceSpec, KernelLaunch, SimulatedGpu


def make_launch(seconds=1.0, utilization=0.5, tasks=10):
    return KernelLaunch(name="test", tasks=tasks, threads_per_task=32,
                        word_multiplications=1000, bytes_in=100,
                        bytes_out=200, sm_utilization=utilization,
                        seconds=seconds)


class TestDeviceSpec:
    def test_rtx3090_shape(self):
        assert RTX_3090.num_sms == 82
        assert RTX_3090.warp_size == 32
        assert RTX_3090.max_threads_per_sm == 1536

    def test_max_concurrent_threads(self):
        assert RTX_3090.max_concurrent_threads == 82 * 1536

    def test_custom_spec(self):
        spec = DeviceSpec(name="tiny", num_sms=2, max_threads_per_sm=64,
                          warp_size=32, registers_per_sm=1024,
                          shared_memory_per_sm=1024, global_memory=1 << 20,
                          core_clock_hz=1e9, pcie_bandwidth=1e9)
        assert spec.max_concurrent_threads == 128


class TestSimulatedGpu:
    def test_records_launches(self):
        gpu = SimulatedGpu()
        gpu.record_launch(make_launch())
        gpu.record_launch(make_launch(seconds=2.0))
        assert len(gpu.launches) == 2
        assert gpu.total_seconds == 3.0

    def test_mean_utilization_time_weighted(self):
        gpu = SimulatedGpu()
        gpu.record_launch(make_launch(seconds=1.0, utilization=0.2))
        gpu.record_launch(make_launch(seconds=3.0, utilization=0.6))
        expected = (0.2 * 1.0 + 0.6 * 3.0) / 4.0
        assert abs(gpu.mean_sm_utilization() - expected) < 1e-12

    def test_mean_utilization_empty(self):
        assert SimulatedGpu().mean_sm_utilization() == 0.0

    def test_mean_utilization_zero_seconds_falls_back_to_average(self):
        gpu = SimulatedGpu()
        gpu.record_launch(make_launch(seconds=0.0, utilization=0.4))
        gpu.record_launch(make_launch(seconds=0.0, utilization=0.8))
        assert abs(gpu.mean_sm_utilization() - 0.6) < 1e-12

    def test_reset(self):
        gpu = SimulatedGpu()
        gpu.record_launch(make_launch())
        gpu.reset()
        assert not gpu.launches
        assert gpu.total_seconds == 0.0
