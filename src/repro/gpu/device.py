"""Simulated GPU device (paper Sec. III-C).

:class:`DeviceSpec` captures the resources the paper's resource manager
balances -- the number of threads, the number of registers, and the size of
memory -- and :class:`SimulatedGpu` sums the launches priced against that
budget.  The default spec mirrors the NVIDIA GeForce RTX 3090 used in the
paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU.

    Attributes mirror the resources the paper's resource manager allocates:
    stream multiprocessors, threads, registers, and memory.
    """

    name: str
    num_sms: int
    max_threads_per_sm: int
    warp_size: int
    registers_per_sm: int
    shared_memory_per_sm: int          # bytes
    global_memory: int                 # bytes
    core_clock_hz: float
    pcie_bandwidth: float              # bytes / second, host <-> device


#: The paper's testbed GPU.
RTX_3090 = DeviceSpec(
    name="NVIDIA GeForce RTX 3090 (simulated)",
    num_sms=82,
    max_threads_per_sm=1536,
    warp_size=32,
    registers_per_sm=65536,
    shared_memory_per_sm=100 * 1024,
    global_memory=24 * 1024 ** 3,
    core_clock_hz=1.695e9,
    pcie_bandwidth=16e9,               # PCIe 4.0 x16 effective
)


@dataclass
class SimulatedGpu:
    """A device instance accumulating launch statistics.

    The simulation is *behavioural*: callers execute the limb algorithms on
    the CPU and report each launch's modelled price here.  The device keeps
    running sums -- launches, modelled seconds and utilization-weighted
    seconds -- from which the utilization figures and ablations read back.
    """

    spec: DeviceSpec = field(default_factory=lambda: RTX_3090)
    launches: int = 0
    total_seconds: float = 0.0
    busy_seconds: float = 0.0

    def record_launch(self, seconds: float, sm_utilization: float) -> None:
        """Add one completed launch to the sums."""
        self.launches += 1
        self.total_seconds += seconds
        self.busy_seconds += sm_utilization * seconds

    def mean_sm_utilization(self) -> float:
        """Time-weighted average SM utilization (the Fig. 6 metric)."""
        if not self.launches:
            return 0.0
        # Every price includes a positive launch latency.
        return self.busy_seconds / self.total_seconds

    def reset(self) -> None:
        """Zero the sums (the runtime does, at every epoch)."""
        self.launches = 0
        self.total_seconds = 0.0
        self.busy_seconds = 0.0
