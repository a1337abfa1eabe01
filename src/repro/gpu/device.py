"""Simulated GPU device (paper Sec. III-C).

:class:`DeviceSpec` captures the resources the paper's resource manager
balances -- the number of threads, the number of registers, and the size of
memory -- and :class:`SimulatedGpu` tracks kernel launches and memory
traffic against that budget.  The default spec mirrors the NVIDIA GeForce
RTX 3090 used in the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


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

    @property
    def max_concurrent_threads(self) -> int:
        """Device-wide resident thread limit (T_max in Eq. 10)."""
        return self.num_sms * self.max_threads_per_sm


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
class KernelLaunch:
    """Record of one simulated kernel launch.

    Attributes:
        name: Kernel identifier (e.g. ``"paillier_encrypt"``).
        tasks: Number of independent HE tasks in the batch.
        threads_per_task: GPU threads assigned to each task.
        word_multiplications: Total single-word multiply-adds executed.
        bytes_in: Host-to-device transfer volume.
        bytes_out: Device-to-host transfer volume.
        sm_utilization: Fraction of SM issue capacity kept busy (Fig. 6).
        seconds: Modelled wall-clock duration of the launch.
    """

    name: str
    tasks: int
    threads_per_task: int
    word_multiplications: int
    bytes_in: int
    bytes_out: int
    sm_utilization: float
    seconds: float


@dataclass
class SimulatedGpu:
    """A device instance accumulating launch statistics.

    The simulation is *behavioural*: callers execute the limb algorithms on
    the CPU and report the work here; the device converts work into modelled
    time via the cost model and keeps the launch log that the utilization
    figures and ablations read back.
    """

    spec: DeviceSpec = field(default_factory=lambda: RTX_3090)
    launches: List[KernelLaunch] = field(default_factory=list)

    def record_launch(self, launch: KernelLaunch) -> None:
        """Append a completed launch to the device log."""
        self.launches.append(launch)

    @property
    def total_seconds(self) -> float:
        """Modelled GPU-side time across all launches."""
        return sum(launch.seconds for launch in self.launches)

    def mean_sm_utilization(self) -> float:
        """Launch-weighted average SM utilization (the Fig. 6 metric)."""
        if not self.launches:
            return 0.0
        weighted = sum(l.sm_utilization * l.seconds for l in self.launches)
        total = sum(l.seconds for l in self.launches)
        if total == 0:
            return sum(l.sm_utilization for l in self.launches) / len(self.launches)
        return weighted / total

    def reset(self) -> None:
        """Clear the launch log (the runtime does, at every epoch)."""
        self.launches.clear()
