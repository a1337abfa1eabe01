"""System configurations and runtime wiring (paper Sec. VI competitors).

:class:`SystemConfig` captures what distinguishes the compared systems --
where HE runs (CPU vs GPU), whether the GPU resource manager is active,
whether batch compression is applied, and the wire format -- and
:class:`FederationRuntime` turns a configuration into live engines, a
channel, a packing plan and a fresh-ledger-per-epoch lifecycle.

The five standard configurations (module constants) are the paper's:

- ``FATE_SYSTEM``      -- CPU HE, per-element objects, no compression.
- ``HAFLO_SYSTEM``     -- GPU HE without the resource manager, no
  compression (the strongest prior baseline).
- ``FLBOOSTER_SYSTEM`` -- GPU HE with the resource manager + batch
  compression (the paper's system).
- ``WITHOUT_GHE``      -- FLBooster minus the GPU (Table V ablation).
- ``WITHOUT_BC``       -- FLBooster minus compression (Table V ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.engine import HeEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.keys import PaillierKeypair, generate_paillier_keypair
from repro.federation.aggregator import SecureAggregator
from repro.federation.channel import Channel
from repro.federation.faults import (
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.gpu.cost_model import DEFAULT_PROFILE, HardwareProfile
from repro.gpu.device import SimulatedGpu
from repro.gpu.kernels import GpuKernels
from repro.gpu.resource_manager import ResourceManager
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker, PackingPlan


@dataclass(frozen=True)
class SystemConfig:
    """One point in the paper's system-comparison space.

    Attributes:
        name: Display name.
        gpu_he: Run HE on the (simulated) GPU instead of the CPU.
        managed_gpu: Enable the resource manager (FLBooster) or not
            (HAFLO-style naive launches).
        batch_compression: Pack gradients per Eq. 9.
        packed_serialization: Ship binary packed arrays instead of
            per-element serialized objects.
        r_bits: Quantization value bits.  Compression configs use the
            paper's 30+2 layout; uncompressed configs encode at 52 bits
            (effectively lossless, matching FATE's float encoding
            fidelity).
    """

    name: str
    gpu_he: bool
    managed_gpu: bool
    batch_compression: bool
    packed_serialization: bool
    r_bits: int

    def with_name(self, name: str) -> "SystemConfig":
        """Copy under a different display name."""
        return replace(self, name=name)


FATE_SYSTEM = SystemConfig(
    name="FATE", gpu_he=False, managed_gpu=False,
    batch_compression=False, packed_serialization=False, r_bits=52)

HAFLO_SYSTEM = SystemConfig(
    name="HAFLO", gpu_he=True, managed_gpu=False,
    batch_compression=False, packed_serialization=False, r_bits=52)

FLBOOSTER_SYSTEM = SystemConfig(
    name="FLBooster", gpu_he=True, managed_gpu=True,
    batch_compression=True, packed_serialization=True, r_bits=30)

WITHOUT_GHE = SystemConfig(
    name="w/o GHE", gpu_he=False, managed_gpu=False,
    batch_compression=True, packed_serialization=True, r_bits=30)

WITHOUT_BC = SystemConfig(
    name="w/o BC", gpu_he=True, managed_gpu=True,
    batch_compression=False, packed_serialization=False, r_bits=52)

STANDARD_SYSTEMS = (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM)
ABLATION_SYSTEMS = (FLBOOSTER_SYSTEM, WITHOUT_GHE, WITHOUT_BC)

#: Every named configuration, addressable by display name -- the handle
#: simulation traces and the CLI use to stay JSON-serializable.
SYSTEMS_BY_NAME: Dict[str, SystemConfig] = {
    config.name: config
    for config in (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM,
                   WITHOUT_GHE, WITHOUT_BC)
}


def system_by_name(name: str) -> SystemConfig:
    """Look up a standard configuration by display name."""
    try:
        return SYSTEMS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; choose from "
                       f"{sorted(SYSTEMS_BY_NAME)}") from None

#: Keypair cache: generation dominates small-run setup time and the keys
#: carry no state, so benchmark sweeps share them.
_KEYPAIR_CACHE: Dict[Tuple[int, int], PaillierKeypair] = {}


def cached_keypair(key_bits: int, seed: int = 7) -> PaillierKeypair:
    """Deterministic, cached Paillier keypair for experiments."""
    cache_key = (key_bits, seed)
    if cache_key not in _KEYPAIR_CACHE:
        _KEYPAIR_CACHE[cache_key] = generate_paillier_keypair(
            key_bits, rng=LimbRandom(seed=seed))
    return _KEYPAIR_CACHE[cache_key]


class FederationRuntime:
    """Live wiring of one system configuration.

    Args:
        config: The system being modelled.
        num_clients: Participant count ``p`` (fixes overflow bits).
        key_bits: Nominal key size charged by the cost model.
        physical_key_bits: Key size the mathematics actually runs at;
            defaults to ``key_bits`` (full fidelity).  Benchmarks pass a
            reduced size to keep wall-clock runs fast (DESIGN.md).
        profile: Hardware constants.
        seed: Determinism seed for keys and randomizers.
        alpha: Gradient bound for the quantization scheme.
        randomizer_pool_size: Engine speed knob (0 = fully fresh
            randomizers; charged costs are unaffected either way).
        bc_capacity: ``"nominal"`` (default) sizes packing by the nominal
            key so ciphertext counts and compression ratios are exact at
            paper key sizes, shrinking quantization bits when the
            physical key is smaller.  ``"physical"`` keeps the paper's
            full quantization precision and packs only what the physical
            plaintext holds -- the mode the convergence experiments use,
            where precision matters and time accounting is secondary.
        fault_plan: The fault schedule interpreted by the one
            :class:`~repro.federation.faults.FaultInjector` the channel
            and the aggregator share; ``None`` (kept as given on
            :attr:`fault_plan`) runs over the empty ``FaultPlan()``.
        retry_policy: Channel retry/backoff configuration;
            :data:`~repro.federation.faults.DEFAULT_RETRY_POLICY` by
            default (consulted only once an attempt is dropped).
        min_quorum: Minimum surviving clients per aggregation round;
            ``None`` requires all clients.
        round_deadline_seconds: Stragglers delayed beyond this miss the
            round instead of being waited for.
        incarnation: Checkpoint/resume generation; salts the fault seeds
            so a resumed run draws fresh (still deterministic) faults.
        fused: Flush server-side aggregation through the lazy tensor
            fusion planner (default); ``False`` keeps the eager per-pair
            path for launch-count comparison benchmarks.
        packing_codec: Session-wide packing layout: ``"dense"``
            (default, the paper's Eq. 9 packer) or ``"interleave"``
            (FedBit-style guard-banded layout with a higher summand
            capacity).  The sparse codec is per-tensor (it needs a
            support pattern), so it is not a session knob.
        he_backend: HE execution path: ``"auto"`` (default, follows
            ``config.gpu_he``), ``"cpu"`` (scalar CPU engine), ``"gpu"``
            (simulated GPU engine), or ``"vector"`` (batched limb-plane
            engine; requires numpy).  All paths are bit-identical under
            a shared seed, so this knob changes wall-clock only.
    """

    def __init__(self, config: SystemConfig, num_clients: int,
                 key_bits: int, physical_key_bits: Optional[int] = None,
                 profile: HardwareProfile = DEFAULT_PROFILE,
                 seed: int = 7, alpha: float = 1.0,
                 randomizer_pool_size: int = 32,
                 bc_capacity: str = "nominal",
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 min_quorum: Optional[int] = None,
                 round_deadline_seconds: Optional[float] = None,
                 incarnation: int = 0,
                 fused: bool = True,
                 packing_codec: str = "dense",
                 he_backend: str = "auto"):
        if bc_capacity not in ("nominal", "physical"):
            raise ValueError("bc_capacity must be 'nominal' or 'physical'")
        if he_backend not in ("auto", "cpu", "gpu", "vector"):
            raise ValueError(
                "he_backend must be 'auto', 'cpu', 'gpu', or 'vector'")
        if packing_codec not in ("dense", "interleave"):
            raise ValueError(
                "packing_codec must be 'dense' or 'interleave' (the "
                "sparse codec needs a per-tensor support pattern)")
        self.bc_capacity = bc_capacity
        self.packing_codec = packing_codec
        self.he_backend = he_backend
        if num_clients < 1:
            raise ValueError("need at least one client")
        if min_quorum is not None and not 1 <= min_quorum <= num_clients:
            raise ValueError(
                f"min_quorum {min_quorum} impossible with "
                f"{num_clients} clients")
        self.config = config
        self.num_clients = num_clients
        self.key_bits = key_bits
        self.physical_key_bits = (physical_key_bits
                                  if physical_key_bits is not None
                                  else key_bits)
        self.profile = profile
        self.seed = seed
        self.alpha = alpha
        self.randomizer_pool_size = randomizer_pool_size
        self.keypair = cached_keypair(self.physical_key_bits, seed=seed)
        self.ledger = CostLedger()
        self._silent_ledger = CostLedger()
        self._rng = LimbRandom(seed=seed + 1)

        self.fault_plan = fault_plan
        self.min_quorum = min_quorum
        self.round_deadline_seconds = round_deadline_seconds
        self.incarnation = incarnation
        self.injector = FaultInjector(
            fault_plan if fault_plan is not None else FaultPlan(),
            ledger=self.ledger, incarnation=incarnation)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else DEFAULT_RETRY_POLICY)

        self.client_engine = self._build_engine(self.ledger)
        self.server_engine = self._build_engine(self.ledger)
        self.silent_engine = self._build_engine(self._silent_ledger)
        self.channel = Channel(profile=profile, ledger=self.ledger,
                               retry_policy=self.retry_policy,
                               injector=self.injector,
                               seed=seed + incarnation)
        self.plan = self._build_plan()
        self.aggregator = SecureAggregator(
            client_engine=self.client_engine,
            silent_engine=self.silent_engine,
            server_engine=self.server_engine,
            packer=self.plan.packer,
            channel=self.channel,
            packed_serialization=config.packed_serialization,
            injector=self.injector,
            min_quorum=min_quorum,
            round_deadline_seconds=round_deadline_seconds,
            fused=fused,
        )

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    def _build_engine(self, ledger: CostLedger) -> HeEngine:
        backend = self.he_backend
        if backend == "auto":
            backend = "gpu" if self.config.gpu_he else "cpu"
        if backend == "vector":
            from repro.mpint.limb_plane import HAVE_NUMPY
            if not HAVE_NUMPY:
                raise RuntimeError(
                    "he_backend='vector' requires numpy; use 'cpu' or "
                    "'gpu' (or 'auto') on numpy-free installs")
            from repro.crypto.vector_engine import VectorPaillierEngine
            return VectorPaillierEngine(
                self.keypair, profile=self.profile,
                nominal_bits=self.key_bits, ledger=ledger, rng=self._rng,
                randomizer_pool_size=self.randomizer_pool_size)
        if backend == "gpu":
            manager = ResourceManager(managed=self.config.managed_gpu)
            kernels = GpuKernels(device=SimulatedGpu(),
                                 resource_manager=manager,
                                 profile=self.profile)
            return GpuPaillierEngine(
                self.keypair, kernels=kernels,
                nominal_bits=self.key_bits, ledger=ledger, rng=self._rng,
                randomizer_pool_size=self.randomizer_pool_size)
        return CpuPaillierEngine(
            self.keypair, profile=self.profile,
            nominal_bits=self.key_bits, ledger=ledger, rng=self._rng,
            randomizer_pool_size=self.randomizer_pool_size)

    def _build_plan(self) -> PackingPlan:
        plan = self._dense_plan()
        if self.packing_codec == "interleave":
            # Same scheme and physical plaintext, laid out with the
            # guard-banded interleaved codec; capacity derives from the
            # wider stride, summand capacity from the guard band.
            from repro.quantization.codecs import InterleavedCodec

            codec = InterleavedCodec(
                plan.scheme,
                plaintext_bits=self.client_engine.physical_plaintext_bits)
            plan = PackingPlan(scheme=plan.scheme, packer=codec,
                               nominal_key_bits=plan.nominal_key_bits)
        return plan

    def _dense_plan(self) -> PackingPlan:
        if self.config.batch_compression:
            if self.bc_capacity == "physical":
                scheme = QuantizationScheme(alpha=self.alpha,
                                            r_bits=self.config.r_bits,
                                            num_parties=self.num_clients)
                packer = BatchPacker(
                    scheme,
                    plaintext_bits=self.client_engine.physical_plaintext_bits)
                return PackingPlan(scheme=scheme, packer=packer,
                                   nominal_key_bits=self.key_bits)
            return PackingPlan.for_engine(
                self.client_engine, alpha=self.alpha,
                r_bits=self.config.r_bits, num_parties=self.num_clients)
        # No compression: one value per ciphertext at (near-)lossless
        # precision, exactly the FATE / HAFLO data path.
        scheme = QuantizationScheme(alpha=self.alpha,
                                    r_bits=self.config.r_bits,
                                    num_parties=self.num_clients)
        physical = self.client_engine.physical_plaintext_bits
        if scheme.slot_bits > physical:
            scheme = QuantizationScheme(
                alpha=self.alpha,
                r_bits=physical - scheme.overflow_bits,
                num_parties=self.num_clients)
        packer = BatchPacker(scheme, plaintext_bits=physical, capacity=1)
        return PackingPlan(scheme=scheme, packer=packer,
                           nominal_key_bits=self.key_bits)

    # ------------------------------------------------------------------
    # Epoch lifecycle.
    # ------------------------------------------------------------------

    def begin_epoch(self) -> CostLedger:
        """Swap in a fresh ledger for the next epoch; returns it.

        The simulated devices' launch logs start over with it: a launch
        is charged when it is recorded, so the log is per epoch, like
        the ledger it mirrors, instead of growing for the runtime's life.
        """
        self.ledger = CostLedger()
        self.client_engine.ledger = self.ledger
        self.server_engine.ledger = self.ledger
        self.channel.ledger = self.ledger
        self.injector.bind_ledger(self.ledger)
        for engine in (self.client_engine, self.server_engine,
                       self.silent_engine):
            if isinstance(engine, GpuPaillierEngine):
                engine.kernels.device.reset()
        return self.ledger

    def gpu_device(self) -> Optional[SimulatedGpu]:
        """The client engine's device, when HE runs on the GPU."""
        if isinstance(self.client_engine, GpuPaillierEngine):
            return self.client_engine.kernels.device
        return None
