"""Measurement harness for the paper's evaluation (Sec. VI).

The paper's testbed runs hours-long epochs on four servers; this harness
runs the same protocols on scaled-down data with full work counting (see
DESIGN.md, "Timing methodology").  Two fidelity knobs:

- dataset scale: :data:`SCALED_DATASET_SPECS` shrinks each dataset while
  preserving its shape; reports carry the paper-scale extrapolation
  factor.
- key scale: the mathematics runs at ``physical_key_bits`` while the cost
  model charges the experiment's nominal key size.  The default scaling
  (:func:`physical_key_for`: a quarter of nominal, floored at 256) always
  hosts the nominal packing capacity, so ciphertext counts are exact at
  every nominal size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.datasets.generators import (
    Dataset,
    avazu_like,
    rcv1_like,
    synthetic_like,
)
from repro.federation.channel import ChannelError
from repro.federation.faults import FaultPlan, QuorumError, RetryPolicy
from repro.federation.metrics import EpochReport, FaultReport
from repro.federation.runtime import FederationRuntime, SystemConfig
from repro.federation.wal import replace_durably
from repro.gpu.resource_manager import ResourceManager
from repro.models import (
    HeteroLogisticRegression,
    HeteroNeuralNetwork,
    HeteroSecureBoost,
    HomoLogisticRegression,
    HomoNeuralNetwork,
)
from repro.models.base import (
    CONVERGENCE_TOLERANCE,
    FederatedModel,
    TrainingTrace,
)

#: Largest physical key the scaled sweeps use (the nominal-4096 case);
#: hosts 128 packing slots with usable precision.
DEFAULT_PHYSICAL_KEY_BITS = 1024


def physical_key_for(nominal_bits: int) -> int:
    """Physical key size for a nominal key in scaled mode.

    A quarter of the nominal size (floored at 256 bits) always hosts the
    nominal packing capacity at >= 5 value bits per slot, so ciphertext
    counts and compression ratios are exact while the Python arithmetic
    stays fast.
    """
    return max(256, nominal_bits // 4)

#: Participant count in every experiment (the paper's four servers).
DEFAULT_NUM_CLIENTS = 4

#: Scaled dimensions preserving each dataset's character: RCV1 mid-sparse
#: mid-dimensional, Avazu highest-dimensional and sparsest, Synthetic
#: dense and lowest-dimensional.
SCALED_DATASET_SPECS = {
    "RCV1": dict(instances=320, features=384),
    "Avazu": dict(instances=320, features=640),
    "Synthetic": dict(instances=320, features=96),
}

_DATASET_CACHE: Dict[tuple, Dataset] = {}


def scaled_dataset(name: str, seed: int = 0) -> Dataset:
    """Build (and cache) the scaled replica of a paper dataset."""
    spec = SCALED_DATASET_SPECS.get(name)
    if spec is None:
        raise KeyError(f"unknown dataset {name!r}; choose from "
                       f"{sorted(SCALED_DATASET_SPECS)}")
    cache_key = (name, seed)
    if cache_key not in _DATASET_CACHE:
        if name == "RCV1":
            dataset = rcv1_like(seed=seed, **spec)
        elif name == "Avazu":
            dataset = avazu_like(seed=seed, **spec)
        else:
            dataset = synthetic_like(seed=seed, **spec)
        _DATASET_CACHE[cache_key] = dataset
    return _DATASET_CACHE[cache_key]


def build_model(model_name: str, dataset: Dataset,
                num_clients: int = DEFAULT_NUM_CLIENTS,
                seed: int = 0) -> FederatedModel:
    """Instantiate a registry model (the paper's four plus Homo NN)."""
    if model_name == "Homo LR":
        return HomoLogisticRegression(dataset, num_clients=num_clients,
                                      batch_size=128, seed=seed)
    if model_name == "Hetero LR":
        return HeteroLogisticRegression(dataset, batch_size=128, seed=seed)
    if model_name == "Hetero SBT":
        return HeteroSecureBoost(dataset, max_depth=2, num_bins=4,
                                 seed=seed)
    if model_name == "Hetero NN":
        return HeteroNeuralNetwork(dataset, batch_size=128, seed=seed)
    if model_name == "Homo NN":
        return HomoNeuralNetwork(dataset, num_clients=num_clients,
                                 batch_size=128, seed=seed)
    raise KeyError(f"unknown model {model_name!r}")


#: Memoized epoch reports: benchmark files share many (system, model,
#: dataset, key) cells and all runs are deterministic given the seed.
_EPOCH_CACHE: Dict[tuple, EpochReport] = {}


def run_epoch_experiment(config: SystemConfig, model_name: str,
                         dataset_name: str, key_bits: int,
                         physical_key_bits: Optional[int] = None,
                         num_clients: int = DEFAULT_NUM_CLIENTS,
                         seed: int = 0,
                         use_cache: bool = True) -> EpochReport:
    """Measure one training epoch of (system, model, dataset, key size).

    The model trains for real on the scaled dataset; the report carries
    the modelled epoch time and component split at the nominal key size.
    Reports are memoized across calls (deterministic given the seed);
    pass ``use_cache=False`` to force a fresh run.
    """
    if physical_key_bits is None:
        physical_key_bits = physical_key_for(key_bits)
    cache_key = (config.name, model_name, dataset_name, key_bits,
                 physical_key_bits, num_clients, seed)
    if use_cache and cache_key in _EPOCH_CACHE:
        return _EPOCH_CACHE[cache_key]
    dataset = scaled_dataset(dataset_name, seed=seed)
    model = build_model(model_name, dataset, num_clients=num_clients,
                        seed=seed)
    runtime = FederationRuntime(config, num_clients=num_clients,
                                key_bits=key_bits,
                                physical_key_bits=physical_key_bits,
                                seed=seed)
    ledger = runtime.begin_epoch()
    loss = model.run_epoch(runtime)
    report = EpochReport.from_ledger(ledger, system=config.name,
                                     model=model_name, dataset=dataset_name,
                                     key_bits=key_bits, loss=loss)
    if use_cache:
        _EPOCH_CACHE[cache_key] = report
    return report


def run_training(config: SystemConfig, model_name: str, dataset_name: str,
                 key_bits: int, max_epochs: int,
                 physical_key_bits: Optional[int] = None,
                 num_clients: int = DEFAULT_NUM_CLIENTS,
                 seed: int = 0, bc_capacity: str = "nominal") -> TrainingTrace:
    """Train to convergence (or ``max_epochs``); returns the full trace.

    Convergence experiments default to full fidelity
    (``physical == nominal``) so quantization effects are the real ones;
    pass a smaller ``physical_key_bits`` with ``bc_capacity="physical"``
    to keep full quantization precision at reduced key cost.
    """
    if physical_key_bits is None:
        physical_key_bits = key_bits
    dataset = scaled_dataset(dataset_name, seed=seed)
    model = build_model(model_name, dataset, num_clients=num_clients,
                        seed=seed)
    runtime = FederationRuntime(config, num_clients=num_clients,
                                key_bits=key_bits,
                                physical_key_bits=physical_key_bits,
                                seed=seed, bc_capacity=bc_capacity)
    return model.train(runtime, max_epochs=max_epochs, key_bits=key_bits)


#: Checkpoint format version, bumped on layout changes.
CHECKPOINT_VERSION = 1


@dataclass
class TrainingCheckpoint:
    """Resumable snapshot of a federated training run.

    Serialized as JSON (no pickle): model arrays go through
    ``ndarray.tolist()``, which preserves shape and float64 values
    exactly, so resume is bit-identical.

    Attributes:
        system / model / dataset / key_bits / seed: Run identity; a
            checkpoint refuses to resume a different run.
        epoch: Epochs fully completed (the next epoch to run).
        rounds_completed: Global aggregation-round cursor, restored into
            the aggregator so scheduled fault events stay aligned.
        losses / epoch_seconds: Per-epoch trace so far.
        model_state: ``state_dict()`` arrays as nested lists.
        restarts: Resume cycles performed so far (the next runtime's
            fault incarnation).
    """

    system: str
    model: str
    dataset: str
    key_bits: int
    seed: int
    epoch: int
    rounds_completed: int
    losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    model_state: Dict[str, list] = field(default_factory=dict)
    restarts: int = 0
    version: int = CHECKPOINT_VERSION

    @classmethod
    def capture(cls, model: FederatedModel, runtime: FederationRuntime,
                trace: TrainingTrace, key_bits: int, seed: int,
                epoch: int, restarts: int) -> "TrainingCheckpoint":
        """Snapshot a run at an epoch boundary."""
        return cls(
            system=runtime.config.name, model=model.name,
            dataset=model.dataset.name, key_bits=key_bits, seed=seed,
            epoch=epoch,
            rounds_completed=runtime.aggregator.round_cursor,
            losses=list(trace.losses),
            epoch_seconds=list(trace.epoch_seconds),
            model_state={name: np.asarray(value).tolist()
                         for name, value in model.state_dict().items()},
            restarts=restarts,
        )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The model state as float64 arrays, ready for
        ``load_state_dict``."""
        return {name: np.asarray(value, dtype=np.float64)
                for name, value in self.model_state.items()}

    def save(self, path: Union[str, Path]) -> None:
        """Write the checkpoint atomically and durably
        (:func:`~repro.federation.wal.replace_durably`): a crash at any
        point leaves either the old complete checkpoint or the new
        complete checkpoint -- never a torn one."""
        payload = {
            "version": self.version, "system": self.system,
            "model": self.model, "dataset": self.dataset,
            "key_bits": self.key_bits, "seed": self.seed,
            "epoch": self.epoch,
            "rounds_completed": self.rounds_completed,
            "losses": self.losses, "epoch_seconds": self.epoch_seconds,
            "model_state": self.model_state, "restarts": self.restarts,
        }
        replace_durably(Path(path), json.dumps(payload).encode("utf-8"))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TrainingCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        version = payload.pop("version", 0)
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version} unsupported "
                f"(expected {CHECKPOINT_VERSION})")
        return cls(version=version, **payload)

    def matches(self, system: str, model: str, dataset: str,
                key_bits: int, seed: int) -> bool:
        """Whether this checkpoint belongs to the given run."""
        return (self.system == system and self.model == model
                and self.dataset == dataset
                and self.key_bits == key_bits and self.seed == seed)


@dataclass
class RecoveryResult:
    """Outcome of a fault-tolerant training run.

    Attributes:
        trace: The completed training trace (losses restored from
            checkpoints carry no per-epoch reports).
        restarts: Checkpoint/resume cycles the run needed.
        resumed_epochs: Epoch index each resume restarted from.
        failures: Human-readable description of each abort.
        checkpoint: The final checkpoint (state at the last epoch).
        fault_report: Merged ``fault.*`` summary across every epoch,
            including aborted ones.
    """

    trace: TrainingTrace
    restarts: int
    resumed_epochs: List[int]
    failures: List[str]
    checkpoint: Optional[TrainingCheckpoint]
    fault_report: FaultReport


def run_training_with_recovery(
        config: SystemConfig, model_name: str, dataset_name: str,
        key_bits: int, max_epochs: int,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        min_quorum: Optional[int] = None,
        round_deadline_seconds: Optional[float] = None,
        physical_key_bits: Optional[int] = None,
        num_clients: int = DEFAULT_NUM_CLIENTS, seed: int = 0,
        bc_capacity: str = "nominal",
        checkpoint_path: Optional[Union[str, Path]] = None,
        max_restarts: int = 5,
        tolerance: float = CONVERGENCE_TOLERANCE) -> RecoveryResult:
    """Train under faults with checkpoint/resume instead of restarting.

    The training loop snapshots model weights, the epoch index, the
    aggregation-round cursor and the loss trace at every epoch boundary.
    When a fault aborts an epoch (``ChannelError`` from an exhausted
    transfer, or ``QuorumError`` from a round below quorum), the run
    resumes from the last checkpoint with a fresh runtime whose fault
    *incarnation* is bumped -- deterministic for a fixed seed, but not a
    verbatim replay of the failure.  Transient dropout events do not
    outlive a restart (see :mod:`repro.federation.faults`).

    Args:
        checkpoint_path: Persist checkpoints here (JSON); an existing,
            matching checkpoint at this path is resumed.  ``None`` keeps
            checkpoints in memory only.
        max_restarts: Abandon the run (re-raising the last failure) after
            this many resume cycles.

    Returns:
        A :class:`RecoveryResult`; its trace is directly comparable to
        :func:`run_training` output.
    """
    if physical_key_bits is None:
        physical_key_bits = key_bits
    dataset = scaled_dataset(dataset_name, seed=seed)

    checkpoint: Optional[TrainingCheckpoint] = None
    if checkpoint_path is not None:
        target = Path(checkpoint_path)
        # A .tmp next to the checkpoint is a save that died before its
        # rename; the checkpoint itself is still the last complete one.
        stale = target.with_name(target.name + ".tmp")
        if stale.exists():
            stale.unlink()
        if target.exists():
            candidate = TrainingCheckpoint.load(target)
            if candidate.matches(config.name, model_name, dataset_name,
                                 key_bits, seed):
                checkpoint = candidate

    restarts = checkpoint.restarts if checkpoint is not None else 0
    resumed_epochs: List[int] = []
    failures: List[str] = []
    fault_total = FaultReport()

    while True:
        model = build_model(model_name, dataset, num_clients=num_clients,
                            seed=seed)
        runtime = FederationRuntime(
            config, num_clients=num_clients, key_bits=key_bits,
            physical_key_bits=physical_key_bits, seed=seed,
            bc_capacity=bc_capacity, fault_plan=fault_plan,
            retry_policy=retry_policy, min_quorum=min_quorum,
            round_deadline_seconds=round_deadline_seconds,
            incarnation=restarts)
        trace = TrainingTrace(system=config.name, model=model.name,
                              dataset=dataset.name)
        start_epoch = 0
        if checkpoint is not None:
            model.load_state_dict(checkpoint.state_arrays())
            runtime.aggregator.round_cursor = checkpoint.rounds_completed
            trace.losses = list(checkpoint.losses)
            trace.epoch_seconds = list(checkpoint.epoch_seconds)
            start_epoch = checkpoint.epoch
        previous_loss = trace.losses[-1] if trace.losses else None

        epoch = start_epoch
        try:
            for epoch in range(start_epoch, max_epochs):
                ledger = runtime.begin_epoch()
                loss = model.run_epoch(runtime)
                fault_total = fault_total.merge(
                    FaultReport.from_ledger(ledger))
                trace.losses.append(loss)
                trace.epoch_seconds.append(ledger.total_seconds)
                trace.reports.append(EpochReport.from_ledger(
                    ledger, system=config.name, model=model.name,
                    dataset=dataset.name, key_bits=key_bits, loss=loss))
                checkpoint = TrainingCheckpoint.capture(
                    model, runtime, trace, key_bits=key_bits, seed=seed,
                    epoch=epoch + 1, restarts=restarts)
                if checkpoint_path is not None:
                    checkpoint.save(checkpoint_path)
                if previous_loss is not None and \
                        abs(previous_loss - loss) < tolerance:
                    break
                previous_loss = loss
            return RecoveryResult(
                trace=trace, restarts=restarts,
                resumed_epochs=resumed_epochs, failures=failures,
                checkpoint=checkpoint, fault_report=fault_total)
        except (ChannelError, QuorumError) as failure:
            # Count the aborted epoch's partial work before discarding it.
            fault_total = fault_total.merge(
                FaultReport.from_ledger(runtime.ledger))
            failures.append(f"epoch {epoch}: {failure}")
            restarts += 1
            if restarts > max_restarts:
                raise
            resumed_epochs.append(epoch)
            if checkpoint is not None:
                checkpoint.restarts = restarts
                if checkpoint_path is not None:
                    checkpoint.save(checkpoint_path)


def he_throughput(config: SystemConfig, key_bits: int,
                  batch_size: int = 4096,
                  physical_key_bits: Optional[int] = None,
                  operation: str = "encrypt",
                  seed: int = 0) -> float:
    """HE-operation throughput in instances/second (Table IV).

    Runs one real batch through the configured engine and divides the
    batch size by the modelled seconds.  ``operation`` is one of
    ``encrypt``, ``decrypt``, ``add``.
    """
    if physical_key_bits is None:
        physical_key_bits = physical_key_for(key_bits)
    runtime = FederationRuntime(config, num_clients=DEFAULT_NUM_CLIENTS,
                                key_bits=key_bits,
                                physical_key_bits=physical_key_bits,
                                seed=seed)
    engine = runtime.client_engine
    ledger = runtime.begin_epoch()
    plaintexts = [(i * 2654435761) % (1 << 20) for i in range(batch_size)]
    ciphertexts = engine.encrypt_batch(plaintexts)
    if operation == "encrypt":
        seconds = ledger.seconds("he.encrypt")
    elif operation == "decrypt":
        before = ledger.seconds("he.decrypt")
        engine.decrypt_batch(ciphertexts)
        seconds = ledger.seconds("he.decrypt") - before
    elif operation == "add":
        before = ledger.seconds("he.add")
        engine.add_batch(ciphertexts, ciphertexts)
        seconds = ledger.seconds("he.add") - before
    else:
        raise KeyError(f"unknown operation {operation!r}")
    if seconds <= 0:
        raise RuntimeError("no modelled time charged for the batch")
    return batch_size / seconds


def sm_utilization(config: SystemConfig, key_bits: int) -> float:
    """SM utilization for ciphertext-sized operands (Fig. 6)."""
    manager = ResourceManager(managed=config.managed_gpu)
    return manager.utilization_for_key_size(key_bits)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned text table (the benchmark printers' output)."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(width)
                             for header, width in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in string_rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)
