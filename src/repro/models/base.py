"""Common machinery for the four benchmark FL models.

Every model implements :meth:`FederatedModel.run_epoch` against a
:class:`~repro.federation.runtime.FederationRuntime`; the shared pieces
here are the secure point-to-point transfer (the vertical protocols'
workhorse), the convergence-driven training loop of Sec. VI-B ("if the
loss difference between two successive epochs is less than 1e-6, the model
reaches convergence"), and the loss/time trace the convergence figures
read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.datasets.generators import Dataset
from repro.federation.metrics import EpochReport
from repro.federation.runtime import FederationRuntime
from repro.rng import np_rng

#: The paper's convergence tolerance.
CONVERGENCE_TOLERANCE = 1e-6


@dataclass
class TrainingTrace:
    """Loss-versus-modelled-time trace of one training run (Fig. 8)."""

    system: str
    model: str
    dataset: str
    losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    reports: List[EpochReport] = field(default_factory=list)

    @property
    def cumulative_seconds(self) -> List[float]:
        """Modelled wall-clock at the end of each epoch."""
        out: List[float] = []
        total = 0.0
        for seconds in self.epoch_seconds:
            total += seconds
            out.append(total)
        return out

    @property
    def final_loss(self) -> float:
        """Loss after the last epoch."""
        return self.losses[-1] if self.losses else float("nan")


class FederatedModel(ABC):
    """A federated model bound to a dataset, trained through a runtime.

    Subclasses hold all party state (weights, partitions) and implement
    one epoch of the federated protocol, charging every HE operation and
    transfer to the runtime's ledger.
    """

    name: str = "abstract"

    def __init__(self, dataset: Dataset, seed: int = 0):
        self.dataset = dataset
        self.seed = seed
        self.rng = np_rng(seed)

    @abstractmethod
    def run_epoch(self, runtime: FederationRuntime) -> float:
        """Run one training epoch; returns the training loss after it."""

    @abstractmethod
    def loss(self) -> float:
        """Current global training loss."""

    # ------------------------------------------------------------------
    # Checkpointable state (fault-tolerant training).
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the aggregated model state as name -> float array.

        Covers the two shapes the horizontal models use -- a flat
        ``weights`` vector (Homo LR) or a ``params`` dict of arrays
        (Homo NN).  Models with other state override this pair.
        Optimizer slots and local shards are deliberately *not*
        checkpointed: they are re-derived on resume, matching a real
        deployment where a restarted client warm-starts from the global
        model.
        """
        if hasattr(self, "weights"):
            return {"weights": np.asarray(self.weights, dtype=np.float64)}
        if hasattr(self, "params"):
            return {name: np.asarray(value, dtype=np.float64)
                    for name, value in self.params.items()}
        raise NotImplementedError(
            f"{type(self).__name__} does not expose checkpointable state")

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        if hasattr(self, "weights"):
            self.weights = np.asarray(state["weights"], dtype=np.float64)
            return
        if hasattr(self, "params"):
            self.params = {name: np.asarray(value, dtype=np.float64)
                           for name, value in state.items()}
            return
        raise NotImplementedError(
            f"{type(self).__name__} does not expose checkpointable state")

    # ------------------------------------------------------------------
    # Shared secure primitives.
    # ------------------------------------------------------------------

    @staticmethod
    def secure_transfer(runtime: FederationRuntime, values: np.ndarray,
                        sender: str, receiver: str, tag: str,
                        scale: float = 1.0) -> np.ndarray:
        """Send a real-valued vector through the encrypted pipeline.

        Encode -> pack -> encrypt at the sender, transfer, decrypt ->
        unpack -> decode at the receiver.  Returns the (quantized) values
        as the receiver sees them, so quantization error propagates into
        training exactly as it would in the real system.

        Args:
            scale: Values are divided by ``scale`` before encoding and
                multiplied back after decoding, so tensors whose range
                exceeds the scheme's ``[-alpha, alpha]`` bound (e.g.
                histogram sums, pre-activations) transfer without
                clipping, at proportionally coarser resolution.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        aggregator = runtime.aggregator
        scaled = np.asarray(values, dtype=np.float64) / scale
        # The tensor remembers the logical shape, so the receiver's
        # decode reshapes without protocol-level bookkeeping.
        tensor = aggregator.encrypt_tensor(scaled, charged=True)
        payload = aggregator.send_tensor(
            tensor, sender=sender, receiver=receiver, tag=tag)
        return aggregator.decrypt_tensor(payload, charged=True) * scale

    # ------------------------------------------------------------------
    # Training loop.
    # ------------------------------------------------------------------

    def train(self, runtime: FederationRuntime, max_epochs: int,
              tolerance: float = CONVERGENCE_TOLERANCE,
              key_bits: Optional[int] = None) -> TrainingTrace:
        """Train until convergence or ``max_epochs`` (paper Sec. VI-B).

        Each epoch gets a fresh ledger; the trace records per-epoch loss,
        modelled seconds, and full reports.
        """
        trace = TrainingTrace(system=runtime.config.name, model=self.name,
                              dataset=self.dataset.name)
        previous_loss: Optional[float] = None
        for _ in range(max_epochs):
            ledger = runtime.begin_epoch()
            loss = self.run_epoch(runtime)
            trace.losses.append(loss)
            trace.epoch_seconds.append(ledger.total_seconds)
            trace.reports.append(EpochReport.from_ledger(
                ledger, system=runtime.config.name, model=self.name,
                dataset=self.dataset.name,
                key_bits=key_bits if key_bits is not None else runtime.key_bits,
                loss=loss))
            if previous_loss is not None and \
                    abs(previous_loss - loss) < tolerance:
                break
            previous_loss = loss
        return trace
