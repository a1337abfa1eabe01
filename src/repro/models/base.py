"""Common machinery for the four benchmark FL models.

Every model implements :meth:`FederatedModel.run_epoch` against a
:class:`~repro.federation.runtime.FederationRuntime`; the shared pieces
here are the secure point-to-point transfer (the vertical protocols'
workhorse), the convergence-driven training loop of Sec. VI-B ("if the
loss difference between two successive epochs is less than 1e-6, the model
reaches convergence"), the loss/time trace the convergence figures read,
the learnable-state pair every model defines for checkpoints and
saved models, and the one scoring path: training loss, training accuracy
and predictions on unseen rows all come from
:meth:`FederatedModel.predict_scores`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro.datasets.generators import Dataset
from repro.federation.metrics import EpochReport
from repro.federation.runtime import FederationRuntime
from repro.ledger import CostLedger
from repro.models.evaluation import binary_accuracy
from repro.models.losses import logistic_loss
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

    # ------------------------------------------------------------------
    # Scoring: one path for loss, accuracy and prediction.
    # ------------------------------------------------------------------

    @property
    def training_blocks(self) -> Tuple[np.ndarray, ...]:
        """The training rows as one feature block per party, in the order
        :meth:`predict_scores` takes them.  A horizontal model has one
        block, the whole dataset; a vertical model overrides this."""
        return (self.dataset.features,)

    @abstractmethod
    def _scores(self, *blocks: np.ndarray) -> np.ndarray:
        """Logits for row-aligned float64 blocks :meth:`predict_scores`
        has checked against :attr:`training_blocks`."""

    def predict_scores(self, *blocks: np.ndarray) -> np.ndarray:
        """Logits for (possibly unseen) rows, one feature block per party.

        Each block's columns are in its party's training order (a
        vertical split of new rows with the model's seed lines them up).
        """
        training = self.training_blocks
        if len(blocks) != len(training):
            raise ValueError(f"expected {len(training)} feature blocks, "
                             f"got {len(blocks)}")
        blocks = tuple(np.asarray(block, dtype=np.float64)
                       for block in blocks)
        for block, seen in zip(blocks, training):
            if block.ndim != 2 or block.shape[1] != seen.shape[1]:
                raise ValueError("feature block does not match the "
                                 "partition it stands for")
            if block.shape[0] != blocks[0].shape[0]:
                raise ValueError("party blocks must align on rows")
        return self._scores(*blocks)

    def predict(self, *blocks: np.ndarray) -> np.ndarray:
        """Binary predictions (1.0 where the logit is positive)."""
        return (self.predict_scores(*blocks) > 0).astype(np.float64)

    def loss(self) -> float:
        """Global training loss of the current model."""
        return logistic_loss(self.predict_scores(*self.training_blocks),
                             self.dataset.labels)

    def accuracy(self) -> float:
        """Global training accuracy: the share of :meth:`predict`'s labels
        that are right."""
        return binary_accuracy(self.predict(*self.training_blocks),
                               self.dataset.labels)

    # ------------------------------------------------------------------
    # Learnable state: what checkpoints and saved models hold.
    # ------------------------------------------------------------------

    @abstractmethod
    def state_dict(self) -> dict:
        """The model's complete learnable state as name -> float array.

        Checkpoints (:class:`~repro.experiments.harness.TrainingCheckpoint`)
        and saved models (:func:`~repro.models.evaluation.save_model_state`)
        hold exactly this.  Optimizer slots, data partitions and bin edges
        are deliberately *not* state: a fresh model over the same dataset
        and seed re-derives them, matching a real deployment where a
        restarted client warm-starts from the global model.
        """

    @abstractmethod
    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (arrays or nested lists)."""

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

    def epochs(self, runtime: FederationRuntime, trace: TrainingTrace,
               max_epochs: int, tolerance: float) -> Iterator[CostLedger]:
        """Train until convergence or ``max_epochs`` (paper Sec. VI-B).

        Continues ``trace`` from the epochs it already records (a resumed
        run restores them from a checkpoint).  Each epoch gets a fresh
        ledger; once the epoch is recorded in ``trace`` its ledger is
        yielded, so a caller can checkpoint between epochs.
        """
        previous_loss = trace.losses[-1] if trace.losses else None
        for _ in range(len(trace.losses), max_epochs):
            ledger = runtime.begin_epoch()
            loss = self.run_epoch(runtime)
            trace.losses.append(loss)
            trace.epoch_seconds.append(ledger.total_seconds)
            trace.reports.append(EpochReport.from_ledger(
                ledger, system=runtime.config.name, model=self.name,
                dataset=self.dataset.name, key_bits=runtime.key_bits,
                loss=loss))
            yield ledger
            if previous_loss is not None and \
                    abs(previous_loss - loss) < tolerance:
                return
            previous_loss = loss

    def train(self, runtime: FederationRuntime, max_epochs: int,
              tolerance: float = CONVERGENCE_TOLERANCE) -> TrainingTrace:
        """Run :meth:`epochs` to the end; returns the trace."""
        trace = TrainingTrace(system=runtime.config.name, model=self.name,
                              dataset=self.dataset.name)
        for _ in self.epochs(runtime, trace, max_epochs, tolerance):
            pass
        return trace
