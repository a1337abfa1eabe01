"""Homogeneous logistic regression (paper's Homo LR [28]).

Horizontal federation: every client holds the full feature space over its
own instances.  Each epoch the clients run local mini-batch updates and
the resulting *model deltas* are securely averaged through the
encode -> pack -> encrypt -> aggregate -> decrypt pipeline (paper Fig. 2),
several aggregation rounds per epoch.

The quantized global model the clients decode is what they continue from,
so quantization error feeds back into training exactly as in the real
system (measured by the convergence-bias experiment, Table VII).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datasets.generators import Dataset
from repro.datasets.partition import HorizontalPartition, horizontal_split
from repro.federation.metrics import charge_model_compute
from repro.federation.runtime import FederationRuntime
from repro.models.base import FederatedModel
from repro.models.losses import logistic_gradient, logistic_loss
from repro.models.optim import AdamOptimizer, Optimizer

#: Local Adam step size.
LEARNING_RATE = 0.1
#: L2 penalty (the paper's 0.01).
L2 = 0.01


class HomoLogisticRegression(FederatedModel):
    """FedAvg-style logistic regression over horizontal shards.

    Args:
        dataset: The full dataset (split internally).
        num_clients: Participant count.
        batch_size: Local mini-batch size (paper default 1024).
        rounds_per_epoch: Secure aggregation rounds per epoch.
        seed: Determinism seed.
    """

    name = "Homo LR"

    def __init__(self, dataset: Dataset, num_clients: int = 4,
                 batch_size: int = 256, rounds_per_epoch: int = 2,
                 seed: int = 0):
        super().__init__(dataset, seed=seed)
        if rounds_per_epoch < 1:
            raise ValueError("need at least one aggregation round per epoch")
        self.num_clients = num_clients
        self.batch_size = batch_size
        self.rounds_per_epoch = rounds_per_epoch
        self.partitions: List[HorizontalPartition] = horizontal_split(
            dataset, num_clients, seed=seed)
        self.weights = np.zeros(dataset.num_features)
        self._optimizers: List[Optimizer] = [
            AdamOptimizer(LEARNING_RATE)
            for _ in range(num_clients)
        ]

    def run_epoch(self, runtime: FederationRuntime) -> float:
        """One epoch: local updates + secure delta averaging per round."""
        if runtime.num_clients != self.num_clients:
            raise ValueError(
                f"runtime built for {runtime.num_clients} clients, model "
                f"has {self.num_clients}")
        for round_index in range(self.rounds_per_epoch):
            deltas = []
            for client, partition in enumerate(self.partitions):
                local = self._local_update(client, partition, round_index)
                deltas.append(local - self.weights)
                if client == 0:
                    # Sparse-aware: gradient passes touch nnz cells only.
                    flops = (4.0 * partition.num_instances
                             * self.dataset.num_features
                             * max(self.dataset.density, 1e-6))
                    charge_model_compute(runtime.ledger, flops,
                                         tag="model.homo_lr.local")
            mean_delta = runtime.aggregator.average(
                deltas, tag="homo_lr.delta")
            self.weights = self.weights + mean_delta
        return self.loss()

    def _local_update(self, client: int, partition: HorizontalPartition,
                      round_index: int) -> np.ndarray:
        """Run one local pass of mini-batch steps from the global model."""
        weights = self.weights.copy()
        order = self.rng.permutation(partition.num_instances)
        optimizer = self._optimizers[client]
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            rows = partition.rows[batch]
            X = self.dataset.features[rows]
            y = self.dataset.labels[rows]
            gradient = logistic_gradient(X, X @ weights, y,
                                         weights=weights, l2=L2)
            weights = optimizer.step(weights, gradient)
        return weights

    def state_dict(self) -> dict:
        """The global weight vector."""
        return {"weights": self.weights}

    def load_state_dict(self, state: dict) -> None:
        self.weights = np.asarray(state["weights"], dtype=np.float64)

    def _scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights

    def loss(self) -> float:
        """Global training loss, with the L2 penalty on the weights."""
        return logistic_loss(self.predict_scores(*self.training_blocks),
                             self.dataset.labels, weights=self.weights,
                             l2=L2)
