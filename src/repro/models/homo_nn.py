"""Homogeneous neural network (beyond the paper's benchmarked four).

The paper claims FLBooster accelerates *all* standard FL models; the four
it benchmarks are Homo LR and three vertical models.  This module adds
the obvious fifth -- a horizontally-federated MLP trained FedAvg-style --
to exercise the platform's generality claim: the entire parameter vector
travels through the same encode -> pack -> encrypt -> aggregate ->
decrypt pipeline as Homo LR, just with far more values per round (which
is exactly the regime where batch compression matters most).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.datasets.generators import Dataset
from repro.datasets.partition import HorizontalPartition, horizontal_split
from repro.federation.metrics import charge_model_compute
from repro.federation.runtime import FederationRuntime
from repro.models.base import FederatedModel
from repro.models.losses import sigmoid
from repro.models.optim import AdamOptimizer

#: Hidden-layer width.
HIDDEN_DIM = 16
#: Local Adam step size.
LEARNING_RATE = 0.02
#: Weight decay.
L2 = 1e-4


class HomoNeuralNetwork(FederatedModel):
    """FedAvg over a one-hidden-layer MLP on horizontal shards.

    Args:
        dataset: The full dataset (split internally).
        num_clients: Participant count.
        batch_size: Local mini-batch size.
        rounds_per_epoch: Secure aggregation rounds per epoch.
        seed: Determinism seed.
    """

    name = "Homo NN"

    def __init__(self, dataset: Dataset, num_clients: int = 4,
                 batch_size: int = 256, rounds_per_epoch: int = 2,
                 seed: int = 0):
        super().__init__(dataset, seed=seed)
        if rounds_per_epoch < 1:
            raise ValueError("need at least one aggregation round per epoch")
        self.num_clients = num_clients
        self.batch_size = batch_size
        self.rounds_per_epoch = rounds_per_epoch
        self._density = max(dataset.density, 1e-6)
        self.partitions: List[HorizontalPartition] = horizontal_split(
            dataset, num_clients, seed=seed)

        def xavier(rows: int, cols: int) -> np.ndarray:
            bound = np.sqrt(6.0 / (rows + cols))
            return self.rng.uniform(-bound, bound, size=(rows, cols))

        self.params: Dict[str, np.ndarray] = {
            "w1": xavier(dataset.num_features, HIDDEN_DIM),
            "b1": np.zeros(HIDDEN_DIM),
            "w2": xavier(HIDDEN_DIM, 1),
            "b2": np.zeros(1),
        }
        self._optimizers = [
            {name: AdamOptimizer(LEARNING_RATE)
             for name in self.params}
            for _ in range(num_clients)
        ]

    # ------------------------------------------------------------------
    # Parameter-vector flattening (the aggregated payload).
    # ------------------------------------------------------------------

    def _flatten(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([params[name].ravel()
                               for name in sorted(params)])

    def _unflatten(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        cursor = 0
        for name in sorted(self.params):
            shape = self.params[name].shape
            size = int(np.prod(shape))
            out[name] = flat[cursor:cursor + size].reshape(shape)
            cursor += size
        return out

    # ------------------------------------------------------------------
    # Training.
    # ------------------------------------------------------------------

    def run_epoch(self, runtime: FederationRuntime) -> float:
        """Local passes + secure delta averaging, per round."""
        if runtime.num_clients != self.num_clients:
            raise ValueError(
                f"runtime built for {runtime.num_clients} clients, model "
                f"has {self.num_clients}")
        base = self._flatten(self.params)
        for _ in range(self.rounds_per_epoch):
            deltas = []
            for client, partition in enumerate(self.partitions):
                local = self._local_update(client, partition)
                deltas.append(self._flatten(local) - base)
                if client == 0:
                    flops = (6.0 * partition.num_instances
                             * self.dataset.num_features * self._density)
                    charge_model_compute(runtime.ledger, flops,
                                         tag="model.homo_nn.local")
            mean_delta = runtime.aggregator.average(
                deltas, tag="homo_nn.delta")
            base = base + mean_delta
            self.params = self._unflatten(base)
        return self.loss()

    def _local_update(self, client: int,
                      partition: HorizontalPartition) -> Dict[str, np.ndarray]:
        params = {name: value.copy() for name, value in self.params.items()}
        optimizers = self._optimizers[client]
        order = self.rng.permutation(partition.num_instances)
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            rows = partition.rows[batch]
            X = self.dataset.features[rows]
            y = self.dataset.labels[rows]
            gradients = self._gradients(params, X, y)
            for name, gradient in gradients.items():
                params[name] = optimizers[name].step(params[name], gradient)
        return params

    def _gradients(self, params: Dict[str, np.ndarray], X: np.ndarray,
                   y: np.ndarray) -> Dict[str, np.ndarray]:
        m = len(y)
        hidden = np.tanh(X @ params["w1"] + params["b1"])
        logits = (hidden @ params["w2"]).ravel() + params["b2"][0]
        d_logits = (sigmoid(logits) - y)[:, None] / m
        grad_w2 = hidden.T @ d_logits + L2 * params["w2"]
        grad_b2 = d_logits.sum(axis=0)
        d_hidden = (d_logits @ params["w2"].T) * (1.0 - hidden ** 2)
        grad_w1 = X.T @ d_hidden + L2 * params["w1"]
        grad_b1 = d_hidden.sum(axis=0)
        return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}

    def _scores(self, features: np.ndarray) -> np.ndarray:
        hidden = np.tanh(features @ self.params["w1"] + self.params["b1"])
        return (hidden @ self.params["w2"]).ravel() + self.params["b2"][0]

    def state_dict(self) -> dict:
        """Every parameter array, by name."""
        return dict(self.params)

    def load_state_dict(self, state: dict) -> None:
        self.params = {name: np.asarray(state[name], dtype=np.float64)
                       for name in self.params}
