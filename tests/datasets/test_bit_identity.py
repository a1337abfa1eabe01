"""One copy of the data reads exactly the values the per-client copies held.

The references below are the earlier data layer, kept verbatim: the
out-of-place standardization of ``synthetic_like``, partitions that
copied each client's rows, and local passes that read mini-batches from
those copies.  The generator, the partitions and two epochs of Homo LR
and Homo NN training must match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import pytest

from repro.datasets.generators import _labels_from_logits, synthetic_like
from repro.datasets.partition import horizontal_split
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.models.homo_lr import L2, HomoLogisticRegression
from repro.models.homo_nn import HomoNeuralNetwork
from repro.models.losses import logistic_gradient
from repro.rng import np_rng


def reference_synthetic(instances, features, alpha=1.0, beta=1.0, seed=0):
    """``synthetic_like``'s arrays as the out-of-place expression made them."""
    rng = np_rng(seed)
    b = rng.normal(0.0, beta)
    mean_v = rng.normal(b, 1.0, size=features)
    diag = np.arange(1, features + 1, dtype=np.float64) ** -1.2
    matrix = rng.normal(loc=mean_v, scale=np.sqrt(diag),
                        size=(instances, features))
    matrix = (matrix - matrix.mean(axis=0)) / (matrix.std(axis=0) + 1e-8)
    u = rng.normal(0.0, alpha)
    truth = rng.normal(u, 1.0, size=features)
    labels = _labels_from_logits(matrix @ truth / np.sqrt(features) * 3.0,
                                 rng)
    return matrix, labels


@dataclass(frozen=True)
class CopiedPartition:
    """A client's shard holding copies of its rows, as partitions once did."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray

    @property
    def num_instances(self) -> int:
        return self.features.shape[0]


def copied_split(dataset, num_clients, seed=0):
    rng = np_rng(seed)
    order = rng.permutation(dataset.num_instances)
    shards = np.array_split(order, num_clients)
    return [
        CopiedPartition(
            client_id=index,
            features=dataset.features[shard],
            labels=dataset.labels[shard],
        )
        for index, shard in enumerate(shards)
    ]


class CopiedHomoLR(HomoLogisticRegression):
    """Homo LR whose clients train on copies of their rows."""

    def __init__(self, dataset, num_clients, seed):
        super().__init__(dataset, num_clients=num_clients, seed=seed)
        self.partitions = copied_split(dataset, num_clients, seed=seed)

    def _local_update(self, client: int, partition: CopiedPartition,
                      round_index: int) -> np.ndarray:
        weights = self.weights.copy()
        order = self.rng.permutation(partition.num_instances)
        optimizer = self._optimizers[client]
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            X = partition.features[batch]
            y = partition.labels[batch]
            gradient = logistic_gradient(X, X @ weights, y,
                                         weights=weights, l2=L2)
            weights = optimizer.step(weights, gradient)
        return weights


class CopiedHomoNN(HomoNeuralNetwork):
    """Homo NN whose clients train on copies of their rows."""

    def __init__(self, dataset, num_clients, seed):
        super().__init__(dataset, num_clients=num_clients, seed=seed)
        self.partitions = copied_split(dataset, num_clients, seed=seed)

    def _local_update(self, client: int,
                      partition: CopiedPartition) -> Dict[str, np.ndarray]:
        params = {name: value.copy() for name, value in self.params.items()}
        optimizers = self._optimizers[client]
        order = self.rng.permutation(partition.num_instances)
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            X = partition.features[batch]
            y = partition.labels[batch]
            gradients = self._gradients(params, X, y)
            for name, gradient in gradients.items():
                params[name] = optimizers[name].step(params[name], gradient)
        return params


@pytest.mark.parametrize("instances, features, seed", [
    (1024, 1024, 7),   # a whole number of column blocks
    (256, 32, 3),      # fewer columns than one block
    (400, 300, 13),    # a partial last block
    (1, 5, 0),         # one row
    (64, 65, 1),       # a lone trailing column folded into the only block
    (64, 129, 2),      # ... and into the block after a whole one
])
def test_synthetic_matches_out_of_place_standardization(instances, features,
                                                         seed):
    dataset = synthetic_like(instances, features, seed=seed)
    matrix, labels = reference_synthetic(instances, features, seed=seed)
    assert dataset.features.tobytes() == matrix.tobytes()
    assert dataset.labels.tobytes() == labels.tobytes()


def test_row_indices_reproduce_copied_partitions():
    dataset = synthetic_like(103, 8, seed=4)
    for part, copied in zip(horizontal_split(dataset, 4, seed=5),
                            copied_split(dataset, 4, seed=5)):
        assert part.client_id == copied.client_id
        assert part.num_instances == copied.num_instances
        assert dataset.features[part.rows].tobytes() == \
            copied.features.tobytes()
        assert dataset.labels[part.rows].tobytes() == \
            copied.labels.tobytes()


def train_two_epochs(model):
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                key_bits=256, physical_key_bits=256)
    for _ in range(2):
        model.run_epoch(runtime)
    return model


def test_homo_lr_trains_identically_on_row_indices():
    dataset = synthetic_like(256, 32, seed=3)
    model = train_two_epochs(HomoLogisticRegression(dataset, num_clients=4,
                                                    seed=3))
    reference = train_two_epochs(CopiedHomoLR(dataset, num_clients=4, seed=3))
    assert np.any(model.weights)
    assert model.weights.tobytes() == reference.weights.tobytes()


def test_homo_nn_trains_identically_on_row_indices():
    dataset = synthetic_like(256, 32, seed=3)
    model = train_two_epochs(HomoNeuralNetwork(dataset, num_clients=4,
                                               seed=3))
    reference = train_two_epochs(CopiedHomoNN(dataset, num_clients=4, seed=3))
    assert sorted(model.params) == sorted(reference.params)
    for name, value in model.params.items():
        assert value.tobytes() == reference.params[name].tobytes(), name
