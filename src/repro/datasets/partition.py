"""Federation partitioners (paper Sec. VI-A, "Benchmark FL Models").

The paper: "For the homogeneous model, we horizontally divide three
datasets into subsets of the same number of data instances where each
participant shares the same feature space but is different in samples.
For heterogeneous models, we vertically divide three datasets into subsets
of the same number of features, where each participant shares the same
sample ID space but differs in feature space."

A horizontal partition is the client's row indices into the one dataset,
not a copy of its rows: a client reads its samples as
``dataset.features[partition.rows]`` from the shared, read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.datasets.generators import Dataset
from repro.rng import np_rng


@dataclass(frozen=True)
class HorizontalPartition:
    """One client's horizontal shard: same features, disjoint samples.

    ``rows`` indexes the split dataset's ``features`` and ``labels``.
    """

    client_id: int
    rows: np.ndarray

    @property
    def num_instances(self) -> int:
        """Rows owned by this client."""
        return len(self.rows)


@dataclass(frozen=True)
class VerticalPartition:
    """One party's vertical shard: same samples, disjoint features.

    Only the guest (``has_labels=True``) holds the labels, per the
    standard vertical-FL trust model.
    """

    party_id: int
    features: np.ndarray
    labels: np.ndarray | None
    has_labels: bool

    @property
    def num_features(self) -> int:
        """Columns owned by this party."""
        return self.features.shape[1]


def train_test_split(dataset: Dataset, test_fraction: float = 0.2,
                     seed: int = 0):
    """Split a dataset into (train, test) :class:`Dataset` pair.

    The split shuffles instances; both halves keep the parent's metadata
    (paper-scale dimensions, name) so downstream accounting still works.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np_rng(seed)
    order = rng.permutation(dataset.num_instances)
    test_count = max(1, int(round(test_fraction * dataset.num_instances)))
    if test_count >= dataset.num_instances:
        raise ValueError("test fraction leaves no training data")
    test_rows = order[:test_count]
    train_rows = order[test_count:]

    def subset(rows: np.ndarray) -> Dataset:
        return Dataset(name=dataset.name,
                       features=dataset.features[rows],
                       labels=dataset.labels[rows],
                       density=dataset.density,
                       paper_instances=dataset.paper_instances,
                       paper_features=dataset.paper_features)

    return subset(train_rows), subset(test_rows)


def horizontal_split(dataset: Dataset, num_clients: int,
                     seed: int = 0) -> List[HorizontalPartition]:
    """Split instances evenly across ``num_clients`` (homogeneous FL)."""
    if num_clients < 1:
        raise ValueError("need at least one client")
    if dataset.num_instances < num_clients:
        raise ValueError(
            f"{dataset.num_instances} instances cannot cover "
            f"{num_clients} clients")
    rng = np_rng(seed)
    order = rng.permutation(dataset.num_instances)
    shards = np.array_split(order, num_clients)
    return [HorizontalPartition(client_id=index, rows=shard)
            for index, shard in enumerate(shards)]


def vertical_split(dataset: Dataset, num_parties: int = 2,
                   guest_fraction: float | None = None,
                   seed: int = 0) -> List[VerticalPartition]:
    """Split features across parties (heterogeneous FL).

    Party 0 is the guest and keeps the labels.  With ``guest_fraction``
    the guest receives that share of the features; otherwise features are
    divided evenly (the paper's "subsets of the same number of features").
    """
    if num_parties < 2:
        raise ValueError("vertical FL needs at least two parties")
    if dataset.num_features < num_parties:
        raise ValueError(
            f"{dataset.num_features} features cannot cover "
            f"{num_parties} parties")
    rng = np_rng(seed)
    order = rng.permutation(dataset.num_features)
    if guest_fraction is not None:
        if not 0 < guest_fraction < 1:
            raise ValueError("guest_fraction must be in (0, 1)")
        guest_count = max(1, int(round(guest_fraction * dataset.num_features)))
        shards = [order[:guest_count]]
        shards.extend(np.array_split(order[guest_count:], num_parties - 1))
    else:
        shards = np.array_split(order, num_parties)
    partitions: List[VerticalPartition] = []
    for index, shard in enumerate(shards):
        is_guest = index == 0
        partitions.append(VerticalPartition(
            party_id=index,
            features=dataset.features[:, np.sort(shard)],
            labels=dataset.labels if is_guest else None,
            has_labels=is_guest,
        ))
    return partitions
