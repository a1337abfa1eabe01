"""Datasets (paper Sec. VI-A, Table II).

Synthetic replicas of the paper's three evaluation datasets, matching each
one's *shape* -- sparsity pattern, feature-dimension ratios, label balance
-- at a configurable scale, plus the horizontal / vertical partitioners
that produce the homogeneous and heterogeneous federation splits.

- ``rcv1_like``      -- sparse, text-categorization-shaped (RCV1).
- ``avazu_like``     -- very sparse, one-hot CTR-shaped (Avazu).
- ``synthetic_like`` -- the dense LEAF ``synthetic`` generator of Li et
  al. [39], reimplemented from its published recipe.
"""

from repro.datasets.generators import (
    Dataset,
    rcv1_like,
    avazu_like,
    synthetic_like,
    DATASET_GENERATORS,
    PAPER_SCALES,
)
from repro.datasets.partition import (
    horizontal_split,
    vertical_split,
    train_test_split,
    HorizontalPartition,
    VerticalPartition,
)

__all__ = [
    "Dataset",
    "rcv1_like",
    "avazu_like",
    "synthetic_like",
    "DATASET_GENERATORS",
    "PAPER_SCALES",
    "horizontal_split",
    "train_test_split",
    "vertical_split",
    "HorizontalPartition",
    "VerticalPartition",
]
