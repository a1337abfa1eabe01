"""Synthetic dataset generators matching the paper's Table II shapes.

The paper evaluates on RCV1 (677,399 x 47,236, sparse NLP), Avazu
(1,719,304 x 1,000,000, extremely sparse CTR) and the LEAF ``synthetic``
benchmark (100,000 x 10,000, dense).  Real RCV1/Avazu cannot ship with the
repository, so each generator reproduces the property that drives the
paper's results -- the gradient-vector dimensionality and the sparsity
pattern -- at laptop scale, with the paper-scale dimensions recorded in
:data:`PAPER_SCALES` so benchmarks can extrapolate operation counts.

All generators are deterministic given a seed and produce linearly
separable-ish binary tasks so the four FL models genuinely converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.rng import np_rng


@dataclass(frozen=True)
class Dataset:
    """A supervised binary-classification dataset.

    Attributes:
        name: Display name.
        features: Dense feature matrix, shape (instances, dims).
        labels: Binary labels in {0, 1}, shape (instances,).
        density: Fraction of non-zero feature entries.
        paper_instances / paper_features: The paper-scale dimensions this
            dataset stands in for, used by the extrapolation helpers.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray
    density: float
    paper_instances: int
    paper_features: int

    @property
    def num_instances(self) -> int:
        """Rows in the scaled dataset."""
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        """Columns in the scaled dataset."""
        return self.features.shape[1]


#: Paper-scale dimensions from Table II.
PAPER_SCALES: Dict[str, Tuple[int, int]] = {
    "RCV1": (677_399, 47_236),
    "Avazu": (1_719_304, 1_000_000),
    "Synthetic": (100_000, 10_000),
}


def _labels_from_logits(logits: np.ndarray, rng: np.random.Generator,
                        noise: float = 0.1) -> np.ndarray:
    """Draw binary labels from a logistic model with label noise."""
    probabilities = 1.0 / (1.0 + np.exp(-logits))
    labels = (probabilities > 0.5).astype(np.float64)
    flip = rng.random(len(labels)) < noise
    labels[flip] = 1.0 - labels[flip]
    return labels


def rcv1_like(instances: int = 1024, features: int = 512,
              density: float = 0.04, seed: int = 0) -> Dataset:
    """Sparse text-categorization-shaped data (RCV1 stand-in).

    TF-IDF-like features: each document activates a power-law-distributed
    subset of terms with log-normal weights.
    """
    rng = np_rng(seed)
    matrix = np.zeros((instances, features))
    nnz_per_row = max(1, int(density * features))
    # Power-law term popularity, the signature of text data.
    popularity = 1.0 / np.arange(1, features + 1) ** 0.8
    popularity /= popularity.sum()
    for row in range(instances):
        active = rng.choice(features, size=nnz_per_row, replace=False,
                            p=popularity)
        matrix[row, active] = rng.lognormal(mean=0.0, sigma=0.4,
                                            size=nnz_per_row)
    # Row-normalize like TF-IDF vectors.
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    matrix /= norms
    truth = rng.normal(size=features) / np.sqrt(nnz_per_row)
    labels = _labels_from_logits(matrix @ truth * 4.0, rng)
    paper_rows, paper_dims = PAPER_SCALES["RCV1"]
    return Dataset(name="RCV1", features=matrix, labels=labels,
                   density=float((matrix != 0).mean()),
                   paper_instances=paper_rows, paper_features=paper_dims)


def avazu_like(instances: int = 1024, features: int = 1024,
               fields: int = 16, seed: int = 0) -> Dataset:
    """One-hot CTR-shaped data (Avazu stand-in).

    Each instance activates exactly one feature per categorical field --
    the structure of hashed CTR data -- giving extreme sparsity with
    binary values.
    """
    rng = np_rng(seed)
    if features % fields != 0:
        raise ValueError("features must divide evenly into fields")
    per_field = features // fields
    matrix = np.zeros((instances, features))
    # Skewed category popularity inside each field.
    weights = 1.0 / np.arange(1, per_field + 1)
    weights /= weights.sum()
    for field_index in range(fields):
        categories = rng.choice(per_field, size=instances, p=weights)
        matrix[np.arange(instances),
               field_index * per_field + categories] = 1.0
    truth = rng.normal(size=features)
    labels = _labels_from_logits(matrix @ truth / np.sqrt(fields) * 3.0, rng)
    paper_rows, paper_dims = PAPER_SCALES["Avazu"]
    return Dataset(name="Avazu", features=matrix, labels=labels,
                   density=float((matrix != 0).mean()),
                   paper_instances=paper_rows, paper_features=paper_dims)


def synthetic_like(instances: int = 1024, features: int = 64,
                   alpha: float = 1.0, beta: float = 1.0,
                   seed: int = 0) -> Dataset:
    """The LEAF ``synthetic(alpha, beta)`` generator of Li et al. [39].

    Dense Gaussian features with diagonal covariance ``Sigma_jj =
    j^{-1.2}``, a Gaussian ground-truth model drawn per the ``alpha``
    heterogeneity parameter, and logistic labels -- the recipe of the
    LEAF benchmark the paper's Synthetic dataset comes from.
    """
    rng = np_rng(seed)
    b = rng.normal(0.0, beta)
    mean_v = rng.normal(b, 1.0, size=features)
    diag = np.arange(1, features + 1, dtype=np.float64) ** -1.2
    matrix = rng.normal(loc=mean_v, scale=np.sqrt(diag),
                        size=(instances, features))
    # Standardize so gradients respect the quantization bound; labels are
    # drawn from the standardized features so an intercept-free linear
    # model can realize the ground truth.
    matrix = (matrix - matrix.mean(axis=0)) / (matrix.std(axis=0) + 1e-8)
    u = rng.normal(0.0, alpha)
    truth = rng.normal(u, 1.0, size=features)
    labels = _labels_from_logits(matrix @ truth / np.sqrt(features) * 3.0,
                                 rng)
    paper_rows, paper_dims = PAPER_SCALES["Synthetic"]
    return Dataset(name="Synthetic", features=matrix, labels=labels,
                   density=1.0,
                   paper_instances=paper_rows, paper_features=paper_dims)


#: Name -> generator, for sweep harnesses.
DATASET_GENERATORS: Dict[str, Callable[..., Dataset]] = {
    "RCV1": rcv1_like,
    "Avazu": avazu_like,
    "Synthetic": synthetic_like,
}
