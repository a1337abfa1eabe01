"""The four benchmark FL models (paper Sec. VI-A).

- :mod:`repro.models.homo_lr` -- homogeneous logistic regression [28]:
  horizontal split, FedAvg-style secure gradient aggregation.
- :mod:`repro.models.hetero_lr` -- heterogeneous logistic regression [11]:
  vertical split, encrypted forward-sum / residual exchange.
- :mod:`repro.models.hetero_sbt` -- heterogeneous SecureBoost [17]:
  vertical gradient boosting with encrypted gradient/histogram exchange.
- :mod:`repro.models.hetero_nn` -- heterogeneous neural network [71]:
  split network with an encrypted interactive layer.

All models run their numerics for real (losses are genuine) and route
every cross-party tensor through the secure pipeline
(encode -> pack -> encrypt -> transfer -> decrypt), so HE-operation and
communication counts respond to the system configuration exactly as the
paper's do.  DESIGN.md documents where the cipher-domain per-element
computations of the original vertical protocols are replaced by
masked-transfer equivalents with matching operation counts.
"""

from repro.models.base import FederatedModel, TrainingTrace
from repro.models.optim import AdamOptimizer
from repro.models.losses import (
    sigmoid,
    logistic_loss,
    logistic_gradient,
)
from repro.models.homo_lr import HomoLogisticRegression
from repro.models.hetero_lr import HeteroLogisticRegression
from repro.models.hetero_sbt import HeteroSecureBoost
from repro.models.hetero_nn import HeteroNeuralNetwork
from repro.models.homo_nn import HomoNeuralNetwork

#: Name -> class, for the benchmark sweeps.  "Homo NN" is a
#: beyond-the-paper extension (the paper benchmarks the first four).
MODEL_REGISTRY = {
    "Homo LR": HomoLogisticRegression,
    "Hetero LR": HeteroLogisticRegression,
    "Hetero SBT": HeteroSecureBoost,
    "Hetero NN": HeteroNeuralNetwork,
    "Homo NN": HomoNeuralNetwork,
}

__all__ = [
    "FederatedModel",
    "TrainingTrace",
    "AdamOptimizer",
    "sigmoid",
    "logistic_loss",
    "logistic_gradient",
    "HomoLogisticRegression",
    "HeteroLogisticRegression",
    "HeteroSecureBoost",
    "HeteroNeuralNetwork",
    "HomoNeuralNetwork",
    "MODEL_REGISTRY",
]
