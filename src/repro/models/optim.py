"""Optimizers for plaintext model updates (paper Sec. III-A, Eq. 1).

After the secure pipeline delivers decrypted aggregated gradients, the
local update ``W_{t+1} = W_t - alpha_t * grad`` runs in plaintext.  The
paper trains with Adam [33].
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Optimizer(ABC):
    """Stateful first-order optimizer over a flat parameter array."""

    @abstractmethod
    def step(self, weights: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return updated weights; must not mutate the inputs."""


#: Adam's moment decay rates and denominator guard (Kingma & Ba's).
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class AdamOptimizer(Optimizer):
    """Adam [33] with the paper's default hyperparameters."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, weights: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """One Adam step with bias correction."""
        if self._m is None:
            self._m = np.zeros_like(weights)
            self._v = np.zeros_like(weights)
        self._t += 1
        self._m = BETA1 * self._m + (1 - BETA1) * gradient
        self._v = BETA2 * self._v + (1 - BETA2) * gradient ** 2
        m_hat = self._m / (1 - BETA1 ** self._t)
        v_hat = self._v / (1 - BETA2 ** self._t)
        return weights - self.learning_rate * m_hat / \
            (np.sqrt(v_hat) + EPSILON)
