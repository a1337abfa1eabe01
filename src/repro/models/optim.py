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


class AdamOptimizer(Optimizer):
    """Adam [33] with the paper's default hyperparameters."""

    def __init__(self, learning_rate: float = 0.1, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, weights: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """One Adam step with bias correction."""
        if self._m is None:
            self._m = np.zeros_like(weights)
            self._v = np.zeros_like(weights)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * gradient
        self._v = self.beta2 * self._v + (1 - self.beta2) * gradient ** 2
        m_hat = self._m / (1 - self.beta1 ** self._t)
        v_hat = self._v / (1 - self.beta2 ** self._t)
        return weights - self.learning_rate * m_hat / \
            (np.sqrt(v_hat) + self.epsilon)
