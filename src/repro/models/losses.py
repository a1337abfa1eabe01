"""Loss functions and gradients shared by the FL models.

Binary logistic regression throughout, with the Taylor-linearized residual
``d = 0.25 z - 0.5 (2y - 1)`` the vertical protocols use (Hardy et al.
[28]): the quadratic Taylor expansion of the logistic loss around 0 makes
the residual *linear* in the forward sum, which is what lets vertical
parties combine encrypted forward fragments additively.
"""

from __future__ import annotations

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def logistic_loss(z: np.ndarray, y: np.ndarray,
                  weights: np.ndarray | None = None,
                  l2: float = 0.0) -> float:
    """Mean binary cross-entropy of logits ``z`` against labels ``y``.

    Args:
        z: Logits, shape (m,).
        y: Labels in {0, 1}, shape (m,).
        weights: Model weights for the L2 term (optional).
        l2: L2 penalty coefficient (the paper uses 0.01).
    """
    # log(1 + exp(-s)) computed stably via logaddexp.
    signs = 2.0 * y - 1.0
    loss = float(np.mean(np.logaddexp(0.0, -signs * z)))
    if weights is not None and l2 > 0.0:
        loss += 0.5 * l2 * float(np.dot(weights, weights))
    return loss


def logistic_gradient(X: np.ndarray, z: np.ndarray, y: np.ndarray,
                      weights: np.ndarray | None = None,
                      l2: float = 0.0) -> np.ndarray:
    """Exact mean gradient of the logistic loss w.r.t. the weights."""
    residual = sigmoid(z) - y
    gradient = X.T @ residual / len(y)
    if weights is not None and l2 > 0.0:
        gradient = gradient + l2 * weights
    return gradient


def taylor_gradient(X: np.ndarray, d: np.ndarray,
                    weights: np.ndarray | None = None,
                    l2: float = 0.0) -> np.ndarray:
    """Gradient from a (possibly received) Taylor residual ``d``."""
    gradient = X.T @ d / len(d)
    if weights is not None and l2 > 0.0:
        gradient = gradient + l2 * weights
    return gradient


def gbdt_gradients(z: np.ndarray, y: np.ndarray) -> tuple:
    """First and second order gradients for logistic GBDT (SecureBoost).

    Returns ``(g, h)`` with ``g = sigmoid(z) - y`` and
    ``h = sigmoid(z) (1 - sigmoid(z))``.
    """
    probabilities = sigmoid(z)
    g = probabilities - y
    h = probabilities * (1.0 - probabilities)
    return g, h
