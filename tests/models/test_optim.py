"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.models.optim import AdamOptimizer


def quadratic_gradient(w):
    return 2.0 * (w - 3.0)      # minimum at w == 3


class TestAdam:
    def test_converges_on_quadratic(self):
        optimizer = AdamOptimizer(learning_rate=0.2)
        w = np.array([0.0])
        for _ in range(300):
            w = optimizer.step(w, quadratic_gradient(w))
        assert w[0] == pytest.approx(3.0, abs=1e-3)

    def test_first_step_magnitude_is_learning_rate(self):
        # With bias correction the first Adam step is ~lr * sign(grad).
        optimizer = AdamOptimizer(learning_rate=0.5)
        w = optimizer.step(np.array([0.0]), np.array([123.0]))
        assert w[0] == pytest.approx(-0.5, rel=1e-6)

    def test_per_coordinate_scaling(self):
        optimizer = AdamOptimizer(learning_rate=0.1)
        w = optimizer.step(np.zeros(2), np.array([100.0, 0.001]))
        # Both coordinates move ~lr despite wildly different gradients.
        assert abs(w[0]) == pytest.approx(abs(w[1]), rel=1e-3)

    def test_state_independent_instances(self):
        a = AdamOptimizer(learning_rate=0.1)
        b = AdamOptimizer(learning_rate=0.1)
        a.step(np.zeros(1), np.ones(1))
        w_b = b.step(np.zeros(1), np.ones(1))
        assert w_b[0] == pytest.approx(-0.1, rel=1e-6)

    def test_invalid_learning_rate_raises(self):
        with pytest.raises(ValueError):
            AdamOptimizer(learning_rate=-0.1)
