"""Tests for losses, gradients and the Taylor linearization."""

import numpy as np
import pytest

from repro.models.losses import (
    gbdt_gradients,
    logistic_gradient,
    logistic_loss,
    sigmoid,
    taylor_gradient,
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)

    def test_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))


class TestLogisticLoss:
    def test_perfect_predictions_low_loss(self):
        z = np.array([10.0, -10.0])
        y = np.array([1.0, 0.0])
        assert logistic_loss(z, y) < 1e-4

    def test_chance_level(self):
        z = np.zeros(4)
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert logistic_loss(z, y) == pytest.approx(np.log(2))

    def test_l2_term(self):
        z = np.zeros(2)
        y = np.array([0.0, 1.0])
        w = np.array([2.0, 0.0])
        with_l2 = logistic_loss(z, y, weights=w, l2=0.1)
        assert with_l2 == pytest.approx(np.log(2) + 0.5 * 0.1 * 4.0)

    def test_extreme_logits_finite(self):
        assert np.isfinite(logistic_loss(np.array([1e5, -1e5]),
                                         np.array([0.0, 1.0])))


class TestLogisticGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        y = (rng.random(40) > 0.5).astype(float)
        w = rng.normal(size=5) * 0.1
        analytic = logistic_gradient(X, X @ w, y, weights=w, l2=0.01)
        eps = 1e-6
        for j in range(5):
            w_plus, w_minus = w.copy(), w.copy()
            w_plus[j] += eps
            w_minus[j] -= eps
            numeric = (logistic_loss(X @ w_plus, y, w_plus, 0.01)
                       - logistic_loss(X @ w_minus, y, w_minus, 0.01)) \
                / (2 * eps)
            assert analytic[j] == pytest.approx(numeric, abs=1e-5)

    def test_zero_at_optimum_direction(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([0.0, 1.0])
        gradient = logistic_gradient(X, X @ np.zeros(1), y)
        assert gradient[0] == pytest.approx(0.0)


class TestTaylorResidual:
    def test_taylor_gradient_shape_and_l2(self):
        X = np.ones((4, 3))
        d = np.full(4, 0.5)
        w = np.ones(3)
        gradient = taylor_gradient(X, d, weights=w, l2=0.1)
        assert gradient.shape == (3,)
        assert np.allclose(gradient, 0.5 + 0.1)


class TestGbdtGradients:
    def test_values(self):
        z = np.array([0.0])
        y = np.array([1.0])
        g, h = gbdt_gradients(z, y)
        assert g[0] == pytest.approx(-0.5)
        assert h[0] == pytest.approx(0.25)

    def test_hessian_positive(self):
        z = np.linspace(-10, 10, 21)
        _, h = gbdt_gradients(z, np.zeros(21))
        assert np.all(h > 0)

    def test_gradient_sign_tracks_error(self):
        z = np.array([2.0, -2.0])
        y = np.array([0.0, 1.0])
        g, _ = gbdt_gradients(z, y)
        assert g[0] > 0 and g[1] < 0
