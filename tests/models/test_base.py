"""Tests for the shared model machinery (secure transfer, traces)."""

import numpy as np
import pytest

from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    FederationRuntime,
)
from repro.models.base import CONVERGENCE_TOLERANCE, FederatedModel, \
    TrainingTrace


def make_runtime(config=FLBOOSTER_SYSTEM):
    return FederationRuntime(config, num_clients=4, key_bits=256,
                             physical_key_bits=256)


class TestSecureTransfer:
    def test_roundtrip_preserves_shape(self):
        runtime = make_runtime()
        values = np.linspace(-0.9, 0.9, 24).reshape(6, 4)
        received = FederatedModel.secure_transfer(
            runtime, values, sender="a", receiver="b", tag="t")
        assert received.shape == (6, 4)
        step = runtime.plan.scheme.quantization_step
        assert np.allclose(received, values, atol=step)

    def test_scale_extends_range(self):
        runtime = make_runtime()
        values = np.array([5.0, -3.0, 0.25])
        received = FederatedModel.secure_transfer(
            runtime, values, sender="a", receiver="b", tag="t", scale=8.0)
        step = 8.0 * runtime.plan.scheme.quantization_step
        assert np.allclose(received, values, atol=step)

    def test_without_scale_clips(self):
        runtime = make_runtime()
        values = np.array([5.0])
        received = FederatedModel.secure_transfer(
            runtime, values, sender="a", receiver="b", tag="t")
        assert received[0] == pytest.approx(1.0, abs=0.05)   # clipped

    def test_invalid_scale_raises(self):
        runtime = make_runtime()
        with pytest.raises(ValueError):
            FederatedModel.secure_transfer(runtime, np.zeros(2),
                                           sender="a", receiver="b",
                                           tag="t", scale=0.0)

    def test_charges_comm_and_he(self):
        runtime = make_runtime()
        ledger = runtime.begin_epoch()
        FederatedModel.secure_transfer(runtime, np.zeros(64),
                                       sender="a", receiver="b", tag="leg")
        assert ledger.count("comm.leg") == 1
        assert ledger.seconds("he.encrypt") > 0
        assert ledger.seconds("he.decrypt") > 0

    def test_quantization_error_lossless_under_fate(self):
        runtime = make_runtime(FATE_SYSTEM)
        values = np.array([0.123456789012, -0.98765432101])
        received = FederatedModel.secure_transfer(
            runtime, values, sender="a", receiver="b", tag="t")
        assert np.allclose(received, values, atol=1e-12)


class TestTrainingTrace:
    def test_cumulative_seconds(self):
        trace = TrainingTrace(system="s", model="m", dataset="d",
                              losses=[1.0, 0.5], epoch_seconds=[2.0, 3.0])
        assert trace.cumulative_seconds == [2.0, 5.0]

    def test_final_loss(self):
        trace = TrainingTrace(system="s", model="m", dataset="d",
                              losses=[1.0, 0.4])
        assert trace.final_loss == 0.4

    def test_final_loss_empty_is_nan(self):
        trace = TrainingTrace(system="s", model="m", dataset="d")
        assert np.isnan(trace.final_loss)

    def test_paper_tolerance_constant(self):
        assert CONVERGENCE_TOLERANCE == 1e-6
