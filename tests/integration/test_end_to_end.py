"""End-to-end integration: full training runs through the public API."""

import numpy as np
import pytest

from repro.api.he import FlBooster
from repro.datasets.generators import synthetic_like
from repro.experiments.harness import run_training
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    FederationRuntime,
)
from repro.models.homo_lr import HomoLogisticRegression


class TestFullFidelityTraining:
    """Real 1024-bit keys end to end (the Table VII / Fig. 8 mode)."""

    @pytest.mark.slow
    def test_flbooster_matches_fate_loss_at_full_fidelity(self):
        dataset = synthetic_like(instances=128, features=16, seed=9)
        fate_model = HomoLogisticRegression(dataset, num_clients=4,
                                            batch_size=64, seed=1)
        fate_runtime = FederationRuntime(FATE_SYSTEM, num_clients=4,
                                         key_bits=1024)
        fate_trace = fate_model.train(fate_runtime, max_epochs=3)

        flb_model = HomoLogisticRegression(dataset, num_clients=4,
                                           batch_size=64, seed=1)
        flb_runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                        key_bits=1024)
        flb_trace = flb_model.train(flb_runtime, max_epochs=3)

        # 29-30 quantization bits: convergence bias well under the
        # paper's 5% threshold (Table VII).
        bias = abs(fate_trace.final_loss - flb_trace.final_loss) / \
            fate_trace.final_loss
        assert bias < 0.05


class TestScaledTraining:
    def test_all_models_converge_under_flbooster(self):
        for model_name in ("Homo LR", "Hetero LR", "Hetero SBT",
                           "Hetero NN"):
            trace = run_training(FLBOOSTER_SYSTEM, model_name, "Synthetic",
                                 1024, max_epochs=4,
                                 physical_key_bits=512).trace
            assert min(trace.losses) <= trace.losses[0] + 1e-9, model_name
            assert all(np.isfinite(loss) for loss in trace.losses)

    def test_epoch_times_stable_across_epochs(self):
        trace = run_training(FLBOOSTER_SYSTEM, "Hetero LR", "Synthetic", 1024,
                             max_epochs=3, physical_key_bits=256).trace
        seconds = trace.epoch_seconds
        assert max(seconds) < 2.0 * min(seconds)


class TestPublicApiQuickstart:
    def test_readme_quickstart_path(self):
        fl = FlBooster(seed=5)
        pri, pub = fl.paillier.key_gen(128)
        c = fl.paillier.encrypt(pub, [1, 2, 3])
        doubled = fl.paillier.add(pub, c, c)
        assert fl.paillier.decrypt(pri, doubled) == [2, 4, 6]

    def test_gradient_aggregation_example_path(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=1024, physical_key_bits=512)
        rng = np.random.default_rng(0)
        gradients = [rng.uniform(-0.5, 0.5, 100) for _ in range(4)]
        mean = runtime.aggregator.average(gradients)
        expected = np.mean(gradients, axis=0)
        step = runtime.plan.scheme.quantization_step
        assert np.allclose(mean, expected, atol=4 * step)
