"""Tests for the four benchmark FL models (convergence + accounting)."""

import numpy as np
import pytest

from repro.datasets.generators import synthetic_like
from repro.experiments.harness import build_model
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    FederationRuntime,
)
from repro.models.hetero_lr import HeteroLogisticRegression
from repro.models.hetero_nn import HeteroNeuralNetwork
from repro.models.hetero_sbt import HeteroSecureBoost
from repro.models.homo_lr import HomoLogisticRegression


@pytest.fixture(scope="module")
def dataset():
    return synthetic_like(instances=192, features=24, seed=3)


def make_runtime(config=FLBOOSTER_SYSTEM, clients=4):
    return FederationRuntime(config, num_clients=clients, key_bits=256,
                             physical_key_bits=256)


class TestRegistry:
    def test_paper_models_plus_extension(self, dataset):
        names = ["Homo LR", "Hetero LR", "Hetero SBT", "Hetero NN",
                 "Homo NN"]
        assert [build_model(name, dataset).name for name in names] == names
        with pytest.raises(KeyError):
            build_model("Linear SVM", dataset)


class TestHomoLr:
    def test_loss_decreases(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4,
                                       batch_size=48, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=6)
        assert trace.losses[-1] < trace.losses[0]

    def test_beats_chance_accuracy(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4,
                                       batch_size=48, seed=0)
        runtime = make_runtime()
        model.train(runtime, max_epochs=8)
        assert model.accuracy() > 0.6

    def test_client_count_mismatch_raises(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4)
        runtime = make_runtime(clients=2)
        with pytest.raises(ValueError):
            model.run_epoch(runtime)

    def test_charges_aggregation_rounds(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4,
                                       rounds_per_epoch=2, seed=0)
        runtime = make_runtime()
        ledger = runtime.begin_epoch()
        model.run_epoch(runtime)
        assert ledger.count("comm.upload.homo_lr.delta") == 8  # 2 rounds x 4

    def test_invalid_rounds_raise(self, dataset):
        with pytest.raises(ValueError):
            HomoLogisticRegression(dataset, rounds_per_epoch=0)


class TestHeteroLr:
    def test_loss_decreases(self, dataset):
        model = HeteroLogisticRegression(dataset, batch_size=48, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=6)
        assert trace.losses[-1] < trace.losses[0] + 0.02
        assert min(trace.losses) < trace.losses[0]

    def test_both_parties_learn(self, dataset):
        model = HeteroLogisticRegression(dataset, batch_size=48, seed=0)
        runtime = make_runtime()
        model.train(runtime, max_epochs=4)
        assert np.any(model.guest_weights != 0)
        assert np.any(model.host_weights != 0)

    def test_two_transfers_per_batch(self, dataset):
        model = HeteroLogisticRegression(dataset, batch_size=48, seed=0)
        runtime = make_runtime()
        ledger = runtime.begin_epoch()
        model.run_epoch(runtime)
        batches = -(-dataset.num_instances // 48)
        assert ledger.count("comm.hetero_lr.forward") == batches
        assert ledger.count("comm.hetero_lr.residual") == batches


class TestHeteroSbt:
    def test_loss_decreases_monotonically(self, dataset):
        model = HeteroSecureBoost(dataset, max_depth=3, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=5)
        assert all(later <= earlier + 1e-9 for earlier, later
                   in zip(trace.losses, trace.losses[1:]))

    def test_strong_accuracy(self, dataset):
        model = HeteroSecureBoost(dataset, max_depth=3, seed=0)
        runtime = make_runtime()
        model.train(runtime, max_epochs=6)
        assert model.accuracy() > 0.8

    def test_one_tree_per_epoch(self, dataset):
        model = HeteroSecureBoost(dataset, max_depth=2, seed=0)
        runtime = make_runtime()
        model.train(runtime, max_epochs=3)
        assert len(model.trees) == 3

    def test_gradient_broadcast_charged(self, dataset):
        model = HeteroSecureBoost(dataset, max_depth=2, seed=0)
        runtime = make_runtime()
        ledger = runtime.begin_epoch()
        model.run_epoch(runtime)
        assert ledger.count("comm.sbt.gradients") == 1
        assert ledger.count("comm.sbt.histograms") >= 1

    def test_uses_both_parties_features(self, dataset):
        model = HeteroSecureBoost(dataset, max_depth=3, seed=0)
        runtime = make_runtime()
        model.train(runtime, max_epochs=6)
        parties = set()
        for tree in model.trees:
            stack = [tree]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    parties.add(node.party)
                    stack.extend([node.left, node.right])
        assert parties <= {"guest", "host"} and parties


class TestHeteroNn:
    def test_loss_decreases(self, dataset):
        model = HeteroNeuralNetwork(dataset, batch_size=48, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=6)
        assert trace.losses[-1] < trace.losses[0]

    def test_beats_chance_accuracy(self, dataset):
        model = HeteroNeuralNetwork(dataset, batch_size=48, seed=0)
        runtime = make_runtime()
        model.train(runtime, max_epochs=8)
        assert model.accuracy() > 0.6

    def test_forward_and_backward_transfers(self, dataset):
        model = HeteroNeuralNetwork(dataset, batch_size=48, seed=0)
        runtime = make_runtime()
        ledger = runtime.begin_epoch()
        model.run_epoch(runtime)
        batches = -(-dataset.num_instances // 48)
        assert ledger.count("comm.hetero_nn.forward") == batches
        assert ledger.count("comm.hetero_nn.backward") == batches


class TestTrainingLoop:
    def test_trace_records_epochs(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=3)
        assert len(trace.losses) == len(trace.epoch_seconds) == \
            len(trace.reports) <= 3
        assert all(seconds > 0 for seconds in trace.epoch_seconds)

    def test_cumulative_seconds_monotone(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=3)
        cumulative = trace.cumulative_seconds
        assert all(b > a for a, b in zip(cumulative, cumulative[1:]))

    def test_convergence_stops_early(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4, seed=0)
        runtime = make_runtime()
        trace = model.train(runtime, max_epochs=50, tolerance=10.0)
        assert len(trace.losses) == 2    # tolerance hit after 2nd epoch

    def test_quantization_noise_visible_under_fate_vs_flbooster(self,
                                                                dataset):
        # FATE path is (near-)lossless; FLBooster quantizes at reduced
        # precision in scaled mode -- losses must differ but stay close.
        fate_model = HomoLogisticRegression(dataset, num_clients=4, seed=0)
        fate_trace = fate_model.train(make_runtime(FATE_SYSTEM),
                                      max_epochs=3)
        flb_model = HomoLogisticRegression(dataset, num_clients=4, seed=0)
        flb_trace = flb_model.train(make_runtime(FLBOOSTER_SYSTEM),
                                    max_epochs=3)
        assert flb_trace.final_loss == \
            pytest.approx(fate_trace.final_loss, abs=0.15)
