"""Tests for the Homo NN extension model."""

import numpy as np
import pytest

from repro.datasets.generators import synthetic_like
from repro.datasets.partition import train_test_split
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    FederationRuntime,
)
from repro.models.homo_nn import HomoNeuralNetwork


@pytest.fixture(scope="module")
def dataset():
    return synthetic_like(instances=192, features=24, seed=5)


def make_runtime(config=FLBOOSTER_SYSTEM):
    return FederationRuntime(config, num_clients=4, key_bits=256,
                             physical_key_bits=256)


class TestTraining:
    def test_loss_decreases(self, dataset):
        model = HomoNeuralNetwork(dataset, num_clients=4, batch_size=48,
                                  seed=0)
        trace = model.train(make_runtime(), max_epochs=5)
        assert trace.losses[-1] < trace.losses[0]

    def test_beats_chance(self, dataset):
        model = HomoNeuralNetwork(dataset, num_clients=4, batch_size=48,
                                  seed=0)
        model.train(make_runtime(), max_epochs=6)
        assert model.accuracy() > 0.7

    def test_full_parameter_vector_aggregated(self, dataset):
        model = HomoNeuralNetwork(dataset, num_clients=4, seed=0)
        runtime = make_runtime()
        ledger = runtime.begin_epoch()
        model.run_epoch(runtime)
        per_round_uploads = 4          # one per client
        assert ledger.count("comm.upload.homo_nn.delta") == \
            per_round_uploads * model.rounds_per_epoch

    def test_client_count_mismatch_raises(self, dataset):
        model = HomoNeuralNetwork(dataset, num_clients=4, seed=0)
        with pytest.raises(ValueError):
            model.run_epoch(FederationRuntime(
                FLBOOSTER_SYSTEM, num_clients=2, key_bits=256,
                physical_key_bits=256))

    def test_invalid_rounds_raise(self, dataset):
        with pytest.raises(ValueError):
            HomoNeuralNetwork(dataset, rounds_per_epoch=0)


class TestFlattening:
    def test_roundtrip(self, dataset):
        model = HomoNeuralNetwork(dataset, num_clients=4, seed=0)
        flat = model._flatten(model.params)
        assert len(flat) == sum(v.size for v in model.params.values())
        restored = model._unflatten(flat)
        for name, value in model.params.items():
            assert np.array_equal(restored[name], value)


class TestInference:
    def test_predicts_on_heldout(self, dataset):
        train, test = train_test_split(dataset, test_fraction=0.25, seed=1)
        model = HomoNeuralNetwork(train, num_clients=4, batch_size=48,
                                  seed=0)
        model.train(make_runtime(), max_epochs=6)
        scores = model.predict_scores(test.features)
        assert np.mean((scores > 0) == test.labels) > 0.6

    def test_feature_width_validated(self, dataset):
        model = HomoNeuralNetwork(dataset, num_clients=4, seed=0)
        with pytest.raises(ValueError):
            model.predict_scores(np.zeros((3, 5)))


class TestQuantizationRobustness:
    def test_fate_and_flbooster_agree(self, dataset):
        fate_model = HomoNeuralNetwork(dataset, num_clients=4,
                                       batch_size=48, seed=0)
        fate_trace = fate_model.train(make_runtime(FATE_SYSTEM),
                                      max_epochs=3)
        flb_model = HomoNeuralNetwork(dataset, num_clients=4,
                                      batch_size=48, seed=0)
        flb_trace = flb_model.train(make_runtime(FLBOOSTER_SYSTEM),
                                    max_epochs=3)
        assert flb_trace.final_loss == pytest.approx(
            fate_trace.final_loss, abs=0.15)
