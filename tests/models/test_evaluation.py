"""Tests for evaluation metrics and model persistence."""

import numpy as np
import pytest

from repro.datasets.generators import synthetic_like
from repro.datasets.partition import train_test_split, vertical_split
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.models.hetero_lr import HeteroLogisticRegression
from repro.models.hetero_nn import HeteroNeuralNetwork
from repro.models.hetero_sbt import HeteroSecureBoost
from repro.models.homo_lr import HomoLogisticRegression
from repro.models.homo_nn import HomoNeuralNetwork
from repro.models.evaluation import (
    binary_accuracy,
    load_model_state,
    roc_auc,
    save_model_state,
)


class TestBinaryAccuracy:
    def test_perfect(self):
        assert binary_accuracy(np.array([1.0, -1.0]),
                               np.array([1.0, 0.0])) == 1.0

    def test_inverted(self):
        assert binary_accuracy(np.array([-1.0, 1.0]),
                               np.array([1.0, 0.0])) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            binary_accuracy(np.zeros(2), np.zeros(3))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc_auc(scores, labels) == 1.0

    def test_perfectly_wrong(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc_auc(scores, labels) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=2000)
        labels = (rng.random(2000) > 0.5).astype(float)
        assert 0.45 < roc_auc(scores, labels) < 0.55

    def test_ties_average(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=60)
        labels = (rng.random(60) > 0.4).astype(float)
        positives = scores[labels == 1.0]
        negatives = scores[labels == 0.0]
        pairwise = np.mean(
            (positives[:, None] > negatives[None, :]).astype(float)
            + 0.5 * (positives[:, None] == negatives[None, :]))
        assert roc_auc(scores, labels) == pytest.approx(float(pairwise))

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=100)
        labels = (rng.random(100) > 0.5).astype(float)
        assert roc_auc(scores, labels) == \
            pytest.approx(roc_auc(np.exp(scores), labels))


@pytest.fixture(scope="module")
def dataset():
    return synthetic_like(instances=128, features=16, seed=6)


def trained(model_cls, dataset, **kwargs):
    model = model_cls(dataset, seed=1, **kwargs)
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                key_bits=256, physical_key_bits=256)
    model.train(runtime, max_epochs=2)
    return model


#: Every registry model, with the keyword arguments the round trip builds
#: it with and the number of column blocks its ``predict_scores`` takes.
ROUND_TRIP = {
    "Homo LR": (HomoLogisticRegression, dict(num_clients=4), 1),
    "Homo NN": (HomoNeuralNetwork, dict(num_clients=4, batch_size=64), 1),
    "Hetero LR": (HeteroLogisticRegression, dict(batch_size=64), 2),
    "Hetero SBT": (HeteroSecureBoost, dict(max_depth=2), 2),
    "Hetero NN": (HeteroNeuralNetwork, dict(batch_size=64), 2),
}


def heldout_blocks(dataset, blocks):
    """Held-out rows, column-aligned to a model built with seed 1."""
    if blocks == 1:
        return [dataset.features]
    return [party.features for party in
            vertical_split(dataset, num_parties=blocks, seed=1)]


class TestPersistence:
    @pytest.mark.parametrize("name", sorted(ROUND_TRIP))
    def test_roundtrip_restores_loss_and_predictions(self, name, tmp_path):
        model_cls, kwargs, blocks = ROUND_TRIP[name]
        train, test = train_test_split(
            synthetic_like(instances=160, features=16, seed=6),
            test_fraction=0.2, seed=6)
        model = trained(model_cls, train, **kwargs)
        path = tmp_path / "state.json"
        save_model_state(model, path)
        fresh = model_cls(train, seed=1, **kwargs)
        load_model_state(fresh, path)
        assert fresh.state_dict().keys() == model.state_dict().keys()
        for key, value in model.state_dict().items():
            assert np.array_equal(fresh.state_dict()[key], value), key
        assert fresh.loss() == model.loss()
        rows = heldout_blocks(test, blocks)
        expected = model.predict_scores(*rows)
        assert np.any(expected != 0.0)
        assert np.array_equal(fresh.predict_scores(*rows), expected)

    def test_save_is_atomic(self, dataset, tmp_path):
        path = tmp_path / "state.json"
        path.with_name(path.name + ".tmp").write_text("{ torn")
        save_model_state(trained(HomoLogisticRegression, dataset,
                                 num_clients=4), path)
        assert list(tmp_path.iterdir()) == [path]

    def test_wrong_model_rejected(self, dataset, tmp_path):
        model = trained(HomoLogisticRegression, dataset, num_clients=4)
        path = tmp_path / "state.json"
        save_model_state(model, path)
        other = HeteroLogisticRegression(dataset, seed=1)
        with pytest.raises(ValueError):
            load_model_state(other, path)

    def test_older_format_rejected_by_name(self, dataset, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"model": "Homo LR", "weights": [0.5]}')
        model = HomoLogisticRegression(dataset, num_clients=4, seed=1)
        with pytest.raises(ValueError, match="older format"):
            load_model_state(model, path)

    def test_auc_improves_with_training(self, dataset):
        model = HomoLogisticRegression(dataset, num_clients=4, seed=1)
        before = roc_auc(model.predict_scores(dataset.features) + 1e-9
                         * np.arange(dataset.num_instances),
                         dataset.labels)
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=256, physical_key_bits=256)
        model.train(runtime, max_epochs=5)
        after = roc_auc(model.predict_scores(dataset.features),
                        dataset.labels)
        assert after > max(before, 0.6)
