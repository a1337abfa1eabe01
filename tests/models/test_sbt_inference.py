"""Tests for SecureBoost inference on unseen data."""

import numpy as np
import pytest

from repro.datasets.generators import synthetic_like
from repro.datasets.partition import train_test_split, vertical_split
from repro.experiments.harness import (SCALED_DATASET_SPECS, build_model,
                                       scaled_dataset)
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.models.hetero_sbt import HeteroSecureBoost
from repro.models.evaluation import roc_auc


@pytest.fixture(scope="module")
def split_data():
    dataset = synthetic_like(instances=320, features=24, seed=8)
    return train_test_split(dataset, test_fraction=0.25, seed=8)


@pytest.fixture(scope="module")
def trained_model(split_data):
    train, _test = split_data
    model = HeteroSecureBoost(train, max_depth=3, num_bins=8, seed=2)
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                key_bits=256, physical_key_bits=256)
    model.train(runtime, max_epochs=6)
    return model


def split_columns(model, dataset):
    """Column-align a dataset to the model's guest/host partitions.

    The vertical split is deterministic per seed, so re-splitting the
    test half with the training seed yields matching blocks.
    """
    guest, host = vertical_split(dataset, num_parties=2, seed=model.seed)
    return guest.features, host.features


class TestRoutingConsistency:
    @pytest.mark.parametrize("name", sorted(SCALED_DATASET_SPECS))
    def test_training_rows_reproduce_training_scores(self, name):
        # Scoring the training rows bins them by the training edges and
        # walks the training trees, so it reproduces the fitted scores
        # exactly -- also on sparse data, where many values sit on a
        # quantile cut.
        model = build_model("Hetero SBT", scaled_dataset(name))
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=256, physical_key_bits=256)
        model.train(runtime, max_epochs=3)
        scores = model.predict_scores(model.guest.features,
                                      model.host.features)
        assert np.array_equal(scores, model.scores)

    def test_shape_validation(self, trained_model):
        with pytest.raises(ValueError):
            trained_model.predict_scores(
                np.zeros((3, trained_model.guest.num_features)),
                np.zeros((4, trained_model.host.num_features)))
        with pytest.raises(ValueError):
            trained_model.predict_scores(np.zeros((3, 1)),
                                         np.zeros((3, 1)))


class TestGeneralization:
    def test_heldout_auc_beats_chance(self, split_data, trained_model):
        _train, test = split_data
        guest_block, host_block = split_columns(trained_model, test)
        scores = trained_model.predict_scores(guest_block, host_block)
        assert roc_auc(scores, test.labels) > 0.7

    def test_binary_predictions(self, split_data, trained_model):
        # A short ensemble's raw scores are miscalibrated at the 0
        # threshold (ranking quality is the AUC test above), so the
        # accuracy bar here is only better-than-chance.
        _train, test = split_data
        guest_block, host_block = split_columns(trained_model, test)
        predictions = trained_model.predict(guest_block, host_block)
        assert set(np.unique(predictions)) <= {0.0, 1.0}
        assert np.mean(predictions == test.labels) > 0.5


class TestTrainTestSplit:
    def test_sizes(self):
        dataset = synthetic_like(instances=100, features=8, seed=1)
        train, test = train_test_split(dataset, test_fraction=0.3, seed=1)
        assert test.num_instances == 30
        assert train.num_instances == 70

    def test_disjoint_and_complete(self):
        dataset = synthetic_like(instances=60, features=4, seed=2)
        train, test = train_test_split(dataset, seed=2)
        combined = sorted(map(tuple, np.vstack([train.features,
                                                test.features])))
        assert combined == sorted(map(tuple, dataset.features))

    def test_metadata_preserved(self):
        dataset = synthetic_like(instances=50, features=4, seed=3)
        train, _test = train_test_split(dataset, seed=3)
        assert train.name == dataset.name
        assert train.paper_instances == dataset.paper_instances

    def test_invalid_fraction_raises(self):
        dataset = synthetic_like(instances=50, features=4, seed=4)
        with pytest.raises(ValueError):
            train_test_split(dataset, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(dataset, test_fraction=1.0)
