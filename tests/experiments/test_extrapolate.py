"""Tests for paper-scale extrapolation."""

import pytest

from repro.experiments.harness import run_epoch_experiment, scaled_dataset
from repro.experiments.extrapolate import (
    extrapolate_report,
    extrapolation_factors,
)
from repro.federation.metrics import EpochReport
from repro.federation.runtime import FATE_SYSTEM


class TestFactors:
    def test_homo_lr_scales_with_features(self):
        dataset = scaled_dataset("RCV1")
        factors = extrapolation_factors("Homo LR", dataset)
        assert factors.he_comm == pytest.approx(
            dataset.paper_features / dataset.num_features)

    def test_hetero_lr_scales_with_instances(self):
        dataset = scaled_dataset("RCV1")
        factors = extrapolation_factors("Hetero LR", dataset)
        assert factors.he_comm == pytest.approx(
            dataset.paper_instances / dataset.num_instances)

    def test_compute_scales_with_product(self):
        dataset = scaled_dataset("Synthetic")
        factors = extrapolation_factors("Hetero NN", dataset)
        assert factors.compute == pytest.approx(
            (dataset.paper_instances / dataset.num_instances)
            * (dataset.paper_features / dataset.num_features))

    def test_sbt_between_instance_and_feature_ratio(self):
        dataset = scaled_dataset("RCV1")
        factors = extrapolation_factors("Hetero SBT", dataset)
        instances_ratio = dataset.paper_instances / dataset.num_instances
        features_ratio = dataset.paper_features / dataset.num_features
        assert min(instances_ratio, features_ratio) * 0.5 < \
            factors.he_comm < max(instances_ratio, features_ratio) * 2

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            extrapolation_factors("SVM", scaled_dataset("RCV1"))


class TestApply:
    def test_extrapolated_dominates_scaled(self):
        report = run_epoch_experiment(FATE_SYSTEM, "Homo LR", "RCV1", 1024)
        estimate = extrapolate_report(report, scaled_dataset("RCV1"))
        assert estimate > 10 * report.epoch_seconds

    def test_paper_order_of_magnitude(self):
        # Paper Table III: FATE Homo LR RCV1 @1024 = 10,009.9 s.
        report = run_epoch_experiment(FATE_SYSTEM, "Homo LR", "RCV1", 1024)
        estimate = extrapolate_report(report, scaled_dataset("RCV1"))
        assert 500 < estimate < 200_000

    def test_component_weighting(self):
        dataset = scaled_dataset("Synthetic")
        report = EpochReport(
            system="s", model="Homo LR", dataset="Synthetic",
            key_bits=1024, epoch_seconds=3.0,
            component_seconds={"HE operations": 1.0, "Communication": 1.0,
                               "Others": 1.0})
        factors = extrapolation_factors("Homo LR", dataset)
        expected = factors.he_comm * 2.0 + factors.compute * 1.0
        assert extrapolate_report(report, dataset) == pytest.approx(expected)
