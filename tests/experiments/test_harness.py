"""Tests for the experiment harness."""

import pytest

from repro.experiments.harness import (
    SCALED_DATASET_SPECS,
    build_model,
    format_table,
    he_throughput,
    physical_key_for,
    run_epoch_experiment,
    run_training,
    scaled_dataset,
    sm_utilization,
)
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
)


class TestDatasets:
    def test_all_three_build(self):
        for name in SCALED_DATASET_SPECS:
            ds = scaled_dataset(name)
            assert ds.num_instances == SCALED_DATASET_SPECS[name]["instances"]

    def test_cache_returns_same_object(self):
        assert scaled_dataset("RCV1") is scaled_dataset("RCV1")

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            scaled_dataset("MNIST")

    def test_feature_ordering_matches_paper(self):
        # Avazu > RCV1 > Synthetic in feature dimension (Table II).
        assert scaled_dataset("Avazu").num_features > \
            scaled_dataset("RCV1").num_features > \
            scaled_dataset("Synthetic").num_features


class TestModelFactory:
    @pytest.mark.parametrize("name", ["Homo LR", "Hetero LR",
                                      "Hetero SBT", "Hetero NN"])
    def test_builds_each_model(self, name):
        model = build_model(name, scaled_dataset("Synthetic"))
        assert model.name == name

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("Linear SVM", scaled_dataset("Synthetic"))


class TestPhysicalKeyScaling:
    def test_quarter_with_floor(self):
        assert physical_key_for(1024) == 256
        assert physical_key_for(2048) == 512
        assert physical_key_for(4096) == 1024
        assert physical_key_for(512) == 256


class TestMeasurement:
    def test_epoch_report_fields(self):
        report = run_epoch_experiment(FLBOOSTER_SYSTEM, "Hetero LR",
                                      "Synthetic", 1024)
        assert report.system == "FLBooster"
        assert report.epoch_seconds > 0
        assert report.he_operations > 0
        assert report.wire_bytes > 0

    def test_throughput_positive_and_ordered(self):
        fate = he_throughput(FATE_SYSTEM, 1024, batch_size=512)
        flb = he_throughput(FLBOOSTER_SYSTEM, 1024, batch_size=512)
        assert 0 < fate < flb

    def test_throughput_operations(self):
        for op in ("encrypt", "decrypt", "add"):
            assert he_throughput(FLBOOSTER_SYSTEM, 1024, batch_size=256,
                                 operation=op) > 0
        with pytest.raises(KeyError):
            he_throughput(FLBOOSTER_SYSTEM, 1024, operation="divide")

    def test_sm_utilization_ordering(self):
        assert sm_utilization(FLBOOSTER_SYSTEM, 1024) > \
            sm_utilization(HAFLO_SYSTEM, 1024)

    def test_run_training_trace(self):
        trace = run_training(FLBOOSTER_SYSTEM, "Hetero SBT", "Synthetic", 1024,
                             max_epochs=2, physical_key_bits=256).trace
        assert len(trace.losses) <= 2
        assert trace.system == "FLBooster"


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text
