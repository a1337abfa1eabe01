"""Additional harness coverage: ops, caching, Homo NN path."""

import pytest

from repro.experiments.harness import (
    build_model,
    he_throughput,
    run_epoch_experiment,
    scaled_dataset,
)
from repro.federation.runtime import FATE_SYSTEM, FLBOOSTER_SYSTEM


class TestThroughputOperations:
    def test_decrypt_slower_equal_encrypt_order(self):
        encrypt = he_throughput(FLBOOSTER_SYSTEM, 1024, batch_size=512,
                                operation="encrypt")
        decrypt = he_throughput(FLBOOSTER_SYSTEM, 1024, batch_size=512,
                                operation="decrypt")
        # Same exponent lengths: within 3x of each other.
        assert encrypt / 3 < decrypt < encrypt * 3

    def test_add_much_faster(self):
        encrypt = he_throughput(FLBOOSTER_SYSTEM, 1024, batch_size=512,
                                operation="encrypt")
        add = he_throughput(FLBOOSTER_SYSTEM, 1024, batch_size=512,
                            operation="add")
        assert add > 20 * encrypt

    def test_cpu_add_also_fast(self):
        encrypt = he_throughput(FATE_SYSTEM, 1024, batch_size=128,
                                operation="encrypt")
        add = he_throughput(FATE_SYSTEM, 1024, batch_size=128, operation="add")
        assert add > 2 * encrypt


class TestEpochCache:
    def test_cache_hits_return_same_report(self):
        first = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                     1024)
        second = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                      1024)
        assert first is second

    def test_cache_bypass(self):
        cached = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                      1024)
        fresh = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                     1024, use_cache=False)
        assert fresh is not cached
        # Deterministic: same modelled time either way.
        assert fresh.epoch_seconds == pytest.approx(cached.epoch_seconds)

    def test_different_keys_are_different_cells(self):
        a = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                 1024)
        b = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                 2048)
        assert a is not b
        assert a.key_bits != b.key_bits


class TestHomoNnPath:
    def test_build_model(self):
        model = build_model("Homo NN", scaled_dataset("Synthetic"))
        assert model.name == "Homo NN"

    def test_epoch_experiment_runs(self):
        report = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo NN", "Synthetic",
                                      1024)
        assert report.epoch_seconds > 0
        assert report.he_operations > 0

    def test_homo_nn_heavier_than_homo_lr(self):
        # The NN aggregates w1+b1+w2+b2 (> features weights), so its
        # payload and epoch exceed Homo LR's under the same config.
        nn = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo NN", "Synthetic",
                                  1024)
        lr = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                  1024)
        assert nn.wire_bytes > lr.wire_bytes
