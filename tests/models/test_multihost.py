"""Tests for multi-host vertical LR (FATE's multi-host setting)."""

import numpy as np
import pytest

from repro.datasets.generators import synthetic_like
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.models.hetero_lr import HeteroLogisticRegression


@pytest.fixture(scope="module")
def dataset():
    return synthetic_like(instances=192, features=30, seed=4)


def make_runtime():
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4, key_bits=256,
                             physical_key_bits=256)


class TestMultiHost:
    def test_three_parties_cover_features(self, dataset):
        model = HeteroLogisticRegression(dataset, num_hosts=2, seed=0)
        total = model.guest.num_features + \
            sum(host.num_features for host in model.hosts)
        assert total == dataset.num_features
        assert len(model.hosts) == 2

    def test_invalid_host_count_raises(self, dataset):
        with pytest.raises(ValueError):
            HeteroLogisticRegression(dataset, num_hosts=0)

    def test_training_converges(self, dataset):
        model = HeteroLogisticRegression(dataset, num_hosts=2,
                                         batch_size=48, seed=0)
        trace = model.train(make_runtime(), max_epochs=6)
        assert min(trace.losses) < trace.losses[0]
        assert model.accuracy() > 0.6

    def test_all_hosts_learn(self, dataset):
        model = HeteroLogisticRegression(dataset, num_hosts=3,
                                         batch_size=48, seed=0)
        model.train(make_runtime(), max_epochs=4)
        for weights in model.host_weights:
            assert np.any(weights != 0)

    def test_transfer_count_scales_with_hosts(self, dataset):
        batches = -(-dataset.num_instances // 48)
        for hosts in (1, 2):
            model = HeteroLogisticRegression(dataset, num_hosts=hosts,
                                             batch_size=48, seed=0)
            runtime = make_runtime()
            ledger = runtime.begin_epoch()
            model.run_epoch(runtime)
            assert ledger.count("comm.hetero_lr.forward") == \
                batches * hosts
            assert ledger.count("comm.hetero_lr.residual") == \
                batches * hosts

    def test_single_host_backwards_compatible(self, dataset):
        model = HeteroLogisticRegression(dataset, seed=0)
        assert model.host is model.hosts[0]
        assert len(model.host_weights) == 1
