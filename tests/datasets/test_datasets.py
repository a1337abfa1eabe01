"""Tests for the dataset generators and federation partitioners."""

import numpy as np
import pytest

from repro.datasets import (
    PAPER_SCALES,
    avazu_like,
    horizontal_split,
    rcv1_like,
    synthetic_like,
    vertical_split,
)


class TestGenerators:
    def test_shapes(self):
        ds = rcv1_like(instances=100, features=50)
        assert ds.features.shape == (100, 50)
        assert ds.labels.shape == (100,)

    def test_labels_binary(self):
        for ds in (rcv1_like(instances=64, features=32),
                   avazu_like(instances=64, features=64, fields=8),
                   synthetic_like(instances=64, features=16)):
            assert set(np.unique(ds.labels)) <= {0.0, 1.0}

    def test_deterministic(self):
        a = synthetic_like(instances=32, features=8, seed=5)
        b = synthetic_like(instances=32, features=8, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_seeds_differ(self):
        a = synthetic_like(instances=32, features=8, seed=5)
        b = synthetic_like(instances=32, features=8, seed=6)
        assert not np.array_equal(a.features, b.features)

    def test_sparsity_ordering(self):
        # Avazu sparsest, RCV1 sparse, Synthetic dense -- Table II.
        rcv1 = rcv1_like(instances=128, features=256)
        avazu = avazu_like(instances=128, features=256, fields=8)
        synthetic = synthetic_like(instances=128, features=32)
        assert avazu.density < rcv1.density < synthetic.density
        assert synthetic.density == 1.0

    def test_avazu_one_hot_per_field(self):
        ds = avazu_like(instances=50, features=64, fields=8)
        # Exactly one active feature per field per instance.
        assert np.allclose(ds.features.sum(axis=1), 8.0)

    def test_avazu_field_mismatch_raises(self):
        with pytest.raises(ValueError):
            avazu_like(instances=10, features=100, fields=7)

    def test_rcv1_rows_normalized(self):
        ds = rcv1_like(instances=50, features=100)
        norms = np.linalg.norm(ds.features, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_paper_scales_recorded(self):
        ds = rcv1_like(instances=100, features=50)
        assert (ds.paper_instances, ds.paper_features) == \
            PAPER_SCALES["RCV1"]

    def test_labels_not_degenerate(self):
        for ds in (rcv1_like(instances=256, features=128),
                   avazu_like(instances=256, features=256, fields=8),
                   synthetic_like(instances=256, features=32)):
            positive_rate = ds.labels.mean()
            assert 0.15 < positive_rate < 0.85


class TestHorizontalSplit:
    def test_covers_all_instances(self):
        ds = synthetic_like(instances=100, features=8)
        parts = horizontal_split(ds, 4)
        assert sum(p.num_instances for p in parts) == 100

    def test_disjoint_shards(self):
        ds = synthetic_like(instances=64, features=4, seed=1)
        parts = horizontal_split(ds, 4, seed=2)
        rows = np.concatenate([p.features for p in parts])
        # Every original row appears exactly once.
        assert sorted(map(tuple, rows)) == \
            sorted(map(tuple, ds.features))

    def test_roughly_even(self):
        ds = synthetic_like(instances=103, features=4)
        sizes = [p.num_instances for p in horizontal_split(ds, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_each_client_keeps_labels(self):
        ds = synthetic_like(instances=40, features=4)
        for part in horizontal_split(ds, 2):
            assert part.labels.shape == (part.num_instances,)

    def test_too_many_clients_raise(self):
        ds = synthetic_like(instances=4, features=4)
        with pytest.raises(ValueError):
            horizontal_split(ds, 5)
        with pytest.raises(ValueError):
            horizontal_split(ds, 0)


class TestVerticalSplit:
    def test_covers_all_features(self):
        ds = synthetic_like(instances=32, features=21)
        parts = vertical_split(ds, num_parties=3)
        assert sum(p.num_features for p in parts) == 21

    def test_only_guest_has_labels(self):
        ds = synthetic_like(instances=32, features=8)
        guest, host = vertical_split(ds, num_parties=2)
        assert guest.has_labels and guest.labels is not None
        assert not host.has_labels and host.labels is None

    def test_same_instance_count(self):
        ds = synthetic_like(instances=32, features=8)
        for part in vertical_split(ds, num_parties=2):
            assert part.features.shape[0] == 32

    def test_guest_fraction(self):
        ds = synthetic_like(instances=32, features=100)
        guest, host = vertical_split(ds, num_parties=2,
                                     guest_fraction=0.25)
        assert guest.num_features == 25
        assert host.num_features == 75

    def test_invalid_arguments_raise(self):
        ds = synthetic_like(instances=8, features=4)
        with pytest.raises(ValueError):
            vertical_split(ds, num_parties=1)
        with pytest.raises(ValueError):
            vertical_split(ds, num_parties=5)
        with pytest.raises(ValueError):
            vertical_split(ds, num_parties=2, guest_fraction=1.5)
