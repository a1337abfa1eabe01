"""Master-seed RNG routing (repro.rng) and the primes entropy split."""

import random

import numpy as np

from repro.mpint.primes import LimbRandom
from repro.rng import (
    JITTER_STREAM_OFFSET,
    STREAM_MULTIPLIER,
    derive_seed,
    jitter_seed,
    master_test_seed,
    np_rng,
    py_rng,
)


class TestDeriveSeed:
    def test_default_master_is_identity(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_SEED", raising=False)
        assert master_test_seed() == 0
        assert derive_seed(42) == 42

    def test_master_shifts_every_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SEED", "3")
        assert derive_seed(42) == 3 * STREAM_MULTIPLIER + 42
        assert jitter_seed(5) == \
            3 * STREAM_MULTIPLIER + JITTER_STREAM_OFFSET + 5

    def test_streams_do_not_collide_across_masters(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SEED", "1")
        low = derive_seed(0)
        monkeypatch.setenv("REPRO_TEST_SEED", "2")
        assert derive_seed(0) - low == STREAM_MULTIPLIER
        assert STREAM_MULTIPLIER > JITTER_STREAM_OFFSET


class TestRoutedGenerators:
    def test_np_rng_matches_default_rng_at_master_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_SEED", raising=False)
        ours = np_rng(7).random(4)
        historical = np.random.default_rng(7).random(4)
        assert np.array_equal(ours, historical)

    def test_py_rng_matches_seeded_random(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_SEED", raising=False)
        assert py_rng(11).random() == random.Random(11).random()

    def test_master_reseeds_routed_streams(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SEED", "0")
        base = np_rng(7).random(4)
        monkeypatch.setenv("REPRO_TEST_SEED", "5")
        assert not np.array_equal(np_rng(7).random(4), base)


class TestDatasetRouting:
    def test_generators_stable_under_default_master(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_SEED", raising=False)
        from repro.datasets.generators import synthetic_like
        a = synthetic_like(instances=20, features=4, seed=3)
        b = synthetic_like(instances=20, features=4, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_generators_follow_the_master_seed(self, monkeypatch):
        from repro.datasets.generators import synthetic_like
        monkeypatch.setenv("REPRO_TEST_SEED", "0")
        a = synthetic_like(instances=20, features=4, seed=3)
        monkeypatch.setenv("REPRO_TEST_SEED", "9")
        b = synthetic_like(instances=20, features=4, seed=3)
        assert not np.array_equal(a.features, b.features)


class TestLimbRandomSplit:
    def test_reproducible_matches_historical_constructor(self):
        a = LimbRandom(seed=5)
        assert a.randbits(128) == random.Random(5 << 16).getrandbits(128)
        assert not a.entropy_backed

    def test_entropy_mode_is_system_random(self):
        rng = LimbRandom()
        assert rng.entropy_backed
        assert isinstance(rng._rng, random.SystemRandom)

    def test_default_constructor_is_entropy_backed(self):
        assert LimbRandom().entropy_backed
