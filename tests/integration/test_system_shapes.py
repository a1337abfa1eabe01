"""Integration tests pinning the paper's headline result shapes.

These are the load-bearing invariants of the reproduction: if any of
them breaks, a benchmark table would report the wrong *conclusion*, not
just a different number.
"""

import pytest

from repro.experiments.harness import (
    he_throughput,
    run_epoch_experiment,
    sm_utilization,
)
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
    WITHOUT_BC,
    WITHOUT_GHE,
)

MODELS = ["Homo LR", "Hetero LR", "Hetero SBT", "Hetero NN"]


@pytest.fixture(scope="module")
def homo_reports():
    return {config.name: run_epoch_experiment(config, "Homo LR",
                                              "Synthetic", 1024)
            for config in (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM,
                           WITHOUT_GHE, WITHOUT_BC)}


class TestTable3Shapes:
    """Who wins, by roughly what factor (Table III)."""

    def test_flbooster_beats_haflo_beats_fate(self, homo_reports):
        assert homo_reports["FLBooster"].epoch_seconds < \
            homo_reports["HAFLO"].epoch_seconds < \
            homo_reports["FATE"].epoch_seconds

    def test_flbooster_vs_haflo_order_of_magnitude(self, homo_reports):
        # Paper: 14.3x - 138x over HAFLO.
        ratio = homo_reports["HAFLO"].epoch_seconds / \
            homo_reports["FLBooster"].epoch_seconds
        assert 10 < ratio < 200

    def test_flbooster_vs_fate_two_orders(self, homo_reports):
        # Paper: 144x - 1229x over FATE across key sizes.
        ratio = homo_reports["FATE"].epoch_seconds / \
            homo_reports["FLBooster"].epoch_seconds
        assert 50 < ratio < 2000

    @pytest.mark.parametrize("model", MODELS)
    def test_ordering_holds_for_every_model(self, model):
        reports = {config.name: run_epoch_experiment(
            config, model, "Synthetic", 1024)
            for config in (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM)}
        assert reports["FLBooster"].epoch_seconds < \
            reports["HAFLO"].epoch_seconds < \
            reports["FATE"].epoch_seconds

    def test_acceleration_grows_with_key_size(self):
        ratios = {}
        for key_bits in (1024, 4096):
            fate = run_epoch_experiment(FATE_SYSTEM, "Hetero LR", "Synthetic",
                                        key_bits)
            flb = run_epoch_experiment(FLBOOSTER_SYSTEM, "Hetero LR",
                                       "Synthetic", key_bits)
            ratios[key_bits] = fate.epoch_seconds / flb.epoch_seconds
        assert ratios[4096] > ratios[1024]


class TestTable4Shapes:
    """HE throughput ordering and scaling (Table IV)."""

    def test_ordering_at_all_key_sizes(self):
        for key_bits in (1024, 2048, 4096):
            fate = he_throughput(FATE_SYSTEM, key_bits, batch_size=512)
            haflo = he_throughput(HAFLO_SYSTEM, key_bits, batch_size=512)
            flb = he_throughput(FLBOOSTER_SYSTEM, key_bits, batch_size=512)
            assert fate < haflo < flb

    def test_cpu_to_gpu_gap_two_orders(self):
        fate = he_throughput(FATE_SYSTEM, 1024, batch_size=512)
        haflo = he_throughput(HAFLO_SYSTEM, 1024, batch_size=512)
        assert 50 < haflo / fate < 500     # paper: ~160x

    def test_throughput_falls_with_key_size(self):
        for config in (FATE_SYSTEM, HAFLO_SYSTEM, FLBOOSTER_SYSTEM):
            t1 = he_throughput(config, 1024, batch_size=512)
            t2 = he_throughput(config, 2048, batch_size=512)
            t4 = he_throughput(config, 4096, batch_size=512)
            assert t1 > t2 > t4
            # Work grows ~8x per doubling; throughput drop is 4x-9x.
            assert 3.5 < t1 / t2 < 10


class TestFig6Shapes:
    """SM utilization (Fig. 6)."""

    def test_flbooster_utilization_higher(self):
        for key_bits in (1024, 2048, 4096):
            assert sm_utilization(FLBOOSTER_SYSTEM, key_bits) > \
                3 * sm_utilization(HAFLO_SYSTEM, key_bits)

    def test_utilization_degrades_with_key_size(self):
        flb = [sm_utilization(FLBOOSTER_SYSTEM, k) for k in (1024, 2048, 4096)]
        assert flb[0] >= flb[1] >= flb[2]


class TestTable5Shapes:
    """Ablation ordering (Table V)."""

    def test_full_system_fastest(self, homo_reports):
        assert homo_reports["FLBooster"].epoch_seconds < \
            homo_reports["w/o GHE"].epoch_seconds
        assert homo_reports["FLBooster"].epoch_seconds < \
            homo_reports["w/o BC"].epoch_seconds

    def test_bc_matters_more_than_ghe(self, homo_reports):
        # Table V: removing BC hurts far more than removing the GPU.
        assert homo_reports["w/o BC"].epoch_seconds > \
            homo_reports["w/o GHE"].epoch_seconds


class TestTable6Shapes:
    """Component splits (Table VI, at 1024 bits on Homo LR)."""

    def test_fate_roughly_balanced(self, homo_reports):
        p = homo_reports["FATE"].component_percentages()
        assert 40 < p["HE operations"] < 65
        assert 35 < p["Communication"] < 60
        assert p["Others"] < 2

    def test_haflo_comm_dominated(self, homo_reports):
        # Paper: ~99% comm.  Scaled batches underfill the GPU slightly,
        # so the bound is a little looser here.
        p = homo_reports["HAFLO"].component_percentages()
        assert p["Communication"] > 90
        assert p["HE operations"] < 8

    def test_flbooster_balanced_shift(self, homo_reports):
        p = homo_reports["FLBooster"].component_percentages()
        assert p["Others"] > 5            # pipeline conversion appears
        assert p["HE operations"] < 15
        assert 50 < p["Communication"] < 95


class TestCommunicationVolume:
    """Fig. 7 consequences: wire volume shrinks by the packing capacity."""

    def test_flbooster_sends_fewer_bytes(self, homo_reports):
        assert homo_reports["FLBooster"].wire_bytes * 10 < \
            homo_reports["FATE"].wire_bytes

    def test_he_op_count_reduced_by_packing(self, homo_reports):
        assert homo_reports["FLBooster"].he_operations * 8 < \
            homo_reports["FATE"].he_operations
