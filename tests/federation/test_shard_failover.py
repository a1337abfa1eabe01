"""Hierarchical failover: per-node crash sweeps, races, replayability."""

import numpy as np
import pytest

from repro.federation.faults import FaultPlan
from repro.federation.metrics import FaultReport
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import ShardedAggregationService
from repro.testing.simulator import (
    FederationSimulator,
    SimulationFailure,
    SimulationSpec,
    crash_sweep,
    replay,
)


def make_spec(**overrides):
    base = dict(num_clients=5, rounds=2, vector_size=4, key_bits=256,
                physical_key_bits=128, seed=11)
    base.update(overrides)
    return SimulationSpec(**base)


class TestShardCrashSweep:
    def test_leaf_sweep_recovers_bit_identical_everywhere(self):
        report = crash_sweep(make_spec(), node="shard-0")
        assert report.mode == "shard:shard-0"
        assert report.boundaries_tested == report.wal_records > 0

    def test_root_sweep_recovers_bit_identical_everywhere(self):
        report = crash_sweep(make_spec(), node="root")
        assert report.mode == "shard:root"
        assert report.boundaries_tested == report.wal_records > 0

    def test_root_failover_racing_leaf_failover(self):
        report = crash_sweep(make_spec(), node="shard-1",
                             race_root_failover=True)
        assert report.mode == "shard:shard-1+root-race"
        assert report.boundaries_tested == report.wal_records > 0

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            crash_sweep(make_spec(), node="shard-99")

    def test_out_of_range_record_rejected(self):
        with pytest.raises(ValueError):
            crash_sweep(make_spec(), node="shard-0",
                        record_indices=[10_000])


class TestShardedSimulator:
    def test_scheduled_kill_fires_and_is_reported(self):
        plan = FaultPlan(seed=11).shard_crash("shard-0", 0,
                                              after_record=1)
        spec = make_spec(rounds=1, sharded=True,
                         fault_plan=plan)
        result = FederationSimulator(spec).run()
        assert "root" in result.node_wal_records
        assert [f.node for f in result.failovers] == ["shard-0"]
        assert result.failovers[0].kind == "shard_crash"
        assert result.failovers[0].lsn == 1
        assert result.failovers[0].incarnation == 1

    def test_kill_that_never_fires_is_an_error(self):
        plan = FaultPlan(seed=11).shard_crash("shard-0", 0,
                                              after_record=10_000)
        spec = make_spec(rounds=1, sharded=True, fault_plan=plan)
        with pytest.raises(SimulationFailure):
            FederationSimulator(spec).run()

    def test_replay_dispatches_sharded_traces(self):
        plan = FaultPlan(seed=11).shard_crash("shard-0", 0,
                                              after_record=2)
        spec = make_spec(rounds=1, sharded=True, fault_plan=plan)
        direct = FederationSimulator(spec).run()
        replayed = replay(spec.to_json())
        assert replayed.node_wal_records == direct.node_wal_records
        assert replayed.checksum() == direct.checksum()
        assert replayed.final_weights == direct.final_weights

    def test_replay_dispatches_on_shard_plan_without_flag(self):
        # A trace whose spec forgot sharded=True but whose plan holds
        # shard faults still routes to the sharded simulator.
        plan = FaultPlan(seed=11).queue_overload("shard-0", 0)
        spec = make_spec(rounds=1, min_quorum=2, fault_plan=plan)
        replayed = replay(spec.to_json())
        assert "root" in replayed.node_wal_records

    def test_killed_run_matches_uninterrupted_weights(self):
        reference = FederationSimulator(
            make_spec(sharded=True)).run()
        plan = FaultPlan(seed=11).shard_crash("shard-1", 1,
                                              after_record=7)
        killed = FederationSimulator(
            make_spec(sharded=True, fault_plan=plan)).run()
        assert killed.final_weights == reference.final_weights
        assert killed.checksum() == reference.checksum()


class TestFailoverAccounting:
    def test_shard_crash_lands_in_fault_report(self):
        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=4, key_bits=256,
            physical_key_bits=128, seed=11,
            fault_plan=FaultPlan(seed=11).shard_crash(
                "shard-0", 0, after_record=1))
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(-0.5, 0.5, size=4) for _ in range(4)]
        service.run_round(vectors, round_index=0)
        assert [f.node for f in service.failover_log] == ["shard-0"]
        report = FaultReport.from_ledger(runtime.ledger)
        assert report.shard_crashes == 1
        assert any("shard crashes" in line and "1" in line
                   for line in report.summary_lines())

    def test_leaf_failover_bumps_incarnation_and_fences_the_dead(self):
        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=4, key_bits=256,
            physical_key_bits=128, seed=11,
            fault_plan=FaultPlan(seed=11).shard_crash(
                "shard-0", 0, after_record=0))
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(-0.5, 0.5, size=4) for _ in range(4)]
        service.run_round(vectors, round_index=0)
        record = service.failover_log[0]
        assert record.node == "shard-0"
        assert record.incarnation == 1
        assert service.leaves["shard-0"].incarnation == 1
