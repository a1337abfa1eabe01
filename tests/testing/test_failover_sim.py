"""Durable-coordinator simulation: crash sweeps, failover, replay."""

import json

import pytest

from repro.federation.faults import FaultPlan
from repro.testing.simulator import (
    COORDINATOR,
    CrashSweepReport,
    FederationSimulator,
    SimulationFailure,
    SimulationSpec,
    crash_sweep,
    replay,
)


def durable_spec(**overrides):
    fields = dict(num_clients=3, rounds=2, vector_size=4, key_bits=256,
                  physical_key_bits=128, seed=11, durable=True)
    fields.update(overrides)
    return SimulationSpec(**fields)


class TestDurableRunEquivalence:
    def test_durable_run_matches_plain_run(self):
        spec = durable_spec()
        plain = FederationSimulator(
            SimulationSpec.from_dict(
                {**spec.to_dict(), "durable": False})).run()
        durable = FederationSimulator(spec).run()
        assert durable.checksum() == plain.checksum()
        assert [r.survivors for r in durable.rounds] == \
            [r.survivors for r in plain.rounds]
        assert durable.failovers == []
        # 3 clients, 2 rounds: (open + 3 uploads + quorum + commit +
        # close) per round, all on the single node "coordinator".
        assert durable.node_wal_records == {COORDINATOR: 14}
        # The journal keeps one round; the trail still covers every LSN.
        trail = durable.node_trails[COORDINATOR]
        assert sorted(trail) == list(range(14))
        assert [round_index for round_index, _ in trail.values()] == \
            [0] * 7 + [1] * 7

    def test_spec_durable_flag_round_trips(self):
        spec = durable_spec()
        assert SimulationSpec.from_dict(json.loads(spec.to_json())) == spec


class TestScheduledKills:
    def test_coordinator_crash_recovers_same_round(self):
        spec = durable_spec()
        reference = FederationSimulator(spec).run()
        plan = FaultPlan(seed=spec.seed).coordinator_crash(
            0, after_record=4)
        killed = FederationSimulator(SimulationSpec.from_dict(
            {**spec.to_dict(), "fault_plan": plan.to_dict()})).run()
        assert len(killed.failovers) == 1
        kill = killed.failovers[0]
        assert kill.node == COORDINATOR
        assert kill.kind == "coordinator_crash"
        assert kill.lsn == 4
        assert kill.incarnation == 1
        assert kill.recovered_digest == \
            reference.node_trails[COORDINATOR][4][1]
        assert killed.final_weights == reference.final_weights
        assert killed.checksum() == reference.checksum()

    def test_failover_hands_round_to_standby(self):
        spec = durable_spec()
        reference = FederationSimulator(spec).run()
        plan = FaultPlan(seed=spec.seed).failover(0, after_record=2)
        sim = FederationSimulator(SimulationSpec.from_dict(
            {**spec.to_dict(), "fault_plan": plan.to_dict()}))
        result = sim.run()
        assert result.failovers[0].kind == "failover"
        assert sim.nodes()[COORDINATOR].name == "coordinator-standby"
        assert result.final_weights == reference.final_weights
        # The takeover waited out the lease on the virtual clock.
        assert result.final_time > reference.final_time

    def test_failover_charges_the_ledger(self):
        plan = FaultPlan(seed=11).failover(0, after_record=1)
        sim = FederationSimulator(SimulationSpec.from_dict(
            {**durable_spec().to_dict(), "fault_plan": plan.to_dict()}))
        sim.run()
        assert ("failover", "coordinator", 0) in \
            sim.runtime.injector.triggered

    def test_degraded_failover_matches_partial_quorum_run(self):
        """Mid-round takeover under a client crash lands on the PR 1
        partial-quorum Eq. 6 result, identical to the plain run."""
        base_plan = FaultPlan(seed=5).crash("client-1", round_index=0)
        plain_spec = SimulationSpec(num_clients=3, rounds=2,
                                    vector_size=4, physical_key_bits=128,
                                    seed=5, min_quorum=2,
                                    fault_plan=base_plan)
        plain = FederationSimulator(plain_spec).run()
        kill_plan = base_plan.failover(0, after_record=2)
        durable = FederationSimulator(SimulationSpec.from_dict(
            {**plain_spec.to_dict(), "fault_plan": kill_plan.to_dict(),
             "durable": True})).run()
        assert durable.checksum() == plain.checksum()
        assert [r.summands for r in durable.rounds] == \
            [r.summands for r in plain.rounds]

    def test_unfired_kill_is_a_replayable_failure(self):
        plan = FaultPlan(seed=11).coordinator_crash(0, after_record=999)
        spec = SimulationSpec.from_dict(
            {**durable_spec(rounds=1).to_dict(),
             "fault_plan": plan.to_dict()})
        with pytest.raises(SimulationFailure, match="never fired"):
            FederationSimulator(spec).run()


class TestCrashConsistencySweep:
    def test_sweep_covers_every_boundary(self):
        spec = durable_spec(rounds=1)
        report = crash_sweep(spec)
        assert isinstance(report, CrashSweepReport)
        assert report.wal_records == 7
        assert report.boundaries_tested == 7
        assert "bit-identical" in "\n".join(report.summary_lines())

    def test_sweep_in_failover_mode(self):
        report = crash_sweep(durable_spec(rounds=1),
                                         mode="failover",
                                         record_indices=[0, 3, 6])
        assert report.boundaries_tested == 3

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(ValueError, match="outside the log"):
            crash_sweep(durable_spec(rounds=1),
                                    record_indices=[99])

    def test_failure_embeds_replayable_spec(self):
        failure = SimulationFailure(durable_spec(), "digest",
                                    round_index=0, record_index=3)
        assert failure.record_index == 3
        message = str(failure)
        assert "kill after WAL record 3: digest" in message
        assert "trace=" in message
        trace = message.split("trace=", 1)[1].strip()
        assert SimulationSpec.from_dict(json.loads(trace)) == durable_spec()


class TestReplayRouting:
    def test_durable_trace_replays_durably(self):
        plan = FaultPlan(seed=11).failover(0, after_record=2)
        spec = SimulationSpec.from_dict(
            {**durable_spec().to_dict(), "fault_plan": plan.to_dict()})
        first = FederationSimulator(spec).run()
        again = replay(spec.to_json())
        assert list(again.node_wal_records) == [COORDINATOR]
        assert again.checksum() == first.checksum()
        assert again.failovers == first.failovers

    def test_coordinator_events_force_durable_replay(self):
        plan = FaultPlan(seed=11).coordinator_crash(0, after_record=1)
        spec = SimulationSpec.from_dict(
            {**durable_spec().to_dict(), "durable": False,
             "fault_plan": plan.to_dict()})
        result = replay(spec.to_json())
        assert list(result.node_wal_records) == [COORDINATOR]
        assert len(result.failovers) == 1

    def test_plain_trace_still_replays_plainly(self):
        spec = SimulationSpec(num_clients=3, rounds=1, vector_size=4,
                              physical_key_bits=128, seed=11)
        result = replay(spec.to_json())
        assert result.node_wal_records == {}

    def test_result_to_dict_carries_kills(self):
        plan = FaultPlan(seed=11).coordinator_crash(1, after_record=9)
        spec = SimulationSpec.from_dict(
            {**durable_spec().to_dict(), "fault_plan": plan.to_dict()})
        data = FederationSimulator(spec).run().to_dict()
        assert data["wal_records"] == 14
        assert data["kills"][0]["kind"] == "coordinator_crash"
        assert data["kills"][0]["lsn"] == 9


class TestHeartbeats:
    def test_primary_heartbeats_each_round(self):
        sim = FederationSimulator(durable_spec())
        sim.run()
        ledger = sim.runtime.channel.ledger
        assert ledger.count("comm.coordinator.heartbeat") >= 1
