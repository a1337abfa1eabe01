"""Deterministic simulator: replayable runs, virtual time only."""

from __future__ import annotations

import json

import pytest

from repro.federation.eventloop import VirtualClock
from repro.federation.faults import FaultPlan
from repro.testing.simulator import (
    FederationSimulator,
    SimulationFailure,
    SimulationSpec,
    replay,
)

FAST = dict(key_bits=256, physical_key_bits=128, vector_size=6)


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.0)
        assert clock.now == 1.5

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)


class TestSpecJson:
    def test_roundtrip_with_fault_plan(self):
        spec = SimulationSpec(
            num_clients=5, rounds=2, seed=13, min_quorum=3,
            round_deadline_seconds=20.0,
            fault_plan=(FaultPlan(seed=3)
                        .crash("client-4", 1)
                        .dropout("client-2", 0, 1)
                        .straggler("client-1", 1, 9.0)
                        .with_message_loss(0.02)
                        .with_corruption(0.01)),
            **FAST)
        assert SimulationSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_roundtrip_without_fault_plan(self):
        spec = SimulationSpec(seed=1, **FAST)
        assert SimulationSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_unknown_keys_are_rejected(self):
        data = SimulationSpec(seed=1, **FAST).to_dict()
        with pytest.raises(ValueError, match="unknown SimulationSpec"):
            SimulationSpec.from_dict({**data, "tenants": []})
        with pytest.raises(ValueError, match="unknown SimulationSpec"):
            replay(json.dumps({**data, "num_client": 3}))

    def test_missing_keys_take_the_trace_defaults(self):
        # A hand-written trace may name only what it cares about; an
        # absent physical key size means full fidelity.
        spec = SimulationSpec.from_dict({"seed": 5, "rounds": 1})
        assert spec == SimulationSpec(seed=5, rounds=1,
                                      physical_key_bits=None)


class TestDeterminism:
    def test_same_spec_same_checksums(self):
        spec = SimulationSpec(num_clients=3, rounds=2, seed=21, **FAST)
        first = FederationSimulator(spec).run()
        second = FederationSimulator(spec).run()
        assert first.checksum() == second.checksum()
        assert first.final_time == second.final_time

    def test_replay_from_json_matches_original(self):
        spec = SimulationSpec(
            num_clients=4, rounds=3, seed=11, min_quorum=2,
            fault_plan=(FaultPlan(seed=5)
                        .dropout("client-1", 1, 2)
                        .with_message_loss(0.05)),
            **FAST)
        original = FederationSimulator(spec).run()
        replayed = replay(spec.to_json())
        assert replayed.checksum() == original.checksum()
        assert [r.summands for r in replayed.rounds] == \
            [r.summands for r in original.rounds]

    def test_different_seeds_diverge(self):
        base = dict(num_clients=3, rounds=2, **FAST)
        a = FederationSimulator(SimulationSpec(seed=1, **base)).run()
        b = FederationSimulator(SimulationSpec(seed=2, **base)).run()
        assert a.checksum() != b.checksum()

    def test_faults_shape_the_rounds(self):
        spec = SimulationSpec(
            num_clients=4, rounds=2, seed=9, min_quorum=2,
            fault_plan=FaultPlan(seed=1).dropout("client-0", 0, 1),
            **FAST)
        result = FederationSimulator(spec).run()
        assert result.rounds[0].summands == 3
        assert result.rounds[1].summands == 4

    def test_straggler_delay_appears_in_modelled_time(self):
        quiet = SimulationSpec(num_clients=3, rounds=1, seed=4, **FAST)
        slow = SimulationSpec(
            num_clients=3, rounds=1, seed=4,
            fault_plan=FaultPlan(seed=1).straggler("client-1", 0, 17.0),
            **FAST)
        fast_time = FederationSimulator(quiet).run().final_time
        slow_time = FederationSimulator(slow).run().final_time
        assert slow_time >= fast_time + 17.0


class TestFailureReport:
    def test_quorum_failure_carries_replayable_trace(self):
        spec = SimulationSpec(
            num_clients=3, rounds=2, seed=3, min_quorum=3,
            fault_plan=FaultPlan(seed=1).crash("client-0", 0), **FAST)
        with pytest.raises(SimulationFailure) as exc_info:
            FederationSimulator(spec).run()
        failure = exc_info.value
        assert SimulationSpec.from_dict(
            json.loads(failure.spec.to_json())) == spec
        message = str(failure)
        assert f"seed={spec.seed}" in message
        assert spec.to_json() in message

    def test_trace_in_message_replays_to_same_failure(self):
        spec = SimulationSpec(
            num_clients=3, rounds=2, seed=3, min_quorum=3,
            fault_plan=FaultPlan(seed=1).crash("client-0", 0), **FAST)
        with pytest.raises(SimulationFailure) as exc_info:
            FederationSimulator(spec).run()
        failure = exc_info.value
        message = str(failure)
        trace_json = message[message.index("trace=") + len("trace="):]
        with pytest.raises(SimulationFailure) as exc_info:
            replay(trace_json)
        assert exc_info.value.round_index == failure.round_index

    def test_result_dict_is_json_serializable(self):
        spec = SimulationSpec(num_clients=2, rounds=1, seed=6, **FAST)
        result = FederationSimulator(spec).run()
        blob = json.dumps(result.to_dict())
        assert json.loads(blob)["trace"]["seed"] == 6
