"""Deterministic simulator: replayable runs, virtual time only."""

from __future__ import annotations

import json

import pytest

from repro.federation.eventloop import VirtualClock
from repro.federation.faults import FaultPlan
from repro.testing.simulator import (
    FederationSimulator,
    FederationSpec,
    SimulationFailure,
    SimulationSpec,
    replay,
)

FAST = dict(key_bits=256, physical_key_bits=128, vector_size=6)


def one(rounds=3, topology="plain", **federation):
    """A fast one-federation spec."""
    return SimulationSpec(rounds=rounds, topology=topology,
                          federations=(FederationSpec(**federation),),
                          **FAST)


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
        spec = one(
            num_clients=5, rounds=2, seed=13, min_quorum=3,
            round_deadline_seconds=20.0,
            fault_plan=(FaultPlan(seed=3)
                        .crash("client-4", 1)
                        .dropout("client-2", 0, 1)
                        .straggler("client-1", 1, 9.0)
                        .with_message_loss(0.02)
                        .with_corruption(0.01)))
        assert SimulationSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_roundtrip_without_fault_plan(self):
        spec = one(seed=1)
        assert SimulationSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_unknown_keys_are_rejected(self):
        data = one(seed=1).to_dict()
        with pytest.raises(ValueError, match="unknown SimulationSpec"):
            SimulationSpec.from_dict({**data, "tenants": []})
        with pytest.raises(ValueError, match="unknown SimulationSpec"):
            replay(json.dumps({**data, "num_client": 3}))
        with pytest.raises(ValueError, match="unknown FederationSpec"):
            replay(json.dumps({**data, "federations": [{"wieght": 2}]}))

    def test_missing_keys_take_the_trace_defaults(self):
        # A hand-written trace may name only what it cares about; an
        # absent physical key size means full fidelity.
        spec = SimulationSpec.from_dict(
            {"rounds": 1, "federations": [{"seed": 5}]})
        assert spec == SimulationSpec(
            rounds=1, physical_key_bits=None,
            federations=(FederationSpec(seed=5),))


class TestTraceValidation:
    """A trace is outside input: every shape the one simulator cannot
    run is a ``ValueError`` from ``from_dict`` and from ``replay``."""

    TWO = [{"tenant_id": "tenant-a"}, {"tenant_id": "tenant-b"}]

    @pytest.mark.parametrize("data, match", [
        ({"topology": "mesh"}, "unknown topology 'mesh'"),
        ({"topology": "sharded", "federations": TWO},
         "runs one federation, not 2"),
        ({"topology": "plain", "federations": TWO},
         "runs one federation, not 2"),
        ({"topology": "pool",
          "federations": [{"tenant_id": "t"}, {"tenant_id": "t"}]},
         "duplicated tenant ids"),
        ({"topology": "durable", "rebalance_targets": [2]},
         "need topology 'pool'"),
        ({"federations": []}, "at least one federation"),
    ], ids=["unknown-topology", "two-sharded", "two-plain",
            "duplicated-tenant", "pool-field-elsewhere", "no-federation"])
    def test_unrunnable_specs_are_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            SimulationSpec.from_dict(data)
        with pytest.raises(ValueError, match=match):
            replay(json.dumps(data))

    @pytest.mark.parametrize("old", [
        {"durable": True, "num_clients": 3, "seed": 11},
        {"sharded": True, "num_shards": 2},
        {"tenants": [{"tenant_id": "tenant-a", "seed": 11}],
         "initial_shards": 1},
    ], ids=["durable", "sharded", "tenants"])
    def test_traces_of_the_old_shape_are_rejected(self, old):
        with pytest.raises(ValueError, match="unknown SimulationSpec"):
            SimulationSpec.from_dict(old)
        with pytest.raises(ValueError, match="unknown SimulationSpec"):
            replay(json.dumps(old))

    @pytest.mark.parametrize("spec", [
        one(rounds=2, topology="sharded", num_clients=5, seed=11,
            fault_plan=FaultPlan(seed=11).shard_crash(
                "shard-0", 1, after_record=2)),
        SimulationSpec(
            rounds=3, topology="pool", rebalance_targets=(3, 1, 2),
            federations=(FederationSpec("tenant-a", num_clients=3,
                                        seed=11),
                         FederationSpec("tenant-b", seed=23)),
            **FAST),
    ], ids=["sharded", "pool"])
    def test_every_topology_replays_through_the_one_replay(self, spec):
        original = FederationSimulator(spec).run()
        replayed = replay(spec.to_json())
        assert replayed.spec == spec
        assert replayed.checksum() == original.checksum()
        assert replayed.final_weights == original.final_weights


class TestDeterminism:
    def test_same_spec_same_checksums(self):
        spec = one(num_clients=3, rounds=2, seed=21)
        first = FederationSimulator(spec).run()
        second = FederationSimulator(spec).run()
        assert first.checksum() == second.checksum()
        assert first.final_time == second.final_time

    def test_replay_from_json_matches_original(self):
        spec = one(
            num_clients=4, rounds=3, seed=11, min_quorum=2,
            fault_plan=(FaultPlan(seed=5)
                        .dropout("client-1", 1, 2)
                        .with_message_loss(0.05)))
        original = FederationSimulator(spec).run()
        replayed = replay(spec.to_json())
        assert replayed.checksum() == original.checksum()
        assert [r.summands for r in replayed.rounds] == \
            [r.summands for r in original.rounds]

    def test_different_seeds_diverge(self):
        base = dict(num_clients=3, rounds=2)
        a = FederationSimulator(one(seed=1, **base)).run()
        b = FederationSimulator(one(seed=2, **base)).run()
        assert a.checksum() != b.checksum()

    def test_faults_shape_the_rounds(self):
        spec = one(
            num_clients=4, rounds=2, seed=9, min_quorum=2,
            fault_plan=FaultPlan(seed=1).dropout("client-0", 0, 1))
        result = FederationSimulator(spec).run()
        assert result.rounds[0].summands == 3
        assert result.rounds[1].summands == 4

    def test_straggler_delay_appears_in_modelled_time(self):
        quiet = one(num_clients=3, rounds=1, seed=4)
        slow = one(
            num_clients=3, rounds=1, seed=4,
            fault_plan=FaultPlan(seed=1).straggler("client-1", 0, 17.0))
        fast_time = FederationSimulator(quiet).run().final_time
        slow_time = FederationSimulator(slow).run().final_time
        assert slow_time >= fast_time + 17.0


class TestFailureReport:
    def test_quorum_failure_carries_replayable_trace(self):
        spec = one(
            num_clients=3, rounds=2, seed=3, min_quorum=3,
            fault_plan=FaultPlan(seed=1).crash("client-0", 0))
        with pytest.raises(SimulationFailure) as exc_info:
            FederationSimulator(spec).run()
        failure = exc_info.value
        assert SimulationSpec.from_dict(
            json.loads(failure.spec.to_json())) == spec
        message = str(failure)
        assert f"seed={spec.federations[0].seed}" in message
        assert spec.to_json() in message

    def test_trace_in_message_replays_to_same_failure(self):
        spec = one(
            num_clients=3, rounds=2, seed=3, min_quorum=3,
            fault_plan=FaultPlan(seed=1).crash("client-0", 0))
        with pytest.raises(SimulationFailure) as exc_info:
            FederationSimulator(spec).run()
        failure = exc_info.value
        message = str(failure)
        trace_json = message[message.index("trace=") + len("trace="):]
        with pytest.raises(SimulationFailure) as exc_info:
            replay(trace_json)
        assert exc_info.value.round_index == failure.round_index

    def test_result_dict_is_json_serializable(self):
        spec = one(num_clients=2, rounds=1, seed=6)
        result = FederationSimulator(spec).run()
        blob = json.dumps(result.to_dict())
        assert json.loads(blob)["trace"]["federations"][0]["seed"] == 6
