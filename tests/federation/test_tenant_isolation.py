"""The PR's headline invariant, end to end: tenant-scoped fault
containment and crash-safe elastic rebalancing.

``tenant_isolation_check`` asserts the byte-identical guarantee -- a
quiet tenant's per-round decoded weights are ``==`` between a run where
its neighbour floods and crashes and a solo run with the same seeds.
``crash_sweep`` on a tenancy spec kills the shard pool at every topology-journal
record and asserts recovery is bit-identical to the uninterrupted run.
"""

import json

import pytest

from repro.federation.faults import FaultPlan
from repro.testing.simulator import (
    MultiTenantSimulator,
    SimulationFailure,
    TenancySpec,
    TenantSpec,
    crash_sweep,
    replay,
    tenant_isolation_check,
)


def noisy_spec(rounds=3, rebalance_targets=None):
    """tenant-a floods then crashes; tenant-b stays quiet."""
    plan = (FaultPlan(seed=3)
            .tenant_flood("tenant-a", 1, intensity=3)
            .tenant_crash("tenant-a", 2))
    return TenancySpec(
        rounds=rounds,
        vector_size=6,
        key_bits=256,
        physical_key_bits=128,
        queue_capacity=32,
        tenants=(
            TenantSpec("tenant-a", num_clients=3, weight=1.0,
                       quota_rate=2.0, quota_burst=8, seed=11,
                       min_quorum=1, fault_plan=plan),
            TenantSpec("tenant-b", num_clients=4, weight=2.0, seed=23),
        ),
        rebalance_targets=rebalance_targets,
    )


class TestFaultContainment:
    def test_faulty_tenant_degrades_only_itself(self):
        result = MultiTenantSimulator(noisy_spec()).run()
        # tenant-a: clean round, flood round (absorbed, still ok under
        # min_quorum), then crashed for the rest of the run.
        assert result.statuses["tenant-a"] == ["ok", "ok", "crashed"]
        assert len(result.final_weights["tenant-a"]) == 2
        # tenant-b never notices.
        assert result.statuses["tenant-b"] == ["ok", "ok", "ok"]
        assert len(result.final_weights["tenant-b"]) == 3
        counts = result.tenant_fault_counts["tenant-a"]
        assert counts["tenant_flood"] == 1
        assert counts["tenant_crash"] >= 1
        assert result.tenant_fault_counts["tenant-b"] == {}

    def test_quiet_tenant_is_byte_identical_to_solo_run(self):
        report = tenant_isolation_check(noisy_spec(), "tenant-b")
        assert report.rounds_compared == 3
        assert report.noisy_checksum == report.solo_checksum

    def test_isolation_holds_under_elastic_rebalancing_too(self):
        report = tenant_isolation_check(
            noisy_spec(rebalance_targets=(2, 3, 1)), "tenant-b")
        assert report.rounds_compared == 3
        assert report.noisy_checksum == report.solo_checksum

    def test_solo_of_unknown_tenant_is_rejected(self):
        with pytest.raises(ValueError):
            noisy_spec().solo("tenant-z")

    def test_spec_round_trips_through_json(self):
        spec = noisy_spec(rebalance_targets=(3, 1, 2))
        assert TenancySpec.from_dict(json.loads(spec.to_json())) == spec


class TestRebalanceCrashSweep:
    def quiet_spec(self):
        """Fault-free two-tenant spec that forces splits and merges."""
        return TenancySpec(
            rounds=3,
            vector_size=6,
            key_bits=256,
            physical_key_bits=128,
            queue_capacity=32,
            tenants=(
                TenantSpec("tenant-a", num_clients=3, seed=11),
                TenantSpec("tenant-b", num_clients=4, seed=23),
            ),
            rebalance_targets=(3, 1, 2),
        )

    def test_kill_at_every_topology_record_recovers_bit_identically(self):
        report = crash_sweep(self.quiet_spec())
        assert report.mode == "shard-pool-rebalance"
        # targets (3, 1, 2): two splits, then two merges, then one
        # split -- five journaled topology records, each a boundary.
        assert report.wal_records == 5
        assert report.boundaries_tested == 5
        # The report carries the spec the sweep actually ran.
        assert report.spec == self.quiet_spec()

    def test_killed_run_actually_fails_over(self):
        killed = TenancySpec.from_dict(
            {**self.quiet_spec().to_dict(), "pool_kill_after_lsn": 0})
        result = MultiTenantSimulator(killed).run()
        assert result.pool_failovers >= 1
        reference = MultiTenantSimulator(self.quiet_spec()).run()
        assert result.checksum() == reference.checksum()

    def test_sweep_rejects_prearmed_kill(self):
        killed = TenancySpec.from_dict(
            {**self.quiet_spec().to_dict(), "pool_kill_after_lsn": 0})
        with pytest.raises(ValueError):
            crash_sweep(killed)

    def test_sweep_rejects_specs_that_never_rebalance(self):
        # Elastic target for 7 combined clients is ceil(sqrt(7)) = 3
        # shards; starting there leaves the topology journal empty.
        static = TenancySpec.from_dict(
            {**self.quiet_spec().to_dict(), "rebalance_targets": None,
             "initial_shards": 3})
        with pytest.raises(ValueError):
            crash_sweep(static)

    def test_divergence_raises_replayable_failure(self):
        spec = self.quiet_spec()
        try:
            raise SimulationFailure(spec, "synthetic divergence")
        except SimulationFailure as failure:
            assert "trace=" in str(failure)
            assert spec.to_json() in str(failure)

    def test_failure_trace_replays_the_tenancy_run(self):
        """The trace in a tenancy failure used to parse as a default
        flat ``SimulationSpec`` (the ``tenants`` key silently dropped)
        and "replay" a 4-client run that had nothing to do with it."""
        spec = self.quiet_spec()
        message = str(SimulationFailure(spec, "synthetic divergence"))
        trace = message[message.index("trace=") + len("trace="):]
        replayed = replay(trace)
        assert replayed.spec == spec
        assert replayed.checksum() == \
            MultiTenantSimulator(spec).run().checksum()

    def test_unknown_trace_keys_are_rejected(self):
        data = self.quiet_spec().to_dict()
        with pytest.raises(ValueError, match="unknown TenancySpec"):
            TenancySpec.from_dict({**data, "num_clients": 4})
        with pytest.raises(ValueError, match="unknown TenantSpec"):
            TenancySpec.from_dict(
                {**data, "tenants": [{"tenant_id": "t", "wieght": 2}]})
