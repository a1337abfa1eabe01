"""Sharded aggregation: planning, leaf/root rounds, accounting."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.federation.coordinator import (
    CoordinatorError,
    RoundStateMachine,
    frame_tensor,
)
from repro.federation.eventloop import VirtualClock
from repro.federation.faults import FaultPlan, QuorumError
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import (
    MultiTenantAggregationService,
    RootCoordinator,
    ShardedAggregationService,
    cohort_sample,
    default_num_shards,
    plan_shards,
    segment_partials,
)
from repro.federation.tenancy import Tenant, TenantRegistry


def make_runtime(num_clients=6, seed=11, **kwargs):
    kwargs.setdefault("key_bits", 256)
    kwargs.setdefault("physical_key_bits", 128)
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=num_clients,
                             seed=seed, **kwargs)


def client_vectors(num_clients, length=5, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.5, 0.5, size=length)
            for _ in range(num_clients)]


def fake_partial(summands):
    return SimpleNamespace(meta=SimpleNamespace(summands=summands))


class TestPlanning:
    def test_default_num_shards_is_sqrt(self):
        assert default_num_shards(1) == 1
        assert default_num_shards(4) == 2
        assert default_num_shards(100) == 10
        assert default_num_shards(101) == 11
        with pytest.raises(ValueError):
            default_num_shards(0)

    def test_cohort_sample_deterministic_per_seed_and_round(self):
        first = cohort_sample(100, 20, seed=7, round_index=3)
        again = cohort_sample(100, 20, seed=7, round_index=3)
        other_round = cohort_sample(100, 20, seed=7, round_index=4)
        assert first == again
        assert first != other_round
        assert len(first) == 20
        assert first == sorted(set(first))
        assert all(0 <= i < 100 for i in first)

    def test_cohort_sample_validation(self):
        with pytest.raises(ValueError):
            cohort_sample(5, 6, seed=0, round_index=0)
        with pytest.raises(ValueError):
            cohort_sample(5, 0, seed=0, round_index=0)

    def test_plan_shards_partitions_the_cohort(self):
        cohort = list(range(10))
        groups = plan_shards(cohort, num_shards=3)
        assert [i for group in groups for i in group] == cohort
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1

    def test_plan_shards_respects_summand_capacity(self):
        groups = plan_shards(list(range(10)), num_shards=1,
                             max_summands=3)
        assert all(len(g) <= 3 for g in groups)
        assert [i for group in groups for i in group] == list(range(10))

    def test_plan_shards_validation(self):
        with pytest.raises(ValueError):
            plan_shards([])
        with pytest.raises(ValueError):
            plan_shards([1, 2], num_shards=0)
        with pytest.raises(ValueError):
            plan_shards([1, 2], max_summands=0)

    def test_segment_partials_under_capacity(self):
        partials = [fake_partial(3), fake_partial(2), fake_partial(4),
                    fake_partial(1)]
        segments = segment_partials(partials, max_summands=5)
        assert [[p.meta.summands for p in seg] for seg in segments] \
            == [[3, 2], [4, 1]]

    def test_segment_partials_rejects_oversized_partial(self):
        with pytest.raises(OverflowError):
            segment_partials([fake_partial(6)], max_summands=5)


class TestShardedRound:
    def test_sharded_sum_bit_identical_to_flat(self):
        vectors = client_vectors(6)
        flat = make_runtime(num_clients=6)
        expected = flat.aggregator.aggregate(vectors, round_index=0)

        sharded = make_runtime(num_clients=6)
        service = ShardedAggregationService(sharded.aggregator, seed=11)
        result = service.run_round(vectors, round_index=0)
        assert np.array_equal(np.asarray(result), np.asarray(expected))

    def test_report_accounts_for_every_cohort_member(self):
        runtime = make_runtime(num_clients=6)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        service.run_round(client_vectors(6), round_index=0)
        report = service.last_round
        dropped = [name for name, _ in report.dropped]
        assert sorted(report.survivors + dropped) \
            == sorted(report.cohort)
        assert report.summands == 6
        assert not report.partial

    def test_cohort_sampling_uses_a_subset(self):
        runtime = make_runtime(num_clients=8, min_quorum=2)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        service.run_round(client_vectors(8), round_index=0,
                          cohort_size=4)
        report = service.last_round
        assert len(report.cohort) == 4
        assert report.summands == 4

    def test_offline_parties_degrade_into_partial_aggregation(self):
        plan = FaultPlan(seed=0).crash("client-1", round_index=0)
        runtime = make_runtime(num_clients=6, fault_plan=plan,
                               min_quorum=3)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        vectors = client_vectors(6)
        result = service.run_round(vectors, round_index=0)
        report = service.last_round
        assert ("client-1", "offline") in report.dropped
        assert report.summands == 5
        # The partial sum is exactly the survivors' flat sum.
        twin = make_runtime(num_clients=6)
        survivors = [v for i, v in enumerate(vectors) if i != 1]
        expected = twin.aggregator.aggregate(survivors, round_index=0)
        assert np.array_equal(np.asarray(result), np.asarray(expected))

    def test_quorum_failure_below_min_quorum(self):
        plan = FaultPlan(seed=0)
        for i in range(4):
            plan = plan.crash(f"client-{i}", round_index=0)
        runtime = make_runtime(num_clients=6, fault_plan=plan,
                               min_quorum=3)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        with pytest.raises(QuorumError):
            service.run_round(client_vectors(6), round_index=0)
        assert service.last_round.summands == 2

    def test_quorum_failure_is_the_aggregators_last_round_too(self):
        """Flat or sharded, ``aggregator.last_round`` describes the
        round that just ended -- also when it ended below quorum."""
        plan = FaultPlan(seed=0)
        for i in range(4):
            plan = plan.crash(f"client-{i}", round_index=1)
        runtime = make_runtime(num_clients=6, fault_plan=plan,
                               min_quorum=3)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        vectors = client_vectors(6)
        service.run_round(vectors, round_index=0)
        with pytest.raises(QuorumError):
            service.run_round(vectors, round_index=1)
        last = runtime.aggregator.last_round
        assert last.round_index == 1
        assert last.survivors == service.last_round.survivors == \
            ["client-4", "client-5"]
        assert last.dropped == [(f"client-{i}", "offline")
                                for i in range(4)]
        assert last.summands == 2
        assert runtime.aggregator.round_cursor == 2

    def test_a_root_reduction_that_raises_does_not_complete_the_round(
            self, monkeypatch):
        """The aggregator only sees rounds that ended: when the root
        reduction raises, the cursor stays on the round in flight (the
        harness checkpoints it as ``rounds_completed``)."""
        runtime = make_runtime(num_clients=6)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        vectors = client_vectors(6)
        service.run_round(vectors, round_index=0)

        def reduce_round(self, partials, round_index, tag):
            raise CoordinatorError("root lost mid-reduction")

        monkeypatch.setattr(RootCoordinator, "reduce_round", reduce_round)
        with pytest.raises(CoordinatorError):
            service.run_round(vectors, round_index=1)
        assert runtime.aggregator.round_cursor == 1
        assert runtime.aggregator.last_round.round_index == 0
        assert service.last_round.round_index == 0

    def test_queue_overload_rejects_one_shard_without_silent_loss(self):
        plan = FaultPlan(seed=0).queue_overload("shard-0", 0)
        runtime = make_runtime(num_clients=6, fault_plan=plan,
                               min_quorum=2)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        vectors = client_vectors(6)
        result = service.run_round(vectors, round_index=0)
        report = service.last_round
        rejected = [name for name, why in report.dropped
                    if why == "rejected"]
        assert rejected == report.shard_groups["shard-0"]
        ledger = runtime.ledger
        assert ledger.count("fault.queue_overload") == 1
        assert ledger.count("comm.admission.reject") == len(rejected)
        # Accepted uploads all made it into the aggregate.
        survivors = [v for i, v in enumerate(vectors)
                     if f"client-{i}" not in rejected]
        twin = make_runtime(num_clients=6)
        expected = twin.aggregator.aggregate(survivors, round_index=0)
        assert np.array_equal(np.asarray(result), np.asarray(expected))
        # Next round the overload is gone and everyone is back.
        service.run_round(vectors, round_index=1)
        assert service.last_round.summands == 6

    def test_backpressure_drains_and_retries_under_tiny_queue(self):
        runtime = make_runtime(num_clients=6)
        service = ShardedAggregationService(runtime.aggregator, seed=11,
                                            num_shards=1,
                                            queue_capacity=2)
        result = service.run_round(client_vectors(6), round_index=0)
        report = service.last_round
        assert report.summands == 6
        assert report.dropped == []
        stats = service.async_channel.stats["shard-0"]
        assert stats.peak_depth <= 2
        assert stats.accepted == stats.delivered == 6
        assert np.asarray(result).shape == (5,)

    def test_round_cursor_and_last_round_mirror_flat_aggregator(self):
        runtime = make_runtime(num_clients=4)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        service.run_round(client_vectors(4))
        assert runtime.aggregator.round_cursor == 1
        last = runtime.aggregator.last_round
        assert last.round_index == 0
        assert last.summands == 4
        assert sorted(last.survivors) \
            == [f"client-{i}" for i in range(4)]

    def test_input_validation(self):
        runtime = make_runtime(num_clients=2)
        service = ShardedAggregationService(runtime.aggregator, seed=11)
        with pytest.raises(ValueError):
            service.run_round([])
        with pytest.raises(ValueError):
            service.run_round([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            service.run_round(client_vectors(2), min_quorum=5)


class TestHeldTensors:
    """What a node sums without decoding its journal is what decoding
    its journal would give."""

    def test_held_uploads_and_partials_equal_their_frames(self,
                                                          monkeypatch):
        summed = []
        upload_tensors = RoundStateMachine.upload_tensors

        def spy(machine, engine):
            tensors = upload_tensors(machine, engine)
            state = machine.round
            summed.append((engine, [state.upload_frames[client]
                                    for client in state.survivors],
                           tensors))
            return tensors

        monkeypatch.setattr(RoundStateMachine, "upload_tensors", spy)
        # The benchmark's two-tenant fan-in, at 16 clients a tenant.
        tenants = (("tenant-a", 1.0), ("tenant-b", 2.0))
        runtimes = {tenant_id: make_runtime(16, seed=11 + 10 * offset)
                    for offset, (tenant_id, _) in enumerate(tenants)}
        service = MultiTenantAggregationService(
            TenantRegistry([Tenant(tenant_id, weight=weight,
                                   quota_rate=1.0e6, quota_burst=32)
                            for tenant_id, weight in tenants]),
            clock=VirtualClock(), queue_capacity=64, elastic=True)
        for tenant_id, runtime in runtimes.items():
            service.attach(tenant_id, runtime.aggregator)
        vectors = {tenant_id: client_vectors(16, length=8, seed=offset)
                   for offset, tenant_id in enumerate(runtimes)}
        report = service.run_round(vectors, 0)
        assert {o.status for o in report.outcomes.values()} == {"ok"}

        uploads = 0
        for engine, frames, tensors in summed:
            assert len(tensors) == len(frames)
            for frame, held in zip(frames, tensors):
                decoded = frame_tensor(frame, engine)
                assert held.meta == decoded.meta
                assert held.words == decoded.words
                uploads += 1
        partials = 0
        for tenant_id, tenant_service in service.services.items():
            engine = runtimes[tenant_id].aggregator.server_engine
            for leaf in tenant_service.leaves.values():
                state = leaf.machine.round
                decoded = frame_tensor(state.partial_frame, engine)
                assert state.held_partial.meta == decoded.meta
                assert state.held_partial.words == decoded.words
                partials += 1
            for node in (*tenant_service.leaves.values(),
                         tenant_service.root):
                # Uploads are held for the open round only.
                assert node.machine.round.closed
                assert node.machine.round.held_uploads == {}
        assert len(summed) == partials + len(service.services)
        assert partials > 2
        assert uploads == 2 * 16 + partials
