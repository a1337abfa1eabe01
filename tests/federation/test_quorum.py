"""Quorum-based partial aggregation: k-of-n rounds decode exactly."""

import random
import zlib

import numpy as np
import pytest

from repro.federation.coordinator import DurableCoordinator
from repro.federation.faults import (
    FaultInjector,
    FaultPlan,
    QuorumError,
    RetryPolicy,
)
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    FederationRuntime,
)
from repro.federation.shard import ShardedAggregationService
from repro.federation.wal import DECRYPT_COMMITTED, ROUND_CLOSE


def make_runtime(num_clients=8, **kwargs):
    kwargs.setdefault("key_bits", 256)
    kwargs.setdefault("physical_key_bits", 256)
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=num_clients,
                             **kwargs)


def client_vectors(num_clients, length=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.5, 0.5, size=length) for _ in range(num_clients)]


class TestPartialSumDecode:
    """Satellite: k-of-n aggregation matches the true k-client sum."""

    @pytest.mark.parametrize("bc_capacity", ["nominal", "physical"])
    def test_partial_sum_within_quantization_error(self, bc_capacity):
        plan = (FaultPlan(seed=0).crash("client-5", 0)
                .crash("client-6", 0).crash("client-7", 0))
        runtime = make_runtime(num_clients=8, bc_capacity=bc_capacity,
                               fault_plan=plan, min_quorum=5)
        vectors = client_vectors(8)
        decoded = runtime.aggregator.aggregate(vectors)
        surviving = sum(vectors[:5])
        step = runtime.aggregator.scheme.quantization_step
        # 5 quantized summands: at most 5 half-steps of rounding error.
        # A wrong Eq. 6 offset (K instead of k) would be off by ~3 * alpha.
        assert np.allclose(decoded, surviving, atol=5 * step)
        report = runtime.aggregator.last_round
        assert report.partial
        assert report.summands == 5
        assert report.survivors == [f"client-{i}" for i in range(5)]
        assert sorted(name for name, _ in report.dropped) == \
            ["client-5", "client-6", "client-7"]
        assert all(reason == "offline" for _, reason in report.dropped)

    def test_full_round_is_not_partial(self):
        runtime = make_runtime(num_clients=4)
        vectors = client_vectors(4)
        decoded = runtime.aggregator.aggregate(vectors)
        step = runtime.aggregator.scheme.quantization_step
        assert np.allclose(decoded, sum(vectors), atol=4 * step)
        assert not runtime.aggregator.last_round.partial
        assert runtime.aggregator.last_round.summands == 4

    def test_average_divides_by_survivors(self):
        plan = FaultPlan().crash("client-3", 0)
        runtime = make_runtime(num_clients=4, fault_plan=plan, min_quorum=3)
        vectors = client_vectors(4)
        averaged = runtime.aggregator.average(vectors)
        step = runtime.aggregator.scheme.quantization_step
        assert np.allclose(averaged, sum(vectors[:3]) / 3, atol=3 * step)

    def test_quorum_error_when_too_few_survive(self):
        plan = (FaultPlan().crash("client-2", 0).crash("client-3", 0))
        runtime = make_runtime(num_clients=4, fault_plan=plan, min_quorum=3)
        with pytest.raises(QuorumError) as excinfo:
            runtime.aggregator.aggregate(client_vectors(4))
        error = excinfo.value
        assert error.required == 3
        assert error.survivors == ["client-0", "client-1"]

    def test_impossible_quorum_rejected(self):
        runtime = make_runtime(num_clients=4)
        with pytest.raises(ValueError):
            runtime.aggregator.aggregate(client_vectors(4), min_quorum=5)
        with pytest.raises(ValueError):
            runtime.aggregator.aggregate(client_vectors(4), min_quorum=0)

    def test_deadline_excludes_slow_straggler(self):
        plan = FaultPlan().straggler("client-1", 0, delay_seconds=60.0)
        runtime = make_runtime(num_clients=4, fault_plan=plan, min_quorum=3,
                               round_deadline_seconds=10.0)
        vectors = client_vectors(4)
        decoded = runtime.aggregator.aggregate(vectors)
        step = runtime.aggregator.scheme.quantization_step
        expected = vectors[0] + vectors[2] + vectors[3]
        assert np.allclose(decoded, expected, atol=3 * step)
        assert ("client-1", "deadline") in runtime.aggregator.last_round.dropped
        assert runtime.ledger.count("fault.deadline") == 1

    def test_tolerated_straggler_charges_delay(self):
        plan = FaultPlan().straggler("client-1", 0, delay_seconds=5.0)
        runtime = make_runtime(num_clients=4, fault_plan=plan,
                               round_deadline_seconds=10.0)
        runtime.aggregator.aggregate(client_vectors(4))
        assert runtime.ledger.seconds("fault.straggler") == 5.0
        assert runtime.aggregator.last_round.summands == 4

    @pytest.mark.parametrize("entry", ["aggregate", "durable", "sharded"])
    def test_lost_uploads_degrade_every_entry_point_alike(self, entry):
        """An upload whose transfer exhausts its retries is charged as a
        ``lost_update`` and dropped, and quorum decides -- through every
        round entry point, whether the plan holds only a loss process or
        schedules events too.  (Loss seed 2 drops the uploads of
        clients 2 and 3 and no download.)"""
        lossy = FaultPlan(seed=2).with_message_loss(0.25)
        vectors = client_vectors(6)
        for plan in (lossy, lossy.straggler("client-0", 0, 2.0)):
            runtime = make_runtime(
                num_clients=6, fault_plan=plan, min_quorum=2,
                retry_policy=RetryPolicy(max_retries=0))
            run_round = {
                "aggregate": runtime.aggregator.aggregate,
                "durable": DurableCoordinator(runtime.aggregator).run_round,
                "sharded": ShardedAggregationService(
                    runtime.aggregator, seed=runtime.seed).run_round,
            }[entry]
            decoded = run_round(vectors)  # no ChannelError escapes
            step = runtime.aggregator.scheme.quantization_step
            expected = sum(vectors[i] for i in (0, 1, 4, 5))
            assert np.allclose(decoded, expected, atol=4 * step)
            report = runtime.aggregator.last_round
            assert report.dropped == [("client-2", "lost"),
                                      ("client-3", "lost")]
            assert report.summands == 4
            assert runtime.ledger.count("fault.lost_update") == 2
            assert runtime.ledger.count("fault.giveup") == 2
            assert runtime.ledger.payload_bytes("fault.lost_update") == \
                runtime.ledger.payload_bytes("fault.giveup")
            assert [kind for kind, _, _ in runtime.injector.triggered
                    if kind != "straggler"] == ["lost_update"] * 2

    @pytest.mark.parametrize("entry", ["aggregate", "durable"])
    def test_a_lost_download_degrades_like_a_lost_upload(self, entry):
        """The sum is computed (and, journaled, past ``quorum_reached``)
        before the downloads go out: a copy that exhausts its retries is
        a ``lost_update`` with its wasted bytes, every other survivor is
        still served and charged, and the round returns its sum.  (Loss
        seed 5 drops no upload and exactly client-2's download.)"""
        vectors = client_vectors(4)
        expected = make_runtime(num_clients=4).aggregator.aggregate(vectors)
        runtime = make_runtime(
            num_clients=4, min_quorum=2,
            fault_plan=FaultPlan(seed=5).with_message_loss(0.15),
            retry_policy=RetryPolicy(max_retries=0))
        coordinator = DurableCoordinator(runtime.aggregator)
        run_round = {"aggregate": runtime.aggregator.aggregate,
                     "durable": coordinator.run_round}[entry]
        decoded = run_round(vectors)  # no ChannelError escapes
        assert np.array_equal(decoded, expected)
        assert runtime.aggregator.last_round.dropped == []
        assert runtime.aggregator.last_round.summands == 4
        ledger, stats = runtime.ledger, runtime.channel.stats
        assert ledger.count("comm.download.gradients") == 4
        assert stats.messages == 4 + 3
        assert ledger.count("fault.giveup") == 1
        assert ledger.count("fault.lost_update") == 1
        assert ledger.payload_bytes("fault.lost_update") == \
            ledger.payload_bytes("fault.giveup") > 0
        assert runtime.injector.triggered == [("lost_update", "client-2", 0)]
        if entry == "durable":
            assert [record.kind for record in coordinator.wal.records[-2:]] \
                == [DECRYPT_COMMITTED, ROUND_CLOSE]

    def test_round_cursor_advances_and_lines_up_events(self):
        plan = FaultPlan().crash("client-3", 1)
        runtime = make_runtime(num_clients=4, fault_plan=plan, min_quorum=3)
        vectors = client_vectors(4)
        runtime.aggregator.aggregate(vectors)  # round 0: all alive
        assert runtime.aggregator.last_round.summands == 4
        runtime.aggregator.aggregate(vectors)  # round 1: crash fires
        assert runtime.aggregator.last_round.summands == 3
        assert runtime.aggregator.round_cursor == 2

    def test_crashed_client_zero_hands_the_charge_on(self):
        """The representative is the first client through the gate, not
        client-0: with client-0 down the round still pays exactly one
        client's encrypt / pack / decrypt / decode -- what it pays when
        the crash hits the last client instead."""
        vectors = client_vectors(4, seed=5)
        snapshots = []
        for crashed in ("client-0", "client-3"):
            runtime = make_runtime(
                num_clients=4, min_quorum=3,
                fault_plan=FaultPlan().crash(crashed, 0))
            runtime.aggregator.aggregate(vectors)
            assert runtime.aggregator.last_round.dropped == \
                [(crashed, "offline")]
            snapshots.append({
                category: entry.count for category, entry in runtime.ledger
                if category.startswith(("he.", "pipeline."))})
        first_down, last_down = snapshots
        assert first_down == last_down
        for category in ("he.encrypt", "he.decrypt", "he.add",
                         "pipeline.encode_pack", "pipeline.unpack_decode"):
            assert first_down[category] > 0, category

    def test_fate_runtime_also_supports_quorum(self):
        plan = FaultPlan().crash("client-3", 0)
        runtime = FederationRuntime(FATE_SYSTEM, num_clients=4,
                                    key_bits=256, physical_key_bits=256,
                                    fault_plan=plan, min_quorum=3)
        vectors = client_vectors(4, seed=7)
        decoded = runtime.aggregator.aggregate(vectors)
        step = runtime.aggregator.scheme.quantization_step
        assert np.allclose(decoded, sum(vectors[:3]), atol=3 * step)


class TestCiphertextValidation:
    def test_out_of_range_ciphertext_rejected(self):
        runtime = make_runtime(num_clients=2)
        bound = runtime.server_engine.public_key.n_squared
        with pytest.raises(ValueError):
            runtime.aggregator.validate_ciphertexts([0, bound])
        with pytest.raises(ValueError):
            runtime.aggregator.validate_ciphertexts([-1])
        with pytest.raises(ValueError):
            runtime.aggregator.validate_ciphertexts(["junk"])
        runtime.aggregator.validate_ciphertexts([0, bound - 1])  # in range


class TestRuntimeQuorumValidation:
    def test_invalid_runtime_quorum_rejected(self):
        with pytest.raises(ValueError):
            make_runtime(num_clients=4, min_quorum=5)
        with pytest.raises(ValueError):
            make_runtime(num_clients=4, min_quorum=0)

    def test_injector_only_with_plan(self):
        """No plan *is* the empty plan: a runtime built without
        ``fault_plan`` holds an injector over ``FaultPlan()`` and runs
        byte for byte like one handed an explicit empty plan -- same
        journals, same ledger rows, same weights -- and neither
        injector fires or draws."""
        seed = 7

        def run(sharded, **kwargs):
            runtime = make_runtime(num_clients=4, seed=seed, **kwargs)
            assert isinstance(runtime.injector, FaultInjector)
            if sharded:
                service = ShardedAggregationService(runtime.aggregator,
                                                    seed=runtime.seed)
                run_round = service.run_round
            else:
                coordinator = DurableCoordinator(runtime.aggregator)
                run_round = coordinator.run_round
            weights = [run_round(client_vectors(4, seed=r), round_index=r)
                       .tolist() for r in range(2)]
            nodes = ({**service.leaves, "root": service.root} if sharded
                     else {"coordinator": coordinator})
            injector = runtime.injector
            assert injector.triggered == []
            assert injector._rng.getstate() == random.Random(
                injector.plan.seed).getstate()  # not one draw
            return {
                "wal": {name: zlib.crc32(node.wal.image())
                        for name, node in nodes.items()},
                "ledger": [(category, entry.seconds.hex(), entry.count,
                            entry.payload_bytes)
                           for category, entry in runtime.ledger],
                "weights": weights,
            }

        for sharded in (False, True):
            bare = run(sharded)
            assert bare["wal"] and bare["ledger"]
            assert bare == run(sharded, fault_plan=FaultPlan(seed=seed))
