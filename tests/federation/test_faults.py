"""Tests for the fault model: plans, injector, retry policy."""

import pytest

from repro.federation.faults import (
    COORDINATOR_CRASH,
    DEFAULT_RETRY_POLICY,
    FAILOVER,
    LOST_UPDATE,
    QUEUE_OVERLOAD,
    SHARD_CRASH,
    STRAGGLER,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    QuorumError,
    RetryPolicy,
)
from repro.ledger import CostLedger


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", "client-0", 0)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", "client-0", -1)

    def test_dropout_needs_rejoin(self):
        with pytest.raises(ValueError):
            FaultEvent("dropout", "client-0", 2)
        with pytest.raises(ValueError):
            FaultEvent("dropout", "client-0", 2, rejoin_round=2)

    def test_straggler_needs_delay(self):
        with pytest.raises(ValueError):
            FaultEvent("straggler", "client-0", 1)


class TestFaultPlan:
    def test_fluent_builders_are_pure(self):
        base = FaultPlan(seed=3)
        derived = base.crash("client-1", 0).with_message_loss(0.1)
        assert base.events == ()
        assert base.loss_probability == 0.0
        assert len(derived.events) == 1
        assert derived.loss_probability == 0.1
        assert derived.seed == 3

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_probability=1.0)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_probability=-0.1)

    def test_events_for_filters_by_party(self):
        plan = (FaultPlan().crash("a", 0).crash("b", 1)
                .straggler("a", 2, 5.0))
        assert len(plan.events_for("a")) == 2
        assert len(plan.events_for("b")) == 1
        assert plan.events_for("c") == []


class TestFaultInjector:
    def test_crash_is_permanent(self):
        plan = FaultPlan().crash("client-2", round_index=3)
        injector = FaultInjector(plan)
        assert injector.is_alive("client-2", 2)
        assert not injector.is_alive("client-2", 3)
        assert not injector.is_alive("client-2", 100)
        assert injector.is_alive("client-1", 100)

    def test_crash_survives_incarnations(self):
        plan = FaultPlan().crash("client-0", 0)
        assert not FaultInjector(plan, incarnation=4).is_alive("client-0", 5)

    def test_dropout_window_and_rejoin(self):
        plan = FaultPlan().dropout("client-1", 2, rejoin_round=4)
        injector = FaultInjector(plan)
        assert injector.is_alive("client-1", 1)
        assert not injector.is_alive("client-1", 2)
        assert not injector.is_alive("client-1", 3)
        assert injector.is_alive("client-1", 4)

    def test_dropout_does_not_outlive_restart(self):
        plan = FaultPlan().dropout("client-1", 2, rejoin_round=4)
        resumed = FaultInjector(plan, incarnation=1)
        assert resumed.is_alive("client-1", 2)

    def test_straggler_delay_is_round_scoped(self):
        plan = FaultPlan().straggler("client-0", 1, delay_seconds=7.5)
        injector = FaultInjector(plan)
        assert injector.straggler_delay("client-0", 1) == 7.5
        assert injector.straggler_delay("client-0", 2) == 0.0

    def test_events_charge_fault_categories(self):
        ledger = CostLedger()
        plan = FaultPlan().crash("client-0", 0)
        injector = FaultInjector(plan, ledger=ledger)
        injector.is_alive("client-0", 0)
        injector.record(STRAGGLER, "client-1", 0, seconds=3.0)
        injector.record(LOST_UPDATE, "client-2", 0, payload_bytes=100)
        assert ledger.count("fault.crash") == 1
        assert ledger.seconds("fault.straggler") == 3.0
        assert ledger.payload_bytes("fault.lost_update") == 100
        assert injector.triggered_counts() == {
            "crash": 1, "straggler": 1, "lost_update": 1}

    def test_loss_draws_deterministic_per_seed(self):
        plan = FaultPlan(seed=11).with_message_loss(0.4)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        assert [a.should_drop_message() for _ in range(50)] == \
               [b.should_drop_message() for _ in range(50)]

    def test_incarnation_salts_the_draws(self):
        plan = FaultPlan(seed=11).with_message_loss(0.4)
        base = FaultInjector(plan)
        resumed = FaultInjector(plan, incarnation=1)
        assert [base.should_drop_message() for _ in range(64)] != \
               [resumed.should_drop_message() for _ in range(64)]

    def test_zero_probabilities_never_fire(self):
        injector = FaultInjector(FaultPlan())
        assert not any(injector.should_drop_message() for _ in range(100))
        assert not any(injector.should_corrupt() for _ in range(100))

    def test_corrupt_payload_flips_one_bit(self):
        injector = FaultInjector(FaultPlan(seed=5))
        payload = [12345678901234567890, 42]
        tampered = injector.corrupt_payload(payload)
        assert tampered != payload
        assert payload == [12345678901234567890, 42]  # original untouched
        differing = [i for i in range(2) if tampered[i] != payload[i]]
        assert len(differing) == 1
        xor = tampered[differing[0]] ^ payload[differing[0]]
        assert xor & (xor - 1) == 0  # exactly one bit

    def test_corrupt_passthrough_for_non_ciphertext(self):
        injector = FaultInjector(FaultPlan())
        assert injector.corrupt_payload({"x": 1}) == {"x": 1}

    def test_negative_incarnation_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), incarnation=-1)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_retries=10, base_delay=0.1,
                             backoff_factor=2.0, max_delay=0.5)
        delays = [policy.backoff_seconds(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounded_fraction(self):
        import random
        policy = RetryPolicy(max_retries=3, base_delay=1.0, jitter=0.25)
        rng = random.Random(0)
        for _ in range(100):
            delay = policy.backoff_seconds(0, rng=rng)
            assert 1.0 <= delay < 1.25

    def test_exhausted_by_retries(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.exhausted(2, 0.0)
        assert policy.exhausted(3, 0.0)

    def test_exhausted_by_time_budget(self):
        policy = RetryPolicy(max_retries=100, time_budget=1.0)
        assert not policy.exhausted(1, 0.5)
        assert policy.exhausted(1, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(time_budget=0.0)

    def test_default_policy_has_backoff(self):
        assert DEFAULT_RETRY_POLICY.base_delay > 0
        assert DEFAULT_RETRY_POLICY.jitter > 0


class TestQuorumError:
    def test_message_names_survivors(self):
        error = QuorumError(3, ["client-0", "client-2"], 3, 4)
        assert "round 3" in str(error)
        assert "client-2" in str(error)
        assert error.required == 3
        assert error.survivors == ["client-0", "client-2"]


class TestCoordinatorFaultEvents:
    def test_coordinator_kinds_need_after_record(self):
        with pytest.raises(ValueError, match="after_record"):
            FaultEvent("coordinator_crash", "coordinator", 0)
        with pytest.raises(ValueError, match="after_record"):
            FaultEvent("failover", "coordinator", 0, after_record=-1)

    def test_builders_set_record_boundary(self):
        plan = (FaultPlan(seed=3)
                .coordinator_crash(0, after_record=4)
                .failover(1, after_record=9))
        kinds = [e.kind for e in plan.coordinator_events()]
        assert kinds == ["coordinator_crash", "failover"]
        assert [e.after_record for e in plan.coordinator_events()] == [4, 9]

    def test_coordinator_events_sorted_by_record(self):
        plan = (FaultPlan()
                .failover(1, after_record=9)
                .crash("client-0", round_index=0)
                .coordinator_crash(0, after_record=2))
        events = plan.coordinator_events()
        assert [e.after_record for e in events] == [2, 9]
        assert all(e.party == "coordinator" for e in events)

    def test_round_trip_preserves_after_record(self):
        plan = (FaultPlan(seed=5)
                .crash("client-1", round_index=0)
                .coordinator_crash(0, after_record=3)
                .failover(1, after_record=11))
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan
        assert [e.after_record for e in rebuilt.coordinator_events()] == \
            [3, 11]

    def test_charges_land_in_fault_categories(self):
        ledger = CostLedger()
        injector = FaultInjector(FaultPlan(seed=1), ledger)
        injector.record(COORDINATOR_CRASH, "coordinator", 0)
        injector.record(FAILOVER, "coordinator", 1)
        assert ledger.count("fault.coordinator_crash") == 1
        assert ledger.count("fault.failover") == 1
        assert ("coordinator_crash", "coordinator", 0) in injector.triggered
        assert ("failover", "coordinator", 1) in injector.triggered


class TestShardFaultEvents:
    def test_shard_crash_needs_after_record(self):
        with pytest.raises(ValueError, match="after_record"):
            FaultEvent("shard_crash", "shard-0", 0)
        # queue_overload has no WAL boundary -- whole-round semantics.
        FaultEvent("queue_overload", "shard-0", 0)

    def test_builders_and_shard_events(self):
        plan = (FaultPlan(seed=3)
                .shard_crash("shard-1", 0, after_record=4)
                .queue_overload("shard-0", 2)
                .failover(1, after_record=9))
        events = plan.shard_events()
        assert [(e.kind, e.party) for e in events] \
            == [("shard_crash", "shard-1"), ("queue_overload", "shard-0")]
        assert plan.shard_events()[0].after_record == 4

    def test_round_trip_preserves_shard_kinds(self):
        plan = (FaultPlan(seed=5)
                .shard_crash("shard-2", 1, after_record=7)
                .queue_overload("shard-0", 0)
                .crash("client-1", round_index=0))
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt == plan
        kinds = [(e.kind, e.party, e.after_record)
                 for e in rebuilt.shard_events()]
        assert kinds == [("shard_crash", "shard-2", 7),
                         ("queue_overload", "shard-0", None)]

    def test_overload_query_is_pure_and_charge_is_explicit(self):
        ledger = CostLedger()
        plan = FaultPlan(seed=1).queue_overload("shard-0", 2)
        injector = FaultInjector(plan, ledger)
        assert injector.queue_overloaded("shard-0", 2)
        assert not injector.queue_overloaded("shard-0", 1)
        assert not injector.queue_overloaded("shard-1", 2)
        assert ledger.count("fault.queue_overload") == 0  # query free
        injector.record(QUEUE_OVERLOAD, "shard-0", 2)
        injector.record(SHARD_CRASH, "shard-1", 0)
        assert ledger.count("fault.queue_overload") == 1
        assert ledger.count("fault.shard_crash") == 1
        assert ("queue_overload", "shard-0", 2) in injector.triggered
        assert ("shard_crash", "shard-1", 0) in injector.triggered
