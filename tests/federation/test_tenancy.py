"""Multi-tenancy units: registry, quotas, admission, pool, accounting."""

import pytest

from repro.federation.channel import Channel, Message
from repro.federation.coordinator import (
    CoordinatorKilled,
    InvalidTransitionError,
    RoundStateMachine,
)
from repro.federation.eventloop import (
    BREAKER_FAILURE_THRESHOLD,
    REJECT_QUOTA,
    AdmissionRejected,
    AsyncChannel,
    QuotaExceeded,
    VirtualClock,
)
from repro.federation.metrics import FaultReport
from repro.federation.shard import ShardPool
from repro.federation.tenancy import (
    Tenant,
    TenantRegistry,
    TokenBucket,
    UnknownTenantError,
)
from repro.federation.wal import SHARD_SPLIT, WalRecord
from repro.ledger import CostLedger, admission_category


def upload(sender="client-0", receiver="shard-0"):
    return Message(sender=sender, receiver=receiver, tag="upload.test",
                   payload=f"payload-{sender}", plaintext_bytes=64)


def registry_ab():
    return TenantRegistry([
        Tenant("tenant-a", weight=1.0, quota_rate=1.0, quota_burst=2),
        Tenant("tenant-b", weight=3.0),
    ])


def tenant_loop(queue_capacity=8):
    clock = VirtualClock()
    loop = AsyncChannel(Channel(), clock,
                        queue_capacity=queue_capacity,
                        tenants=registry_ab())
    loop.register_tenant("tenant-a")
    loop.register_tenant("tenant-b")
    return clock, loop


class TestTenantRegistry:
    def test_registration_and_lookup(self):
        registry = registry_ab()
        assert registry.require("tenant-a").quota_burst == 2
        assert "tenant-b" in registry
        assert [t.tenant_id for t in registry] == ["tenant-a", "tenant-b"]
        with pytest.raises(UnknownTenantError):
            registry.require("tenant-c")

    def test_conflicting_reregistration_rejected(self):
        registry = registry_ab()
        registry.register(Tenant("tenant-b", weight=3.0))  # identical ok
        with pytest.raises(ValueError):
            registry.register(Tenant("tenant-b", weight=9.0))

    def test_weighted_share_floors_at_one_slot(self):
        registry = registry_ab()
        assert registry.share("tenant-a", 64) == 16  # 1/4 of 64
        assert registry.share("tenant-b", 64) == 48  # 3/4 of 64
        assert registry.share("tenant-a", 2) == 1    # never starved out

    def test_tenant_id_cannot_contain_dot(self):
        with pytest.raises(ValueError):
            Tenant("bad.id")


class TestTokenBucket:
    def test_spend_and_lazy_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate=2.0, burst=3)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire()

    def test_refused_acquire_leaves_the_bucket_as_is(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate=4.0, burst=1)
        assert bucket.retry_after() == 0.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.tokens == 0.0
        assert bucket.retry_after() == pytest.approx(0.25)

    def test_never_exceeds_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate=100.0, burst=4)
        clock.advance(1_000.0)
        assert bucket.tokens == 4.0


class TestTenantAdmission:
    def test_quota_exceeded_is_typed_and_retryable(self):
        _clock, loop = tenant_loop()
        loop.submit("shard-0", upload(), tenant="tenant-a")
        loop.submit("shard-0", upload("client-1"), tenant="tenant-a")
        with pytest.raises(QuotaExceeded) as excinfo:
            loop.submit("shard-0", upload("client-2"),
                        tenant="tenant-a")
        rejection = excinfo.value
        assert isinstance(rejection, AdmissionRejected)
        assert rejection.reason == REJECT_QUOTA
        assert rejection.tenant == "tenant-a"
        assert rejection.retry_after_seconds > 0

    def test_quota_rejections_charge_tenant_prefixed_category(self):
        _clock, loop = tenant_loop()
        loop.submit("shard-0", upload(), tenant="tenant-a")
        loop.submit("shard-0", upload("client-1"), tenant="tenant-a")
        with pytest.raises(QuotaExceeded):
            loop.submit("shard-0", upload("client-2"),
                        tenant="tenant-a")
        ledger = loop.lane("shard-0", "tenant-a").terms.channel.ledger
        assert ledger.count(
            admission_category("accept", "tenant-a")) == 2
        assert ledger.count(
            admission_category("quota", "tenant-a")) == 1

    def test_slice_bound_protects_other_tenants_slots(self):
        _clock, loop = tenant_loop(queue_capacity=8)
        # tenant-a's slice of 8 is 2 slots (weight 1 of 4)... but its
        # quota burst is also 2, so use tenant-b (unmetered, 6 slots).
        for index in range(6):
            loop.submit("shard-0", upload(f"client-{index}"),
                        tenant="tenant-b")
        with pytest.raises(AdmissionRejected) as excinfo:
            loop.submit("shard-0", upload("client-6"),
                        tenant="tenant-b")
        assert excinfo.value.reason == "queue_full"
        # tenant-a still gets in: the shared queue is not full and its
        # own slice (2 slots) is untouched by b's backlog.
        loop.submit("shard-0", upload("client-a"), tenant="tenant-a")
        assert loop.lane("shard-0", "tenant-a").queued == 1

    def test_tenant_breaker_is_scoped_per_tenant(self):
        _clock, loop = tenant_loop()
        breaker_a = loop.lane("shard-0", "tenant-a").breaker
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker_a.record_failure()
        with pytest.raises(AdmissionRejected) as excinfo:
            loop.submit("shard-0", upload(), tenant="tenant-a")
        assert excinfo.value.reason == "circuit_open"
        # tenant-b is unaffected on the very same shard.
        loop.submit("shard-0", upload("client-b"), tenant="tenant-b")
        assert loop.lane("shard-0", "tenant-b").queued == 1

    def test_tenant_filtered_drain_leaves_others_queued(self):
        _clock, loop = tenant_loop()
        loop.submit("shard-0", upload("client-a"), tenant="tenant-a")
        loop.submit("shard-0", upload("client-b0"), tenant="tenant-b")
        loop.submit("shard-0", upload("client-b1"), tenant="tenant-b")
        outcome = loop.drain("shard-0", tenant="tenant-b")
        assert [s for s, _ in outcome.delivered] == ["client-b0",
                                                     "client-b1"]
        assert loop.queue_depth("shard-0") == 1
        assert loop.lane("shard-0", "tenant-a").queued == 1


class TestMigrationAccounting:
    def invariant(self, loop, shard, tenant=None):
        if tenant is None:
            stats, queued = loop.stats[shard], loop.queue_depth(shard)
        else:
            lane = loop.lanes.get((shard, tenant))
            if lane is None:
                return  # never touched
            stats, queued = lane.stats, lane.queued
        assert (stats.accepted + stats.migrated_in - stats.migrated_out
                == stats.delivered + stats.shed + stats.failed + queued)

    def test_accepted_equals_delivered_plus_shed_across_migration(self):
        _clock, loop = tenant_loop(queue_capacity=16)
        for index in range(3):
            loop.submit("shard-0", upload(f"client-a{index}"),
                        tenant="tenant-b")
        loop.submit("shard-0", upload("client-x"), tenant="tenant-a")
        moved = loop.migrate(
            "shard-0",
            lambda index, sender: ["shard-1", "shard-2"][index % 2])
        assert sum(moved.values()) == 4
        for shard in ("shard-0", "shard-1", "shard-2"):
            self.invariant(loop, shard)
            self.invariant(loop, shard, "tenant-a")
            self.invariant(loop, shard, "tenant-b")
        # Nothing was dropped or double-counted: every entry delivers.
        delivered = []
        for shard in ("shard-1", "shard-2"):
            outcome = loop.drain(shard)
            delivered.extend(s for s, _ in outcome.delivered)
            self.invariant(loop, shard)
        assert sorted(delivered) == ["client-a0", "client-a1",
                                     "client-a2", "client-x"]


class TestShardPool:
    def test_split_journals_before_migrating(self):
        pool = ShardPool(initial_shards=1)
        _clock, loop = tenant_loop(queue_capacity=16)
        for index in range(4):
            loop.submit("shard-0", upload(f"client-{index}"),
                        tenant="tenant-b")
        children = pool.split("shard-0", round_index=0, channel=loop)
        assert children == ["shard-1", "shard-2"]
        assert pool.active == ["shard-1", "shard-2"]
        assert len(pool.wal) == 1
        # Alternating even/odd assignment.
        assert loop.queue_depth("shard-1") == 2
        assert loop.queue_depth("shard-2") == 2
        assert loop.queue_depth("shard-0") == 0

    def test_merge_routes_everything_to_target(self):
        pool = ShardPool(initial_shards=2)
        _clock, loop = tenant_loop(queue_capacity=16)
        loop.submit("shard-0", upload("client-0"), tenant="tenant-b")
        loop.submit("shard-1", upload("client-1"), tenant="tenant-b")
        target = pool.merge("shard-0", "shard-1", round_index=0,
                            channel=loop)
        assert target == "shard-2"
        assert pool.active == ["shard-2"]
        assert loop.queue_depth("shard-2") == 2

    def test_retired_names_never_reused(self):
        pool = ShardPool(initial_shards=2)
        pool.merge("shard-0", "shard-1", round_index=0)
        pool.split("shard-2", round_index=0)
        assert pool.active == ["shard-3", "shard-4"]
        assert pool.resolve("shard-0") == ["shard-3", "shard-4"]

    def test_kill_fires_after_journal_append_and_recovery_matches(self):
        pool = ShardPool(initial_shards=1)
        pool.kill_after_lsn = 0
        _clock, loop = tenant_loop(queue_capacity=16)
        for index in range(4):
            loop.submit("shard-0", upload(f"client-{index}"),
                        tenant="tenant-b")
        with pytest.raises(CoordinatorKilled):
            pool.split("shard-0", round_index=0, channel=loop)
        # The record is durable but the migration never happened.
        assert len(pool.wal) == 1
        assert loop.queue_depth("shard-0") == 4
        heir = ShardPool.from_bytes(pool.wal.image(), initial_shards=1,
                                    incarnation=1)
        assert heir.active == pool.active
        assert heir.digest() == pool.digest()
        moved = heir.migrate_orphans(loop)
        assert moved == 4
        assert loop.queue_depth("shard-1") == 2
        assert loop.queue_depth("shard-2") == 2

    def test_rebalance_is_idempotent(self):
        pool = ShardPool(initial_shards=1)
        assert pool.rebalance(3, round_index=0) == 2
        assert pool.rebalance(3, round_index=0) == 0
        assert len(pool.active) == 3
        assert pool.rebalance(1, round_index=1) == 2
        assert len(pool.active) == 1

    def test_rebalance_records_rejected_by_round_state_machine(self):
        machine = RoundStateMachine()
        record = WalRecord(kind=SHARD_SPLIT, round_index=0,
                           payload={"parent": "shard-0",
                                    "children": ["shard-1", "shard-2"]})
        with pytest.raises(InvalidTransitionError):
            machine.apply(record)


class TestFaultReportTenantCounters:
    def test_counts_tenant_fault_categories(self):
        ledger = CostLedger()
        ledger.charge("fault.tenant_flood", 0.0, count=1)
        ledger.charge("fault.tenant_crash", 0.0, count=2)
        report = FaultReport.from_ledger(ledger)
        assert report.tenant_floods == 1
        assert report.tenant_crashes == 2

    def test_merge_sums_tenant_counters(self):
        merged = FaultReport(tenant_floods=1).merge(
            FaultReport(tenant_floods=2, tenant_crashes=3))
        assert merged.tenant_floods == 3
        assert merged.tenant_crashes == 3
