"""Event loop: clock, admission control, shedding, circuit breaking."""

import contextlib
from functools import partial

import pytest

from repro.federation.channel import Channel, ChannelError, Message
from repro.federation.eventloop import (
    ADMISSION_BYTES,
    BREAKER_CLOSED,
    BREAKER_COOLDOWN_SECONDS,
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionRejected,
    AsyncChannel,
    CircuitBreaker,
    DISPATCH_SECONDS,
    VirtualClock,
)
from repro.federation.tenancy import Tenant, TenantRegistry
from repro.ledger import (
    CAT_FAULT_CIRCUIT_OPEN,
    CAT_FAULT_SHED,
    admission_category,
)

ACCEPT = admission_category("accept")
REJECT = admission_category("reject")


def upload(sender="client-0", receiver="shard-0", payload_bytes=64):
    return Message(sender=sender, receiver=receiver, tag="upload.test",
                   payload=f"payload-{sender}",
                   plaintext_bytes=payload_bytes)


class FailingChannel(Channel):
    """A channel whose every transfer exhausts its retry budget."""

    def send(self, message):
        raise ChannelError("transfer failed", tag=message.tag,
                           attempts=1, wasted_bytes=10)


class TestVirtualClock:
    def test_monotonic_advance(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.0) == 2.5

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_charges_once(self):
        clock = VirtualClock()
        opens = []
        breaker = CircuitBreaker(clock, failure_threshold=3,
                                 cooldown_seconds=60.0,
                                 charge_open=lambda: opens.append(1))
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert len(opens) == 1
        # Further failures while open do not re-charge.
        breaker.record_failure()
        assert len(opens) == 1

    def test_half_open_after_cooldown_then_closes_on_success(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown_seconds=10.0)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, failure_threshold=2,
                                 cooldown_seconds=10.0)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_failure() is True
        assert breaker.state == BREAKER_OPEN
        assert breaker.open_count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(VirtualClock(), failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(VirtualClock(), cooldown_seconds=0.0)


class TestAdmission:
    def test_accept_charges_control_plane(self):
        loop = AsyncChannel(Channel(), VirtualClock())
        loop.submit("shard-0", upload())
        ledger = loop.channel.ledger
        assert ledger.count(ACCEPT) == 1
        assert ledger.payload_bytes(ACCEPT) == ADMISSION_BYTES
        assert loop.stats["shard-0"].accepted == 1
        assert loop.queue_depth("shard-0") == 1

    def test_queue_full_rejects_with_typed_retryable_error(self):
        loop = AsyncChannel(Channel(), VirtualClock(), queue_capacity=2)
        loop.submit("shard-0", upload("client-0"))
        loop.submit("shard-0", upload("client-1"))
        with pytest.raises(AdmissionRejected) as excinfo:
            loop.submit("shard-0", upload("client-2"))
        rejection = excinfo.value
        assert rejection.shard == "shard-0"
        assert rejection.reason == "queue_full"
        assert rejection.retry_after_seconds > 0
        assert loop.channel.ledger.count(REJECT) == 1
        assert loop.stats["shard-0"].rejected_full == 1

    def test_overload_predicate_rejects(self):
        loop = AsyncChannel(Channel(), VirtualClock(),
                            overloaded=lambda shard: shard == "shard-1")
        loop.submit("shard-0", upload(receiver="shard-0"))
        with pytest.raises(AdmissionRejected) as excinfo:
            loop.submit("shard-1", upload(receiver="shard-1"))
        assert excinfo.value.reason == "overload"
        assert loop.stats["shard-1"].rejected_overload == 1

    def test_open_breaker_fences_the_shard(self):
        clock = VirtualClock()
        loop = AsyncChannel(Channel(), clock)
        breaker = loop.lane("shard-0").breaker
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure()
        with pytest.raises(AdmissionRejected) as excinfo:
            loop.submit("shard-0", upload())
        assert excinfo.value.reason == "circuit_open"
        assert excinfo.value.retry_after_seconds \
            == pytest.approx(BREAKER_COOLDOWN_SECONDS)
        assert loop.channel.ledger.count(CAT_FAULT_CIRCUIT_OPEN) == 1

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            AdmissionRejected("shard-0", "nonsense")


class TestDrain:
    def test_fifo_delivery_advances_clock(self):
        clock = VirtualClock()
        loop = AsyncChannel(Channel(), clock)
        loop.submit("shard-0", upload("client-0"))
        loop.submit("shard-0", upload("client-1"))
        outcome = loop.drain("shard-0")
        assert [s for s, _ in outcome.delivered] \
            == ["client-0", "client-1"]
        assert clock.now == pytest.approx(2 * DISPATCH_SECONDS)
        assert loop.queue_depth("shard-0") == 0

    def test_past_deadline_entries_are_shed_and_charged(self):
        clock = VirtualClock()
        loop = AsyncChannel(Channel(), clock)
        loop.submit("shard-0", upload("client-0"))
        loop.submit("shard-0", upload("client-1", payload_bytes=128),
                    arrival_delay=100.0)
        outcome = loop.drain("shard-0", deadline=clock.now + 1.0)
        assert [s for s, _ in outcome.delivered] == ["client-0"]
        assert outcome.shed == [("client-1", "deadline")]
        ledger = loop.channel.ledger
        assert ledger.count(CAT_FAULT_SHED) == 1
        assert ledger.payload_bytes(CAT_FAULT_SHED) == 128
        assert loop.stats["shard-0"].shed == 1

    def test_transfer_failures_returned_not_raised(self):
        loop = AsyncChannel(FailingChannel(), VirtualClock())
        loop.submit("shard-0", upload("client-0"))
        loop.submit("shard-0", upload("client-1"))
        outcome = loop.drain("shard-0")
        assert outcome.delivered == []
        assert [s for s, _ in outcome.failed] == ["client-0", "client-1"]
        assert loop.stats["shard-0"].failed == 2

    def test_queue_memory_bounded_and_nothing_lost(self):
        """The accounting invariant: every submission is delivered,
        shed, or rejected -- and the queue never grows past capacity."""
        clock = VirtualClock()
        capacity = 4
        loop = AsyncChannel(Channel(), clock, queue_capacity=capacity)
        submitted = 24
        rejected = 0
        for i in range(submitted):
            delay = 50.0 if i % 3 == 0 else 0.0
            try:
                loop.submit("shard-0", upload(f"client-{i}"),
                            arrival_delay=delay)
            except AdmissionRejected:
                rejected += 1
                loop.drain("shard-0", deadline=clock.now + 1.0)
        loop.drain("shard-0", deadline=clock.now + 1.0)
        stats = loop.stats["shard-0"]
        assert stats.peak_depth <= capacity
        assert stats.accepted == stats.delivered + stats.shed
        assert stats.accepted + rejected == submitted
        assert loop.channel.ledger.count(REJECT) == rejected
        assert loop.channel.ledger.count(CAT_FAULT_SHED) == stats.shed


# ----------------------------------------------------------------------
# One accounting call: each verdict is one charge and one count.
# ----------------------------------------------------------------------

#: Lane counter -> the one category its verdict charges.
VERDICTS = {
    "accepted": ACCEPT,
    "rejected_full": REJECT,
    "rejected_fenced": REJECT,
    "rejected_overload": REJECT,
    "rejected_quota": admission_category("quota", "tenant-a"),
    "shed": CAT_FAULT_SHED,
}


def _edge_of(counter):
    """A loop one act away from the verdict ``counter`` counts, the lane
    that counts it (anonymous, except the metered ``tenant-a`` for
    quota) and the act."""
    loop = AsyncChannel(
        Channel(), VirtualClock(), queue_capacity=1,
        overloaded=lambda _shard: counter == "rejected_overload",
        tenants=TenantRegistry([Tenant("tenant-a", quota_rate=1.0,
                                       quota_burst=1)]))
    loop.register_tenant("tenant-a")
    tenant = "tenant-a" if counter == "rejected_quota" else None
    act = partial(loop.submit, "shard-0", upload(), tenant=tenant)
    if counter in ("rejected_full", "rejected_quota"):
        act()
    elif counter == "rejected_fenced":
        breaker = loop.lane("shard-0").breaker
        while breaker.allow():
            breaker.record_failure()
    elif counter == "shed":
        loop.submit("shard-0", upload(), arrival_delay=100.0)
        act = partial(loop.drain, "shard-0", deadline=1.0)
    return loop, loop.lane("shard-0", tenant), act


@pytest.mark.parametrize("counter", VERDICTS)
def test_each_verdict_is_one_charge_and_one_count(counter):
    loop, lane, act = _edge_of(counter)
    ledger = loop.channel.ledger
    charged = ledger.snapshot()
    counted = {name: getattr(lane.stats, name) for name in VERDICTS}
    with contextlib.suppress(AdmissionRejected):
        act()
    zero = (0.0, 0, 0)
    moved = {category: tuple(now - was for now, was in
                             zip(totals, charged.get(category, zero)))
             for category, totals in ledger.snapshot().items()
             if totals != charged.get(category, zero)}
    if counter == "shed":
        assert moved == {CAT_FAULT_SHED: (0.0, 1, 64)}
    else:
        seconds = loop.channel.profile.network_seconds(ADMISSION_BYTES,
                                                       messages=1)
        assert moved == {VERDICTS[counter]: (seconds, 1, ADMISSION_BYTES)}
    assert {name: getattr(lane.stats, name) - counted[name]
            for name in VERDICTS} == {
        name: int(name == counter) for name in VERDICTS}
