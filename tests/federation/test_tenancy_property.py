"""Property tests for the quota buckets and the ingress lanes.

The token-bucket property is the quota guarantee: over any
schedule of acquisitions and clock advances, admitted tokens never
exceed ``burst + rate * elapsed``.  The lane property is the ingress
accounting: over any interleaving of ``submit`` / ``drain`` /
``migrate`` / floods / fencing / overload toggles on the anonymous
lane and two named tenants sharing one
:class:`~repro.federation.eventloop.AsyncChannel`, ``accepted +
migrated_in - migrated_out == delivered + shed + failed + queued``
holds on every lane after every step, a shard's totals are exactly
the sum of its lanes', and every channel ledger's admission and shed
counts equal the lane counters summed over the lanes that charge it.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.channel import Channel, ChannelError, Message
from repro.federation.eventloop import (
    AdmissionRejected,
    AsyncChannel,
    QueueStats,
    VirtualClock,
)
from repro.federation.tenancy import (
    Tenant,
    TenantRegistry,
    TokenBucket,
)
from repro.ledger import CAT_FAULT_SHED, admission_category


@st.composite
def bucket_schedules(draw):
    """A bucket spec plus an interleaving of acquires and time steps."""
    rate = draw(st.floats(min_value=0.1, max_value=50.0,
                          allow_nan=False, allow_infinity=False))
    burst = draw(st.integers(min_value=1, max_value=12))
    steps = draw(st.lists(
        st.one_of(
            st.just(("acquire", 0.0)),
            st.tuples(st.just("advance"),
                      st.floats(min_value=0.0, max_value=5.0,
                                allow_nan=False, allow_infinity=False))),
        min_size=1, max_size=60))
    return rate, burst, steps


@settings(max_examples=200)
@given(bucket_schedules())
def test_bucket_never_over_grants(schedule):
    rate, burst, steps = schedule
    clock = VirtualClock()
    bucket = TokenBucket(clock, rate=rate, burst=burst)
    admitted = 0
    elapsed = 0.0
    for action, seconds in steps:
        if action == "advance":
            clock.advance(seconds)
            elapsed += seconds
        elif bucket.try_acquire():
            admitted += 1
        # The quota guarantee, with float slack on the refill product.
        assert admitted <= burst + rate * elapsed + 1e-6
        assert bucket.tokens <= burst


@settings(max_examples=200)
@given(bucket_schedules())
def test_retry_after_is_sufficient(schedule):
    """Waiting out retry_after always makes the next acquire succeed."""
    rate, burst, steps = schedule
    clock = VirtualClock()
    bucket = TokenBucket(clock, rate=rate, burst=burst)
    for action, seconds in steps:
        if action == "advance":
            clock.advance(seconds)
        elif not bucket.try_acquire():
            hint = bucket.retry_after()
            assert hint > 0
            clock.advance(hint + 1e-9)
            assert bucket.try_acquire()


# ----------------------------------------------------------------------
# Lanes: the ingress accounting algebra.
# ----------------------------------------------------------------------

LANES = [None, "tenant-a", "tenant-b"]
SHARDS = ["shard-0", "shard-1", "shard-2"]
LANE_CAPACITY = 6


class FlakyChannel(Channel):
    """Fails every transfer whose sender is marked ``-bad``."""

    def send(self, message):
        if message.sender.endswith("-bad"):
            raise ChannelError("transfer failed", tag=message.tag,
                               attempts=1, wasted_bytes=10)
        return super().send(message)


lane_steps = st.lists(
    st.one_of(
        # Submits only ever target shard-0 / shard-1; a late arrival is
        # shed by a deadline drain, a ``bad`` sender fails its transfer.
        st.tuples(st.just("submit"), st.sampled_from(SHARDS[:2]),
                  st.sampled_from(LANES),
                  st.sampled_from(["ok", "late", "bad"])),
        st.tuples(st.just("drain"), st.sampled_from(SHARDS),
                  st.sampled_from(LANES), st.booleans()),
        # Migration only ever leaves shard-0 (alternating onto the other
        # two), so shard-0 is filled by admission alone.
        st.tuples(st.just("migrate")),
        # One lane floods its shard past any slice; delivery failures
        # open one lane's breaker; an injected overload toggles.
        st.tuples(st.just("flood"), st.sampled_from(SHARDS[:2]),
                  st.sampled_from(LANES),
                  st.sampled_from(["ok", "late", "bad"])),
        st.tuples(st.just("fence"), st.sampled_from(SHARDS[:2]),
                  st.sampled_from(LANES)),
        st.tuples(st.just("overload"), st.sampled_from(SHARDS[:2]))),
    min_size=1, max_size=60)


def check_lanes(loop, model, peaks):
    """The per-lane algebra, the derived shard totals, the bounds.

    ``model`` is shard -> the tenant of each queued entry, FIFO;
    ``peaks`` is shard -> the deepest the model queue has been.
    """
    totals = loop.stats
    for (shard, tenant), lane in loop.lanes.items():
        stats = lane.stats
        assert lane.queued == model[shard].count(tenant)
        assert (stats.accepted + stats.migrated_in - stats.migrated_out
                == stats.delivered + stats.shed + stats.failed
                + lane.queued)
        assert lane.queued <= stats.peak_depth <= totals[shard].peak_depth
    for shard, total in totals.items():
        lanes = [lane for (s, _), lane in loop.lanes.items() if s == shard]
        for field in dataclasses.fields(QueueStats):
            if field.name != "peak_depth":
                assert getattr(total, field.name) == sum(
                    getattr(lane.stats, field.name) for lane in lanes)
        assert loop.queue_depth(shard) == len(model[shard])
        assert total.peak_depth == peaks[shard]
    # Only admission fills shard-0, so the memory bound holds there.
    assert peaks["shard-0"] <= LANE_CAPACITY
    # Each verdict is charged and counted by one call, so every channel
    # ledger reconciles with the lanes that charge it.
    charged = {}
    for lane in loop.lanes.values():
        ledger = lane.terms.channel.ledger
        charged.setdefault(id(ledger), (ledger, []))[1].append(lane.stats)
    for ledger, lanes in charged.values():
        def total(*counters):
            return sum(getattr(stats, name)
                       for stats in lanes for name in counters)
        assert ledger.count(admission_category("accept")) \
            == total("accepted")
        assert ledger.count(admission_category("reject")) == total(
            "rejected_full", "rejected_fenced", "rejected_overload")
        assert ledger.count(admission_category("quota")) \
            == total("rejected_quota")
        assert ledger.count(CAT_FAULT_SHED) == total("shed")


@settings(max_examples=150, deadline=None)
@given(lane_steps)
def test_lane_algebra_holds_under_any_interleaving(steps):
    clock = VirtualClock()
    overloaded = set()
    loop = AsyncChannel(
        FlakyChannel(), clock, queue_capacity=LANE_CAPACITY,
        overloaded=overloaded.__contains__,
        tenants=TenantRegistry([Tenant("tenant-a", weight=1.0),
                                Tenant("tenant-b", weight=2.0,
                                       quota_rate=4.0, quota_burst=3)]))
    loop.register_tenant("tenant-a")
    loop.register_tenant("tenant-b", FlakyChannel())
    model = {shard: [] for shard in SHARDS}
    peaks = {shard: 0 for shard in SHARDS}

    def submit(sender, shard, tenant, kind):
        sender += "-bad" if kind == "bad" else ""
        try:
            loop.submit(
                shard, Message(sender=sender, receiver=shard,
                               tag="upload.test", payload=sender,
                               plaintext_bytes=32),
                arrival_delay=1.0e6 if kind == "late" else 0.0,
                tenant=tenant)
        except AdmissionRejected:
            pass
        else:
            model[shard].append(tenant)

    for serial, step in enumerate(steps):
        if step[0] == "submit":
            submit(f"client-{serial}", *step[1:])
        elif step[0] == "flood":
            for index in range(LANE_CAPACITY + 1):
                submit(f"client-{serial}-{index}", *step[1:])
        elif step[0] == "drain":
            _, shard, tenant, with_deadline = step
            before = {key: lane.queued for key, lane in loop.lanes.items()}
            outcome = loop.drain(
                shard, tenant=tenant,
                deadline=clock.now + 1.0 if with_deadline else None)
            kept = [t for t in model[shard]
                    if tenant is not None and t != tenant]
            assert (len(outcome.delivered) + len(outcome.shed)
                    + len(outcome.failed)) == len(model[shard]) - len(kept)
            model[shard] = kept
            # A tenant's drain leaves every other lane alone.
            for key, lane in loop.lanes.items():
                if key[0] != shard or tenant not in (None, key[1]):
                    assert lane.queued == before[key]
        elif step[0] == "fence":
            breaker = loop.lane(step[1], step[2]).breaker
            while breaker.allow():
                breaker.record_failure()
        elif step[0] == "overload":
            overloaded ^= {step[1]}
        else:
            moved = loop.migrate(
                "shard-0", lambda index, _sender: SHARDS[1 + index % 2])
            assert sum(moved.values()) == len(model["shard-0"])
            for index, tenant in enumerate(model["shard-0"]):
                model[SHARDS[1 + index % 2]].append(tenant)
            model["shard-0"] = []
        for shard in SHARDS:
            peaks[shard] = max(peaks[shard], len(model[shard]))
        check_lanes(loop, model, peaks)
    # The round closes: a deadline drain of every shard sheds each late
    # arrival still queued.
    for shard in SHARDS:
        loop.drain(shard, deadline=clock.now + 1.0)
        model[shard] = []
    check_lanes(loop, model, peaks)
