"""Event-loop channel: bounded ingress queues, admission control,
deadline shedding, and per-lane circuit breaking.

The in-process mailbox loop the federation grew up with delivers every
upload synchronously and unconditionally -- fine for the paper's four
parties, fatal for the ROADMAP's millions: one slow or sick shard stalls
the whole round and queue memory grows without bound.  This module
replaces that loop for the sharded aggregation tier
(:mod:`repro.federation.shard`) with an explicitly *overload-safe*
ingress path, driven entirely by the deterministic
:class:`VirtualClock` (moved here from the simulator so the federation
layer owns its own time source; the simulator re-exports it):

- :class:`VirtualClock` -- monotonic modelled time, the only clock the
  event loop knows.
- :class:`AdmissionRejected` -- the *typed, retryable* rejection an
  overloaded or fenced shard returns instead of accepting an upload it
  cannot serve.  Every rejection is charged to the ledger
  (``comm.admission.reject``), so refused work is never invisible.
- :class:`CircuitBreaker` -- failure fencing: after
  ``failure_threshold`` consecutive delivery failures the breaker opens
  for ``cooldown_seconds`` of modelled time (charged once to
  ``fault.circuit_open``), the shard is excluded from cohorts instead of
  poisoning the root, and a half-open probe readmits it after the
  cooldown.
- :class:`Lane` -- the unit of admission state, one per (shard,
  tenant): one :class:`QueueStats` counter set, one breaker, and the
  tenant's channel, quota bucket, queue slice and overload probe.  A
  single-tenant service is the one-tenant case: its uploads travel the
  *anonymous* tenant's lanes (``tenant=None``).
- :class:`AsyncChannel` -- bounded per-shard ingress queues in front of
  the byte-counting :class:`~repro.federation.channel.Channel`.
  ``submit`` applies admission control on the upload's lane (accept /
  reject-fenced / reject-quota / reject-overload / reject-full);
  ``drain`` delivers the backlog in FIFO order, shedding entries whose
  modelled delivery time would blow the round deadline (charged to
  ``fault.shed``) so the round degrades into quorum + Eq. 6 partial
  aggregation instead of stalling.

Multi-tenancy (PR 9): over a
:class:`~repro.federation.tenancy.TenantRegistry`, each named tenant
registers its own :class:`~repro.federation.channel.Channel` (so charges
land in that tenant's ledger, under tenant-prefixed ``comm.admission.*``
categories), holds a weighted slice of every shard queue (``capacity *
weight / total_weight``, floored, at least one slot -- one tenant's
flood can never occupy another's slots), spends a token-bucket quota per
upload (:class:`QuotaExceeded`, a retryable :class:`AdmissionRejected`
with reason ``quota``), and fails against its *own* lanes' circuit
breakers -- a sick tenant fences only itself.

Accounting invariant (asserted by the overload and tenancy tests):
every submitted upload is exactly one of *accepted-and-delivered*,
*shed* (ledger ``fault.shed``), or *rejected* (ledger
``comm.admission.reject`` / ``comm.admission.quota``) -- no silent
loss, and queue memory never exceeds the configured bound.  Across an
elastic shard split or merge (:meth:`AsyncChannel.migrate`), migrated
in-flight entries carry their acceptance with them: per lane -- and so
per shard, whose totals are the sum of its lanes' -- ``accepted +
migrated_in - migrated_out == delivered + shed + failed + queued`` at
every point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.federation.channel import Channel, ChannelError, Message
from repro.ledger import (
    CAT_FAULT_CIRCUIT_OPEN,
    CAT_FAULT_SHED,
    admission_category,
)

#: Wire size of one admission-control message (shard id, round, verdict,
#: retry hint) -- control plane, not ciphertext.
ADMISSION_BYTES = 48

#: Modelled per-message dequeue/dispatch overhead of the event loop.
DISPATCH_SECONDS = 1.0e-6

#: A lane's breaker opens after this many consecutive delivery failures
#: and stays open for this many modelled seconds.
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN_SECONDS = 60.0

#: Lease duration of every aggregation-tree node (each leaf and the
#: root); a failover advances the virtual clock past it.
LEASE_TIMEOUT_SECONDS = 30.0

#: Admission verdict reasons carried by :class:`AdmissionRejected`.
REJECT_QUEUE_FULL = "queue_full"
REJECT_CIRCUIT_OPEN = "circuit_open"
REJECT_OVERLOAD = "overload"
REJECT_QUOTA = "quota"

_REJECT_REASONS = (REJECT_QUEUE_FULL, REJECT_CIRCUIT_OPEN,
                   REJECT_OVERLOAD, REJECT_QUOTA)


class VirtualClock:
    """Monotonic modelled time; the only clock the event loop knows."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; rejects negative steps."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self._now += seconds
        return self._now


class AdmissionRejected(RuntimeError):
    """A shard refused an upload; the sender may retry after a delay.

    This is *backpressure*, not failure: the payload was never accepted,
    so nothing is lost -- the client retries after
    :attr:`retry_after_seconds` (or gives up and the round proceeds
    without it under quorum semantics).  The rejection itself is already
    charged to ``comm.admission.reject`` when this is raised.

    Attributes:
        shard: Name of the rejecting shard.
        reason: ``queue_full`` (ingress bound hit), ``circuit_open``
            (shard fenced by its breaker), ``overload`` (an injected
            ``queue_overload`` fault), or ``quota`` (the submitting
            tenant's token bucket ran dry -- see :class:`QuotaExceeded`).
        retry_after_seconds: Modelled backoff hint for the sender.
    """

    def __init__(self, shard: str, reason: str,
                 retry_after_seconds: float = 0.0):
        if reason not in _REJECT_REASONS:
            raise ValueError(f"unknown rejection reason {reason!r}; "
                             f"choose from {_REJECT_REASONS}")
        self.shard = shard
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds
        super().__init__(
            f"shard {shard!r} rejected upload ({reason}); retry after "
            f"{retry_after_seconds:.3f}s")


class QuotaExceeded(AdmissionRejected):
    """A tenant's token-bucket quota ran dry at admission.

    The tenant-scoped flavour of backpressure: the shard itself is
    healthy, this *tenant* is over its contracted rate.  Retrying after
    :attr:`retry_after_seconds` (the bucket's refill horizon) can
    succeed, so the exception stays retryable; the rejection is charged
    to the tenant-prefixed ``comm.admission.quota.<tenant>`` category
    against the tenant's own ledger before this is raised.

    Attributes:
        tenant: The tenant whose bucket ran dry.
    """

    def __init__(self, shard: str, tenant: str,
                 retry_after_seconds: float = 0.0):
        super().__init__(shard, REJECT_QUOTA,
                         retry_after_seconds=retry_after_seconds)
        self.tenant = tenant


#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-shard failure fencing with a modelled-time cooldown.

    Closed -> (``failure_threshold`` consecutive failures) -> open for
    ``cooldown_seconds`` -> half-open (one probe admitted) -> closed on
    success, straight back to open on failure.  A sick shard is fenced
    out of cohorts while open, so its failures cannot poison the root
    reduction round after round.

    Args:
        clock: The event loop's virtual clock.
        failure_threshold: Consecutive failures that open the breaker.
        cooldown_seconds: Modelled time the breaker stays open.
        charge_open: Called once per open transition -- the
            :class:`AsyncChannel` charges ``fault.circuit_open`` through
            it against its *current* ledger (epoch rollover swaps
            ledgers, so the breaker must not pin one).
    """

    def __init__(self, clock: VirtualClock, failure_threshold: int = 3,
                 cooldown_seconds: float = 60.0,
                 charge_open: Optional[Callable[[], None]] = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_seconds <= 0:
            raise ValueError("cooldown_seconds must be positive")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.charge_open = charge_open
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.open_count = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return BREAKER_CLOSED
        if self.clock.now >= self.opened_at + self.cooldown_seconds:
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    def allow(self) -> bool:
        """Whether the shard may take traffic right now."""
        return self.state != BREAKER_OPEN

    def record_failure(self) -> bool:
        """Count one delivery failure; returns True when it opens.

        A failure during half-open re-opens immediately (the probe
        failed), restarting the cooldown.
        """
        self.consecutive_failures += 1
        was_open = self.opened_at is not None
        half_open_probe_failed = self.state == BREAKER_HALF_OPEN
        if (self.consecutive_failures >= self.failure_threshold
                and not was_open) or half_open_probe_failed:
            self.opened_at = self.clock.now
            self.open_count += 1
            if self.charge_open is not None:
                self.charge_open()
            return True
        return False

    def record_success(self) -> None:
        """A delivery succeeded; close the breaker and reset the count."""
        self.consecutive_failures = 0
        self.opened_at = None


@dataclass
class _QueueEntry:
    """One upload waiting in a shard's ingress queue."""

    message: Message
    tenant: Optional[str]
    #: Earliest modelled time the entry can be dispatched.
    ready_at: float


@dataclass
class QueueStats:
    """Admission/backpressure counters of one :class:`Lane` -- or, read
    through :attr:`AsyncChannel.stats`, their sum over a shard's lanes
    beside the whole shard queue's own ``peak_depth``.

    ``migrated_in`` / ``migrated_out`` count in-flight entries handed
    between queues by an elastic shard split or merge
    (:meth:`AsyncChannel.migrate`); acceptance travels with the entry,
    so ``accepted + migrated_in - migrated_out == delivered + shed +
    failed + queued`` holds per lane through any rebalance.
    """

    accepted: int = 0
    rejected_full: int = 0
    rejected_fenced: int = 0
    rejected_overload: int = 0
    rejected_quota: int = 0
    delivered: int = 0
    shed: int = 0
    failed: int = 0
    migrated_in: int = 0
    migrated_out: int = 0
    peak_depth: int = 0

    @property
    def rejected(self) -> int:
        return (self.rejected_full + self.rejected_fenced
                + self.rejected_overload + self.rejected_quota)


#: The :class:`QueueStats` fields a shard's total sums over its lanes.
_SUMMED_COUNTERS = tuple(name for name in QueueStats.__dataclass_fields__
                         if name != "peak_depth")


@dataclass
class _Terms:
    """What a tenant registered, shared by every one of its lanes: the
    channel that delivers its entries and whose *current* ledger takes
    its charges (epoch rollover swaps ledgers, so none is pinned), its
    slots in each shard queue (asked per upload: a weighted share moves
    with the registry), its quota bucket and overload probe."""

    channel: Channel
    slice_bound: Callable[[], int]
    bucket: Optional[Any] = None
    overloaded: Optional[Callable[[str], bool]] = None


@dataclass
class Lane:
    """The unit of admission state: one tenant's path into one shard.

    ``tenant`` is ``None`` for the anonymous tenant of a single-tenant
    service.  ``queued`` counts the lane's entries now in the shard's
    queue, so the :class:`QueueStats` algebra is checkable from the
    lane alone; ``breaker`` fences this lane and no other.
    """

    tenant: Optional[str]
    terms: _Terms
    breaker: CircuitBreaker
    stats: QueueStats = field(default_factory=QueueStats)
    queued: int = 0


@dataclass
class DrainOutcome:
    """What one :meth:`AsyncChannel.drain` pass did.

    Attributes:
        delivered: ``(sender, payload)`` pairs, in dispatch order.
        shed: ``(sender, reason)`` pairs dropped by the deadline.
        failed: ``(sender, error)`` pairs whose transfer exhausted its
            retry budget (already charged by the channel).
    """

    delivered: List[Tuple[str, Any]] = field(default_factory=list)
    shed: List[Tuple[str, str]] = field(default_factory=list)
    failed: List[Tuple[str, ChannelError]] = field(default_factory=list)


class AsyncChannel:
    """Bounded, admission-controlled ingress in front of a channel.

    Composition, not inheritance: the wrapped
    :class:`~repro.federation.channel.Channel` keeps doing all transfer
    charging (``comm.*``, retries, corruption); this class adds the
    event-loop concerns -- per-shard bounded queues, admission verdicts,
    deadline shedding -- and charges only the control plane
    (``comm.admission.*``) and the shed path (``fault.shed``).

    All admission state lives in :attr:`lanes`.  ``channel``,
    ``queue_capacity`` and ``overloaded`` are the anonymous tenant's
    terms; :meth:`register_tenant` binds a named tenant's.

    Args:
        channel: The byte-counting transfer channel.
        clock: The virtual clock driving deadlines and backoff hints.
        queue_capacity: Ingress bound per shard; the memory guarantee.
        overloaded: Optional predicate ``(shard) -> bool`` consulted at
            admission -- the hook the ``queue_overload`` fault kind uses
            to force rejections deterministically.
        tenants: Optional :class:`~repro.federation.tenancy.TenantRegistry`
            turning admission tenant-scoped: weighted queue slices,
            token-bucket quotas, per-(shard, tenant) breakers and
            tenant-prefixed control-plane charges.  Tenant-tagged
            submissions require a prior :meth:`register_tenant`.
    """

    def __init__(self, channel: Channel, clock: VirtualClock,
                 queue_capacity: int = 64,
                 overloaded: Optional[Callable[[str], bool]] = None,
                 tenants: Optional["TenantRegistry"] = None):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        self.channel = channel
        self.clock = clock
        self.queue_capacity = queue_capacity
        self.tenants = tenants
        self._queues: Dict[str, Deque[_QueueEntry]] = {}
        self._peak_depth: Dict[str, int] = {}
        self._terms: Dict[Optional[str], _Terms] = {
            None: _Terms(channel, lambda: queue_capacity,
                         overloaded=overloaded)}
        #: (shard, tenant) -> the lane; the only admission state.
        self.lanes: Dict[Tuple[str, Optional[str]], Lane] = {}

    # ------------------------------------------------------------------
    # Shards, tenants and lanes.
    # ------------------------------------------------------------------

    def _queue(self, shard: str) -> Deque[_QueueEntry]:
        """One shard's FIFO (every tenant's entries), created on demand."""
        if shard not in self._queues:
            self._queues[shard] = deque()
            self._peak_depth[shard] = 0
        return self._queues[shard]

    def queue_depth(self, shard: str) -> int:
        """Entries waiting in one shard's queue, across all its lanes."""
        return len(self._queues.get(shard, ()))

    @property
    def stats(self) -> Dict[str, QueueStats]:
        """Per-shard totals, summed over the shard's lanes on each read."""
        totals = {shard: QueueStats(peak_depth=peak)
                  for shard, peak in self._peak_depth.items()}
        for (shard, _tenant), lane in self.lanes.items():
            for name in _SUMMED_COUNTERS:
                setattr(totals[shard], name, getattr(totals[shard], name)
                        + getattr(lane.stats, name))
        return totals

    def register_tenant(self, tenant_id: str,
                        channel: Optional[Channel] = None,
                        overloaded: Optional[Callable[[str], bool]] = None
                        ) -> None:
        """Bind one tenant's channel and overload probe (and build its
        bucket and queue slice).

        The channel's ledger receives the tenant's control-plane and
        shed charges, keeping per-tenant accounting separable; the
        anonymous tenant's channel and probe are used when none is
        given (single-ledger deployments).
        """
        from repro.federation.tenancy import TokenBucket

        if self.tenants is None:
            raise ValueError(
                "register_tenant needs an AsyncChannel built over a "
                "TenantRegistry")
        tenant = self.tenants.require(tenant_id)
        terms = self._terms.get(tenant_id)
        if terms is None:
            terms = self._terms[tenant_id] = _Terms(
                self.channel,
                partial(self.tenants.share, tenant_id, self.queue_capacity),
                TokenBucket(self.clock, tenant.quota_rate,
                            tenant.quota_burst)
                if tenant.quota_rate is not None else None)
        terms.channel = channel if channel is not None else self.channel
        terms.overloaded = overloaded if overloaded is not None \
            else self._terms[None].overloaded

    def lane(self, shard: str, tenant: Optional[str] = None) -> Lane:
        """The ``(shard, tenant)`` lane, created on first use."""
        key = (shard, tenant)
        lane = self.lanes.get(key)
        if lane is None:
            terms = self._terms.get(tenant)
            if terms is None:
                raise ValueError(
                    f"tenant {tenant!r} is not registered with this "
                    f"channel; call register_tenant first")
            self._queue(shard)
            lane = self.lanes[key] = Lane(tenant, terms, CircuitBreaker(
                self.clock, failure_threshold=BREAKER_FAILURE_THRESHOLD,
                cooldown_seconds=BREAKER_COOLDOWN_SECONDS,
                charge_open=lambda: terms.channel.ledger.charge(
                    CAT_FAULT_CIRCUIT_OPEN, 0.0, count=1)))
        return lane

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------

    def _admission_seconds(self) -> float:
        return self.channel.profile.network_seconds(ADMISSION_BYTES,
                                                    messages=1)

    def _reject(self, lane: Lane, shard: str, reason: str,
                retry_after: float) -> AdmissionRejected:
        lane.terms.channel.ledger.charge(
            admission_category(
                "quota" if reason == REJECT_QUOTA else "reject",
                lane.tenant),
            self._admission_seconds(), count=1,
            payload_bytes=ADMISSION_BYTES)
        if reason == REJECT_QUEUE_FULL:
            lane.stats.rejected_full += 1
        elif reason == REJECT_CIRCUIT_OPEN:
            lane.stats.rejected_fenced += 1
        elif reason == REJECT_QUOTA:
            lane.stats.rejected_quota += 1
            return QuotaExceeded(shard, lane.tenant,
                                 retry_after_seconds=retry_after)
        else:
            lane.stats.rejected_overload += 1
        return AdmissionRejected(shard, reason,
                                 retry_after_seconds=retry_after)

    def submit(self, shard: str, message: Message,
               arrival_delay: float = 0.0,
               tenant: Optional[str] = None) -> None:
        """Admit one upload into a shard's ingress queue, or raise.

        Admission runs on the ``(shard, tenant)`` lane: its breaker is
        consulted (no other lane's), one quota token is spent when the
        tenant is metered (:class:`QuotaExceeded` when the bucket is
        dry), and the queue-full bound is first the tenant's weighted
        slice of the shared capacity -- another tenant's backlog can
        never consume this tenant's slots -- then the whole queue's.

        Raises:
            AdmissionRejected: The lane is fenced (breaker open), the
                tenant's slice or the queue is at capacity, or an
                injected overload is in force.  Charged before raising.
            QuotaExceeded: The tenant's token bucket ran dry; retry
                after the bucket's refill horizon.
        """
        lane = self.lane(shard, tenant)
        terms = lane.terms
        breaker = lane.breaker
        if not breaker.allow():
            remaining = (breaker.opened_at + breaker.cooldown_seconds
                         - self.clock.now)
            raise self._reject(lane, shard, REJECT_CIRCUIT_OPEN,
                               max(remaining, 0.0))
        if terms.bucket is not None and not terms.bucket.try_acquire():
            raise self._reject(lane, shard, REJECT_QUOTA,
                               terms.bucket.retry_after())
        if terms.overloaded is not None and terms.overloaded(shard):
            raise self._reject(lane, shard, REJECT_OVERLOAD,
                               DISPATCH_SECONDS * self.queue_capacity)
        queue = self._queues[shard]
        slice_bound = terms.slice_bound()
        if lane.queued >= slice_bound:
            raise self._reject(lane, shard, REJECT_QUEUE_FULL,
                               DISPATCH_SECONDS * slice_bound)
        if len(queue) >= self.queue_capacity:
            raise self._reject(lane, shard, REJECT_QUEUE_FULL,
                               DISPATCH_SECONDS * len(queue))
        terms.channel.ledger.charge(admission_category("accept", tenant),
                                    self._admission_seconds(), count=1,
                                    payload_bytes=ADMISSION_BYTES)
        queue.append(_QueueEntry(message, tenant,
                                 self.clock.now + arrival_delay))
        lane.stats.accepted += 1
        lane.queued += 1
        lane.stats.peak_depth = max(lane.stats.peak_depth, lane.queued)
        self._peak_depth[shard] = max(self._peak_depth[shard], len(queue))

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def drain(self, shard: str, deadline: Optional[float] = None,
              tenant: Optional[str] = None) -> DrainOutcome:
        """Deliver one shard's backlog in FIFO order.

        Each dequeue advances the virtual clock by the dispatch cost.
        An entry whose ``ready_at`` (or the current modelled time) lies
        past ``deadline`` is *shed*: charged to ``fault.shed`` with its
        wire bytes and reported, never silently dropped -- the round
        degrades into quorum + Eq. 6 partial aggregation.  Transfer
        failures (exhausted retries) are returned rather than raised so
        one sick sender cannot abort the whole drain; the caller feeds
        them to the lane's circuit breaker.

        Every entry is dispatched through its own lane's channel and
        counted on its own lane.  With a ``tenant``, only that tenant's
        entries are dispatched (in their own FIFO order); other tenants'
        entries stay queued untouched.  This is what makes a tenant's
        drain timeline independent of its neighbours' backlogs.
        """
        queue = self._queue(shard)
        outcome = DrainOutcome()
        kept: Deque[_QueueEntry] = deque()
        while queue:
            entry = queue.popleft()
            if tenant is not None and entry.tenant != tenant:
                kept.append(entry)
                continue
            lane = self.lanes[(shard, entry.tenant)]
            channel = lane.terms.channel
            message = entry.message
            lane.queued -= 1
            self.clock.advance(DISPATCH_SECONDS)
            if deadline is not None and \
                    max(entry.ready_at, self.clock.now) > deadline:
                wire = (message.ciphertext_count
                        * channel.profile.wire_bytes(
                            message.ciphertext_bytes, packed=message.packed)
                        + message.plaintext_bytes)
                channel.ledger.charge(CAT_FAULT_SHED, 0.0, count=1,
                                      payload_bytes=wire)
                lane.stats.shed += 1
                outcome.shed.append((message.sender, "deadline"))
                continue
            try:
                payload = channel.send(message)
            except ChannelError as error:
                lane.stats.failed += 1
                outcome.failed.append((message.sender, error))
                continue
            lane.stats.delivered += 1
            outcome.delivered.append((message.sender, payload))
        queue.extend(kept)
        return outcome

    # ------------------------------------------------------------------
    # Elastic rebalancing support.
    # ------------------------------------------------------------------

    def migrate(self, source: str,
                route: Callable[[int, str], str]) -> Dict[str, int]:
        """Hand every queued entry of ``source`` to new shard queues.

        The shard pool's split/merge handoff: ``route(index, sender)``
        names the destination shard for the ``index``-th queued entry
        (deterministic routing is the caller's contract; the WAL-
        journaled handoff record pins the same assignment for crash
        recovery).  Entries keep their ready time and relative order,
        and *acceptance travels with them*: ``migrated_out`` /
        ``migrated_in`` counters keep ``accepted + migrated_in -
        migrated_out == delivered + shed + failed + queued`` true per
        lane -- an in-flight upload is never dropped and never
        double-counted across a rebalance.

        Returns destination shard -> entries moved.
        """
        queue = self._queue(source)
        moved: Dict[str, int] = {}
        entries = list(queue)
        queue.clear()
        for index, entry in enumerate(entries):
            target = route(index, entry.message.sender)
            if target == source:
                queue.append(entry)
                continue
            origin = self.lanes[(source, entry.tenant)]
            landing = self.lane(target, entry.tenant)
            target_queue = self._queues[target]
            target_queue.append(entry)
            origin.stats.migrated_out += 1
            origin.queued -= 1
            landing.stats.migrated_in += 1
            landing.queued += 1
            landing.stats.peak_depth = max(landing.stats.peak_depth,
                                           landing.queued)
            self._peak_depth[target] = max(self._peak_depth[target],
                                           len(target_queue))
            moved[target] = moved.get(target, 0) + 1
        return moved
