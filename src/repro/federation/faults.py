"""Fault model for the federation layer: who fails, when, and how.

The paper's evaluation (Sec. VI) assumes every participant survives every
round; production cross-silo deployments do not.  This module provides a
*seeded, deterministic* fault model so every experiment in the repo can be
re-run under adverse conditions and still reproduce bit-for-bit:

- :class:`FaultPlan` -- an immutable schedule of per-party, per-round
  events (permanent crash, transient dropout with rejoin, straggler
  delay) plus stochastic per-message processes (loss, ciphertext
  corruption);
- :class:`FaultInjector` -- the live and *only* interpreter of a plan:
  queried by the aggregation layer per round and by the channel per
  message, charging every triggered event to the cost ledger under
  ``fault.*`` categories through its one :meth:`FaultInjector.record`.
  Every runtime, channel and aggregator holds one; a run without faults
  is a run over the empty ``FaultPlan()``, which never draws, never
  drops and never charges;
- :class:`RetryPolicy` -- exponential backoff with jitter and a
  modelled-time budget, the one way to configure retransmission;
- :class:`QuorumError` -- raised when a round cannot gather the minimum
  number of surviving clients.

Ledger categories written here (all grouped into the paper's "Others"
component, and summarized by
:class:`repro.federation.metrics.FaultReport`):

- ``fault.crash``      -- a permanent crash observed in a round;
- ``fault.dropout``    -- a transient outage observed in a round;
- ``fault.straggler``  -- straggler delays, charged as modelled seconds;
- ``fault.deadline``   -- stragglers excluded by the round deadline;
- ``fault.lost_update``-- client uploads lost after exhausting retries;
- ``fault.retransmit`` -- retransmitted channel attempts (time + bytes);
- ``fault.corrupt``    -- corrupted payloads caught by the checksum;
- ``fault.giveup``     -- transfers abandoned after the retry budget;
- ``fault.coordinator_crash`` -- coordinator killed and recovered from
  its write-ahead log (see :mod:`repro.federation.coordinator`);
- ``fault.failover``   -- standby takeover of a dead coordinator's
  in-flight round;
- ``fault.shard_crash`` -- a leaf shard coordinator killed at a WAL
  record boundary and failed over to its shard standby (see
  :mod:`repro.federation.shard`);
- ``fault.queue_overload`` -- a shard's admission control forced into
  rejecting every upload for a round (backpressure drill);
- ``fault.tenant_flood`` -- a tenant-wide retry storm injected against
  the multi-tenant ingress (noisy-neighbor drill; see
  :mod:`repro.federation.tenancy`);
- ``fault.tenant_crash`` -- a whole tenant taken offline, its rounds
  skipped while every other tenant proceeds untouched.

Determinism: every stochastic decision draws from one ``random.Random``
seeded by ``plan.seed + incarnation``.  The *incarnation* increments on
every checkpoint/resume cycle, so a resumed run sees fresh (but still
reproducible) draws instead of deterministically replaying the exact
failure that aborted it.  Transient ``dropout`` events model an outage
lasting wall-clock time, so they only fire in incarnation 0 -- after a
restart the dropped-out party has rejoined; permanent crashes persist
across incarnations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

from repro.ledger import CostLedger, fault_category
from repro.rng import jitter_seed, master_test_seed  # noqa: F401 -- re-exported

#: Event kinds a :class:`FaultPlan` may schedule.
CRASH = "crash"
DROPOUT = "dropout"
STRAGGLER = "straggler"
#: Coordinator-side kinds (PR 4): kill the primary after it appends WAL
#: record ``after_record`` -- ``coordinator_crash`` restarts the same
#: coordinator from its log, ``failover`` hands the round to the hot
#: standby via the lease protocol.
COORDINATOR_CRASH = "coordinator_crash"
FAILOVER = "failover"
#: Sharded-service kinds (see :mod:`repro.federation.shard`):
#: ``shard_crash`` kills one *leaf* shard coordinator after it appends
#: WAL record ``after_record`` to its own log (the shard's standby takes
#: over); ``queue_overload`` forces a shard's admission control to
#: reject every upload for one round, exercising the backpressure path.
SHARD_CRASH = "shard_crash"
QUEUE_OVERLOAD = "queue_overload"
#: Multi-tenant kinds (see :mod:`repro.federation.tenancy` and the
#: multi-tenant service in :mod:`repro.federation.shard`):
#: ``tenant_flood`` makes every client of one tenant retransmit its
#: upload ``intensity`` extra times in one round -- a retry storm that
#: burns the tenant's token-bucket quota and queue slice;
#: ``tenant_crash`` takes a whole tenant offline from ``round_index``
#: on.  Both degrade *only* the named tenant: the isolation invariant
#: asserts other tenants' weights stay byte-identical.
TENANT_FLOOD = "tenant_flood"
TENANT_CRASH = "tenant_crash"
#: Kinds a plan cannot schedule but a round can *observe* and
#: :meth:`FaultInjector.record`: a straggler the round deadline
#: excluded, and an upload lost after its transfer exhausted its retries.
DEADLINE = "deadline"
LOST_UPDATE = "lost_update"

_EVENT_KINDS = (CRASH, DROPOUT, STRAGGLER, COORDINATOR_CRASH, FAILOVER,
                SHARD_CRASH, QUEUE_OVERLOAD, TENANT_FLOOD, TENANT_CRASH)
COORDINATOR_KINDS = (COORDINATOR_CRASH, FAILOVER)
#: Every kind that kills a journaled node after a WAL record.
NODE_KILL_KINDS = COORDINATOR_KINDS + (SHARD_CRASH,)
SHARD_KINDS = (SHARD_CRASH, QUEUE_OVERLOAD)


class QuorumError(RuntimeError):
    """A round gathered fewer surviving clients than the quorum.

    Attributes:
        round_index: The aggregation round that failed.
        survivors: Names of the clients that did report.
        required: The quorum that was not met.
    """

    def __init__(self, round_index: int, survivors: List[str],
                 required: int, total: int):
        self.round_index = round_index
        self.survivors = list(survivors)
        self.required = required
        self.total = total
        super().__init__(
            f"round {round_index}: only {len(survivors)}/{total} clients "
            f"reported (quorum {required}); survivors: "
            f"{', '.join(survivors) if survivors else 'none'}")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled event in a fault plan.

    Attributes:
        kind: ``crash`` (permanent from ``round_index`` on), ``dropout``
            (absent for ``[round_index, rejoin_round)``), or
            ``straggler`` (delayed by ``delay_seconds`` in
            ``round_index`` only).
        party: Party name, matching the aggregation layer's
            ``client-<i>`` convention.
        round_index: First aggregation round the event affects.
        rejoin_round: For ``dropout``: first round the party is back.
        delay_seconds: For ``straggler``: modelled delay charged to the
            round.
        after_record: For ``coordinator_crash`` / ``failover``: the WAL
            log sequence number after whose append the coordinator dies
            (the kill lands exactly on a record boundary).
        intensity: For ``tenant_flood``: extra retransmissions per
            client of the flooding tenant in ``round_index``.
    """

    kind: str
    party: str
    round_index: int
    rejoin_round: Optional[int] = None
    delay_seconds: float = 0.0
    after_record: Optional[int] = None
    intensity: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {_EVENT_KINDS}")
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")
        if self.kind == DROPOUT:
            if self.rejoin_round is None or \
                    self.rejoin_round <= self.round_index:
                raise ValueError("dropout needs rejoin_round > round_index")
        if self.kind == STRAGGLER and self.delay_seconds <= 0:
            raise ValueError("straggler needs a positive delay")
        if self.kind in NODE_KILL_KINDS:
            if self.after_record is None or self.after_record < 0:
                raise ValueError(
                    f"{self.kind} needs a non-negative after_record "
                    f"(the WAL record boundary to die at)")
        if self.kind == TENANT_FLOOD and self.intensity < 1:
            raise ValueError(
                "tenant_flood needs a positive intensity (extra "
                "retransmissions per client)")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of federation faults.

    Build fluently; each method returns a new plan::

        plan = (FaultPlan(seed=7)
                .crash("client-7", round_index=1)
                .straggler("client-6", round_index=2, delay_seconds=30.0)
                .with_message_loss(0.05))

    Attributes:
        events: Scheduled per-party events.
        loss_probability: Per-attempt message loss probability.
        corrupt_probability: Per-delivery ciphertext corruption
            probability (caught by the message checksum).
        seed: Base seed for every stochastic draw.
    """

    events: Tuple[FaultEvent, ...] = ()
    loss_probability: float = 0.0
    corrupt_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if not 0.0 <= self.corrupt_probability < 1.0:
            raise ValueError("corrupt_probability must be in [0, 1)")

    # ------------------------------------------------------------------
    # Fluent builders.
    # ------------------------------------------------------------------

    def _with_event(self, event: FaultEvent) -> "FaultPlan":
        return replace(self, events=self.events + (event,))

    def crash(self, party: str, round_index: int) -> "FaultPlan":
        """Schedule a permanent crash from ``round_index`` on."""
        return self._with_event(FaultEvent(CRASH, party, round_index))

    def dropout(self, party: str, round_index: int,
                rejoin_round: int) -> "FaultPlan":
        """Schedule a transient outage with a rejoin round."""
        return self._with_event(FaultEvent(
            DROPOUT, party, round_index, rejoin_round=rejoin_round))

    def straggler(self, party: str, round_index: int,
                  delay_seconds: float) -> "FaultPlan":
        """Schedule a straggler delay in one round."""
        return self._with_event(FaultEvent(
            STRAGGLER, party, round_index, delay_seconds=delay_seconds))

    def coordinator_crash(self, round_index: int, after_record: int,
                          party: str = "coordinator") -> "FaultPlan":
        """Kill the coordinator after it appends WAL record
        ``after_record``; it restarts and recovers from its own log."""
        return self._with_event(FaultEvent(
            COORDINATOR_CRASH, party, round_index,
            after_record=after_record))

    def failover(self, round_index: int, after_record: int,
                 party: str = "coordinator") -> "FaultPlan":
        """Kill the coordinator after WAL record ``after_record`` and
        hand the round to the hot standby via the lease protocol."""
        return self._with_event(FaultEvent(
            FAILOVER, party, round_index, after_record=after_record))

    def shard_crash(self, shard: str, round_index: int,
                    after_record: int) -> "FaultPlan":
        """Kill leaf shard ``shard`` after it appends record
        ``after_record`` to *its own* WAL; the shard's standby takes
        over under the lease protocol."""
        return self._with_event(FaultEvent(
            SHARD_CRASH, shard, round_index, after_record=after_record))

    def queue_overload(self, shard: str, round_index: int) -> "FaultPlan":
        """Force shard ``shard``'s admission control to reject every
        upload in one round (typed ``AdmissionRejected``, never a
        silent drop)."""
        return self._with_event(FaultEvent(
            QUEUE_OVERLOAD, shard, round_index))

    def tenant_flood(self, tenant: str, round_index: int,
                     intensity: int = 4) -> "FaultPlan":
        """Make every client of ``tenant`` retransmit its upload
        ``intensity`` extra times in one round -- a noisy-neighbor retry
        storm absorbed by the tenant's quota, queue slice, and the
        leaves' exactly-once dedupe."""
        return self._with_event(FaultEvent(
            TENANT_FLOOD, tenant, round_index, intensity=intensity))

    def tenant_crash(self, tenant: str, round_index: int) -> "FaultPlan":
        """Take a whole tenant offline from ``round_index`` on; its
        rounds are skipped (and charged) instead of run."""
        return self._with_event(FaultEvent(
            TENANT_CRASH, tenant, round_index))

    def with_message_loss(self, probability: float) -> "FaultPlan":
        """Set the per-attempt message loss probability."""
        return replace(self, loss_probability=probability)

    def with_corruption(self, probability: float) -> "FaultPlan":
        """Set the per-delivery ciphertext corruption probability."""
        return replace(self, corrupt_probability=probability)

    def events_for(self, party: str) -> List[FaultEvent]:
        """All events scheduled for one party."""
        return [event for event in self.events if event.party == party]

    def coordinator_events(self) -> List[FaultEvent]:
        """The scheduled coordinator kills, in WAL-record order."""
        return sorted(
            (e for e in self.events if e.kind in COORDINATOR_KINDS),
            key=lambda e: e.after_record)

    def shard_events(self) -> List[FaultEvent]:
        """The scheduled shard-level faults, in schedule order."""
        return [e for e in self.events if e.kind in SHARD_KINDS]

    # ------------------------------------------------------------------
    # Wire form (consumed by the deterministic simulator's trace).
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "loss_probability": self.loss_probability,
            "corrupt_probability": self.corrupt_probability,
            "events": [
                {"kind": e.kind, "party": e.party,
                 "round_index": e.round_index,
                 "rejoin_round": e.rejoin_round,
                 "delay_seconds": e.delay_seconds,
                 "after_record": e.after_record,
                 "intensity": e.intensity}
                for e in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        events = tuple(
            FaultEvent(kind=e["kind"], party=e["party"],
                       round_index=e["round_index"],
                       rejoin_round=e.get("rejoin_round"),
                       delay_seconds=e.get("delay_seconds", 0.0),
                       after_record=e.get("after_record"),
                       intensity=e.get("intensity", 0))
            for e in data.get("events", [])
        )
        return cls(events=events,
                   loss_probability=data.get("loss_probability", 0.0),
                   corrupt_probability=data.get("corrupt_probability", 0.0),
                   seed=data.get("seed", 0))


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter over *modelled* time.

    The delays are charged to the ledger (``fault.retransmit``), not
    slept: the federation is an in-process model, so backoff is part of
    the modelled round time just like transfer latency.

    Attributes:
        max_retries: Retransmissions after the first attempt before a
            transfer is abandoned (``max_retries + 1`` total attempts).
        base_delay: Backoff before the first retransmission, seconds.
        backoff_factor: Multiplier per further retransmission.
        max_delay: Ceiling on a single backoff.
        jitter: Uniform jitter fraction added on top of each backoff
            (``delay * jitter * U[0, 1)``), decorrelating retry storms.
        time_budget: Optional ceiling on the *total* modelled seconds
            (transfers + backoff) one logical send may consume; the
            transfer is abandoned once exceeded, even with retries left.
    """

    max_retries: int = 5
    base_delay: float = 0.0
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.0
    time_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")

    def backoff_seconds(self, retry_index: int,
                        rng: Optional[random.Random] = None) -> float:
        """Backoff before retransmission ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        delay = min(self.base_delay * self.backoff_factor ** retry_index,
                    self.max_delay)
        if rng is not None and self.jitter > 0 and delay > 0:
            delay += delay * self.jitter * rng.random()
        return delay

    def exhausted(self, attempts: int, elapsed_seconds: float) -> bool:
        """Whether a transfer must be abandoned at this point."""
        if attempts > self.max_retries:  # attempts counts retransmissions
            return True
        if self.time_budget is not None and \
                elapsed_seconds >= self.time_budget:
            return True
        return False


#: The runtime's default policy: five retries, 50 ms base backoff
#: doubling to a 2 s ceiling, 10% jitter.  Only a dropped or corrupted
#: attempt consults it, so a run over the empty plan never does.
DEFAULT_RETRY_POLICY = RetryPolicy(max_retries=5, base_delay=0.05,
                                   backoff_factor=2.0, max_delay=2.0,
                                   jitter=0.1)


class FaultInjector:
    """Live interpreter of a :class:`FaultPlan`.

    The aggregation layer asks :meth:`is_alive` / :meth:`straggler_delay`
    per (party, round); the channel asks :meth:`should_drop_message` /
    :meth:`should_corrupt` per attempt; the services ask
    :meth:`scheduled_kills` / :meth:`queue_overloaded` /
    :meth:`tenant_crashed` / :meth:`tenant_flood_intensity`.  Whoever
    acts on an answer reports it through :meth:`record`, which charges
    the bound ledger under the kind's ``fault.*`` category and appends to
    :attr:`triggered` for the :class:`~repro.federation.metrics.FaultReport`.

    Args:
        plan: The fault schedule; ``FaultPlan()`` is the fault-free run.
        ledger: Cost ledger to charge; rebindable via
            :meth:`bind_ledger` on epoch rollover.
        incarnation: Checkpoint/resume generation.  Seeds the stochastic
            draws with ``plan.seed + incarnation`` and disables transient
            dropout events for ``incarnation > 0`` (the outage does not
            outlive a restart).
    """

    def __init__(self, plan: FaultPlan,
                 ledger: Optional[CostLedger] = None,
                 incarnation: int = 0):
        if incarnation < 0:
            raise ValueError("incarnation must be non-negative")
        self.plan = plan
        self.ledger = ledger if ledger is not None else CostLedger()
        self.incarnation = incarnation
        self._rng = random.Random(plan.seed + incarnation)
        #: (kind, party, round_index) tuples of every event that fired.
        self.triggered: List[Tuple[str, str, int]] = []

    def bind_ledger(self, ledger: CostLedger) -> None:
        """Point fault charges at a new (epoch) ledger."""
        self.ledger = ledger

    # ------------------------------------------------------------------
    # Per-round party state.
    # ------------------------------------------------------------------

    def is_alive(self, party: str, round_index: int) -> bool:
        """Whether a party participates in a round; charges the event."""
        for event in self.plan.events_for(party):
            if event.kind == CRASH and round_index >= event.round_index:
                self.record(CRASH, party, round_index)
                return False
            if event.kind == DROPOUT and self.incarnation == 0 and \
                    event.round_index <= round_index < event.rejoin_round:
                self.record(DROPOUT, party, round_index)
                return False
        return True

    def straggler_delay(self, party: str, round_index: int) -> float:
        """Modelled delay this party adds to this round (0 if none)."""
        total = 0.0
        for event in self.plan.events_for(party):
            if event.kind == STRAGGLER and \
                    event.round_index == round_index:
                total += event.delay_seconds
        return total

    # ------------------------------------------------------------------
    # Node, shard and tenant state (pure queries; the service that acts
    # on the answer records it).
    # ------------------------------------------------------------------

    def scheduled_kills(self, party: str,
                        round_index: int) -> List[FaultEvent]:
        """Node ``party``'s scheduled deaths in ``round_index``, in WAL
        record order (the node's supervisor arms them one at a time)."""
        return sorted((event for event in self.plan.events
                       if event.kind in NODE_KILL_KINDS
                       and event.party == party
                       and event.round_index == round_index),
                      key=lambda event: event.after_record)

    def queue_overloaded(self, shard: str, round_index: int) -> bool:
        """Whether an injected overload is in force for a shard/round
        (the :class:`~repro.federation.eventloop.AsyncChannel` consults
        it at admission)."""
        return any(e.kind == QUEUE_OVERLOAD and e.party == shard
                   and e.round_index == round_index
                   for e in self.plan.events)

    def tenant_flood_intensity(self, tenant: str,
                               round_index: int) -> int:
        """Extra retransmissions per client of ``tenant`` this round."""
        return sum(e.intensity for e in self.plan.events
                   if e.kind == TENANT_FLOOD and e.party == tenant
                   and e.round_index == round_index)

    def tenant_crashed(self, tenant: str, round_index: int) -> bool:
        """Whether ``tenant`` is offline in ``round_index``."""
        return any(e.kind == TENANT_CRASH and e.party == tenant
                   and round_index >= e.round_index
                   for e in self.plan.events)

    # ------------------------------------------------------------------
    # Per-message stochastic processes (consumed by the channel).
    # ------------------------------------------------------------------

    def should_drop_message(self) -> bool:
        """Draw the per-attempt loss process."""
        return (self.plan.loss_probability > 0.0
                and self._rng.random() < self.plan.loss_probability)

    def should_corrupt(self) -> bool:
        """Draw the per-delivery corruption process."""
        return (self.plan.corrupt_probability > 0.0
                and self._rng.random() < self.plan.corrupt_probability)

    def corrupt_payload(self, payload: Any) -> Any:
        """Return a bit-flipped copy of a ciphertext payload.

        Integer-list payloads (raw ciphertext batches) and
        :class:`~repro.tensor.cipher.CipherTensor` payloads are
        corrupted; anything else passes through untouched, modelling
        corruption of the ciphertext body.
        """
        from repro.tensor.cipher import CipherTensor

        if isinstance(payload, CipherTensor) and payload.num_words:
            tampered = list(payload.words)
            index = self._rng.randrange(len(tampered))
            bit = self._rng.randrange(max(tampered[index].bit_length(), 8))
            tampered[index] ^= 1 << bit
            return payload.with_words(tampered)
        if isinstance(payload, list) and payload and \
                all(isinstance(v, int) for v in payload):
            tampered = list(payload)
            index = self._rng.randrange(len(tampered))
            bit = self._rng.randrange(max(tampered[index].bit_length(), 8))
            tampered[index] ^= 1 << bit
            return tampered
        return payload

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------

    def record(self, kind: str, party: str, round_index: int,
               seconds: float = 0.0, payload_bytes: int = 0) -> None:
        """Charge one fault that took effect and remember it.

        ``kind`` is one of this module's kind constants; ``seconds`` is
        modelled time the fault cost the round (a straggler waited out,
        a deadline run down), ``payload_bytes`` the wire bytes it wasted
        (a lost update's failed attempts).
        """
        self.triggered.append((kind, party, round_index))
        self.ledger.charge(fault_category(kind), seconds, count=1,
                           payload_bytes=payload_bytes)

    def triggered_counts(self) -> dict:
        """Event counts by kind, for reports."""
        counts: dict = {}
        for kind, _, _ in self.triggered:
            counts[kind] = counts.get(kind, 0) + 1
        return counts
