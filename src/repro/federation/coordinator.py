"""Durable, failover-capable aggregation coordinator.

PR 1 made *clients* survivable; this module does the same for the
aggregator itself, the last single point of failure in the federation:

- :class:`RoundStateMachine` -- the legal lifecycle of one aggregation
  round (``open -> uploads -> quorum -> committed -> closed``), applied
  from :class:`~repro.federation.wal.WalRecord` transitions.  Every
  upload carries a dedupe key and every record a coordinator
  incarnation, so replayed or duplicated messages are applied *exactly
  once* and a deposed coordinator's writes are fenced off.
- :class:`DurableCoordinator` -- a write-ahead-logged wrapper around
  :class:`~repro.federation.aggregator.SecureAggregator`: each round
  transition is journaled *before* it takes effect, so a coordinator
  killed at any record boundary leaves a log from which
  :meth:`DurableCoordinator.recover` rebuilds a bit-identical state
  (accepted ciphertext uploads included) and finishes the round.
- :class:`LeaseManager` / :class:`StandbyCoordinator` -- hot-standby
  failover: the primary holds a lease (the flat coordinator heartbeats
  it, charged to the channel like any other message); a standby is
  built when the primary dies, and once the lease expires it acquires
  a bumped incarnation, fences the old primary, and takes over
  mid-round over one parse of the image.  Full-quorum failovers yield
  final weights identical to the fault-free run; degraded ones fall
  back to PR 1's partial-quorum Eq. 6 offset correction.
- :class:`NodeSupervisor` -- the one death-and-recovery path of every
  journaled coordinator, alone (the flat durable topology) or as a
  node of the sharded tree: it arms each node's scheduled kills
  through the fault injector and restarts or fails the node over by
  the kill's kind.

Determinism note: re-encrypting a vector after recovery draws fresh
Paillier randomizers, so the *ciphertexts* of post-recovery uploads
differ from an uninterrupted run -- but randomizers vanish at
decryption, so the decoded weights are bit-identical either way, and
the uploads accepted *before* the crash are reused verbatim from the
log (that part of the state really is bit-identical, which
:meth:`RoundStateMachine.digest` asserts).
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.federation.aggregator import AggregationRound, SecureAggregator
from repro.federation.channel import Message
from repro.federation.eventloop import LEASE_TIMEOUT_SECONDS, VirtualClock
from repro.federation.faults import COORDINATOR_CRASH, FaultEvent, QuorumError
from repro.federation.serialization import (
    deserialize_tensor,
    serialize_tensor,
)
from repro.federation.wal import (
    CHECKPOINT,
    DECRYPT_COMMITTED,
    PARTIAL_COMMITTED,
    QUORUM_REACHED,
    REBALANCE_KINDS,
    ROUND_CLOSE,
    ROUND_OPEN,
    UPLOAD_ACCEPTED,
    WalRecord,
    WriteAheadLog,
)
from repro.tensor.cipher import CipherTensor


class CoordinatorError(RuntimeError):
    """Base class for coordinator lifecycle failures."""


class InvalidTransitionError(CoordinatorError):
    """A WAL record arrived in an order no healthy coordinator writes."""


class StaleIncarnationError(CoordinatorError):
    """A deposed coordinator tried to act after losing its lease."""


class LeaseError(CoordinatorError):
    """A lease was requested while a live holder still owns it."""


class CoordinatorKilled(CoordinatorError):
    """The fault injector killed the coordinator at a record boundary.

    Attributes:
        lsn: Index of the last record the coordinator durably appended
            before dying -- the replay cut point.
    """

    def __init__(self, lsn: int):
        self.lsn = lsn
        super().__init__(
            f"coordinator killed after appending WAL record {lsn}")


#: Wire size of one heartbeat message (holder, incarnation, expiry).
HEARTBEAT_BYTES = 64


@dataclass
class Lease:
    """One coordinator's claim on the primary role.

    Attributes:
        holder: Name of the coordinator holding the lease.
        incarnation: Monotonic fencing token; every takeover bumps it.
        expires_at: Modelled time the lease lapses without a heartbeat.
    """

    holder: str
    incarnation: int
    expires_at: float


class LeaseManager:
    """Heartbeat-renewed lease arbitration between primary and standby.

    Args:
        timeout_seconds: Lease duration; a holder that misses heartbeats
            for this long is considered dead and can be superseded.
        clock: Zero-argument callable returning the current (modelled)
            time.  The deterministic simulator passes its virtual
            clock; the default is wall-clock monotonic time.
    """

    def __init__(self, timeout_seconds: float = 30.0,
                 clock: Optional[Callable[[], float]] = None):
        if timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        self.timeout_seconds = timeout_seconds
        # Real lease timekeeping needs a real clock; every simulated
        # path injects a deterministic one through ``clock``.
        self._clock = clock if clock is not None \
            else time.monotonic  # flcheck: allow[determinism]
        self.lease: Optional[Lease] = None

    def now(self) -> float:
        return self._clock()

    def expired(self) -> bool:
        """Whether the current lease (if any) has lapsed."""
        return self.lease is not None and self.now() >= self.lease.expires_at

    def acquire(self, holder: str) -> Lease:
        """Claim the lease; bumps the incarnation past any prior holder.

        Raises:
            LeaseError: A different holder's lease is still live.
        """
        if self.lease is not None and not self.expired() and \
                self.lease.holder != holder:
            raise LeaseError(
                f"{holder!r} cannot acquire: {self.lease.holder!r} holds "
                f"the lease until t={self.lease.expires_at:.3f}")
        incarnation = 0 if self.lease is None \
            else self.lease.incarnation + 1
        self.lease = Lease(holder=holder, incarnation=incarnation,
                           expires_at=self.now() + self.timeout_seconds)
        return self.lease

    def heartbeat(self, holder: str, incarnation: int,
                  channel=None, receiver: str = "standby") -> Lease:
        """Renew the lease; optionally charge the heartbeat to a channel.

        Raises:
            StaleIncarnationError: The heartbeat came from a holder that
                no longer owns the lease (fencing).
        """
        self.fence(incarnation, holder=holder)
        self.lease = Lease(holder=holder, incarnation=incarnation,
                           expires_at=self.now() + self.timeout_seconds)
        if channel is not None:
            channel.send(Message(
                sender=holder, receiver=receiver,
                tag="coordinator.heartbeat",
                payload={"holder": holder, "incarnation": incarnation},
                plaintext_bytes=HEARTBEAT_BYTES))
        return self.lease

    def fence(self, incarnation: int,
              holder: Optional[str] = None) -> None:
        """Reject an action from a superseded incarnation."""
        if self.lease is None:
            return
        if incarnation < self.lease.incarnation or (
                incarnation == self.lease.incarnation
                and holder is not None and holder != self.lease.holder):
            raise StaleIncarnationError(
                f"incarnation {incarnation}"
                f"{f' ({holder})' if holder else ''} is fenced: "
                f"{self.lease.holder!r} holds incarnation "
                f"{self.lease.incarnation}")


def frame_tensor(frame: str, engine) -> CipherTensor:
    """Decode one journaled (hex) tensor frame onto ``engine``."""
    tensor = deserialize_tensor(bytes.fromhex(frame))
    return CipherTensor(tensor.meta, words=list(tensor.words),
                        engine=engine)


@dataclass
class RoundState:
    """Mutable state of the round currently in flight.

    ``held_uploads`` / ``held_partial`` are the tensors beside the
    frames: what this round's coordinator accepted and committed
    itself, kept so its own commit sums them instead of decoding its
    journal again.  They are never journaled and take no part in the
    digest; a machine rebuilt from a log starts without them and
    decodes each frame once, on first use
    (:meth:`RoundStateMachine.upload_tensors`).  The uploads are let go
    at ``round_close``, once the commit they feed is journaled; the
    partial stays, since a closed leaf round still returns it.
    """

    round_index: int
    tag: str
    num_clients: int
    quorum: int
    survivors: List[str] = field(default_factory=list)
    upload_frames: Dict[str, str] = field(default_factory=dict)
    dedupe_keys: set = field(default_factory=set)
    quorum_logged: bool = False
    summands: int = 0
    result: Optional[List[float]] = None
    partial_frame: Optional[str] = None
    closed: bool = False
    aborted: Optional[str] = None
    held_uploads: Dict[str, CipherTensor] = field(
        default_factory=dict, compare=False, repr=False)
    held_partial: Optional[CipherTensor] = field(
        default=None, compare=False, repr=False)

    def to_state_dict(self) -> dict:
        """Canonical JSON-ready form, the basis of the state digest."""
        return {
            "round_index": self.round_index,
            "tag": self.tag,
            "num_clients": self.num_clients,
            "quorum": self.quorum,
            "survivors": list(self.survivors),
            "upload_frames": dict(sorted(self.upload_frames.items())),
            "dedupe_keys": sorted(self.dedupe_keys),
            "quorum_logged": self.quorum_logged,
            "summands": self.summands,
            "result": self.result,
            "partial_frame": self.partial_frame,
            "closed": self.closed,
            "aborted": self.aborted,
        }


class RoundStateMachine:
    """Applies WAL records to round state, exactly once each.

    The machine enforces the only record order a healthy coordinator
    produces; anything else raises :class:`InvalidTransitionError`.
    Duplicate uploads (same dedupe key) return ``False`` from
    :meth:`apply` instead of mutating state -- the exactly-once
    guarantee -- and records from an incarnation lower than the highest
    seen raise :class:`StaleIncarnationError` (fencing on replay).
    """

    def __init__(self):
        self.round: Optional[RoundState] = None
        #: round_index -> digest of the round's final state.
        self.closed_rounds: Dict[int, int] = {}
        self.max_incarnation = 0

    # ------------------------------------------------------------------
    # Application.
    # ------------------------------------------------------------------

    def apply(self, record: WalRecord) -> bool:
        """Apply one record; returns ``False`` for a deduplicated no-op."""
        if record.kind == CHECKPOINT:
            return self._apply_checkpoint(record)
        if record.incarnation < self.max_incarnation:
            raise StaleIncarnationError(
                f"record from incarnation {record.incarnation} after "
                f"incarnation {self.max_incarnation} acted")
        self.max_incarnation = record.incarnation
        if record.kind in REBALANCE_KINDS:
            raise InvalidTransitionError(
                f"{record.kind} records belong to the shard pool's "
                f"topology journal, not a round coordinator's log")
        handler = {
            ROUND_OPEN: self._apply_open,
            UPLOAD_ACCEPTED: self._apply_upload,
            QUORUM_REACHED: self._apply_quorum,
            DECRYPT_COMMITTED: self._apply_commit,
            PARTIAL_COMMITTED: self._apply_partial,
            ROUND_CLOSE: self._apply_close,
        }[record.kind]
        return handler(record)

    def _apply_checkpoint(self, record: WalRecord) -> bool:
        if self.round is not None or self.closed_rounds:
            raise InvalidTransitionError(
                "checkpoint after other records: it stands for the "
                "records a compaction dropped, so only a log's first "
                "record can be one")
        payload = record.payload
        self.closed_rounds = {int(index): digest for index, digest
                              in payload["closed_rounds"].items()}
        self.max_incarnation = payload["max_incarnation"]
        return True

    def _require_round(self, record: WalRecord) -> RoundState:
        if self.round is None or self.round.closed:
            raise InvalidTransitionError(
                f"{record.kind} with no round open")
        if self.round.round_index != record.round_index:
            raise InvalidTransitionError(
                f"{record.kind} names round {record.round_index} but "
                f"round {self.round.round_index} is open")
        return self.round

    def _apply_open(self, record: WalRecord) -> bool:
        if self.round is not None and not self.round.closed:
            raise InvalidTransitionError(
                f"round_open({record.round_index}) while round "
                f"{self.round.round_index} is still open")
        if record.round_index in self.closed_rounds:
            raise InvalidTransitionError(
                f"round {record.round_index} was already closed")
        payload = record.payload
        self.round = RoundState(
            round_index=record.round_index,
            tag=payload.get("tag", "gradients"),
            num_clients=int(payload.get("num_clients", 0)),
            quorum=int(payload.get("quorum", 0)))
        return True

    def _apply_upload(self, record: WalRecord) -> bool:
        state = self._require_round(record)
        if state.quorum_logged:
            raise InvalidTransitionError(
                "upload_accepted after quorum_reached")
        key = record.payload["dedupe_key"]
        if key in state.dedupe_keys:
            return False  # exactly-once: duplicate upload is a no-op
        state.dedupe_keys.add(key)
        client = record.payload["client"]
        state.survivors.append(client)
        state.upload_frames[client] = record.payload["frame"]
        return True

    def _apply_quorum(self, record: WalRecord) -> bool:
        state = self._require_round(record)
        if state.quorum_logged:
            return False
        survivors = list(record.payload.get("survivors", []))
        if survivors != state.survivors:
            raise InvalidTransitionError(
                f"quorum_reached names survivors {survivors} but the "
                f"log accepted {state.survivors}")
        state.quorum_logged = True
        state.summands = int(record.payload.get("summands",
                                                len(survivors)))
        return True

    def _apply_commit(self, record: WalRecord) -> bool:
        state = self._require_round(record)
        if not state.quorum_logged:
            raise InvalidTransitionError(
                "decrypt_committed before quorum_reached")
        if state.result is not None:
            return False
        state.result = list(record.payload["result"])
        return True

    def _apply_partial(self, record: WalRecord) -> bool:
        state = self._require_round(record)
        if not state.quorum_logged:
            raise InvalidTransitionError(
                "partial_committed before quorum_reached")
        if state.result is not None:
            raise InvalidTransitionError(
                "partial_committed after decrypt_committed: a round "
                "commits one or the other, never both")
        if state.partial_frame is not None:
            return False
        state.partial_frame = record.payload["frame"]
        return True

    def _apply_close(self, record: WalRecord) -> bool:
        state = self._require_round(record)
        state.closed = True
        state.aborted = record.payload.get("aborted")
        state.held_uploads.clear()
        self.closed_rounds[state.round_index] = self.digest()
        return True

    def checkpoint(self, lsn: int, resume: WalRecord) -> WalRecord:
        """The record that stands for this machine's log once every
        record before LSN ``lsn`` -- where ``resume`` opens the next
        round -- is dropped.

        It carries what replaying ``[checkpoint, resume, ...]`` cannot
        re-derive: a copy of the closed rounds' digests and the highest
        incarnation seen.  The closed round itself needs nothing, since
        ``resume`` replaces it.
        """
        return WalRecord(
            CHECKPOINT, resume.round_index, incarnation=resume.incarnation,
            payload={"closed_rounds": {str(index): digest for index, digest
                                       in self.closed_rounds.items()},
                     "lsn": lsn, "max_incarnation": self.max_incarnation})

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------

    def has_upload(self, round_index: int, client: str) -> bool:
        """Whether a client's upload for a round is already applied."""
        return (self.round is not None
                and self.round.round_index == round_index
                and not self.round.closed
                and client in self.round.upload_frames)

    def upload_tensors(self, engine) -> List[CipherTensor]:
        """The accepted uploads as tensors, in acceptance order.

        An upload the round holds is returned as held; one only the log
        holds -- journaled before a takeover or restart -- is decoded
        from its frame onto ``engine`` and held from then on.
        """
        if self.round is None:
            return []
        held = self.round.held_uploads
        frames = self.round.upload_frames
        tensors = []
        for client in self.round.survivors:
            tensor = held.get(client)
            if tensor is None:
                tensor = held[client] = frame_tensor(frames[client], engine)
            tensors.append(tensor)
        return tensors

    def digest(self) -> int:
        """CRC-32 of the canonical state -- the bit-identity witness.

        Two machines that applied the same record prefix produce the
        same digest; the crash-consistency sweep asserts a recovered
        coordinator's digest equals the uninterrupted run's digest at
        the same record index.  It serializes the whole open round
        (every accepted frame), so the round path takes it once, at
        ``round_close``; recovery and takeover take it once more.
        """
        state = {
            "round": (self.round.to_state_dict()
                      if self.round is not None else None),
            "closed_rounds": {str(k): v for k, v
                              in self.closed_rounds.items()},
            "max_incarnation": self.max_incarnation,
        }
        return zlib.crc32(json.dumps(
            state, sort_keys=True, separators=(",", ":")).encode("utf-8"))


class DurableCoordinator:
    """A :class:`SecureAggregator` whose rounds survive coordinator death.

    Every round transition is appended to the WAL *before* it takes
    effect in memory, so the log is always at least as new as the
    state.  Killing the coordinator after any append leaves a log from
    which a successor (same name restarted, or a hot standby) rebuilds
    the identical round state and finishes the round -- accepted uploads
    are reused verbatim from the log, never re-requested.  The log holds
    one round: the ``round_open`` after a closed round compacts it to a
    checkpoint and that ``round_open``, so a round just closed is still
    served from the log until the next one opens.

    Args:
        aggregator: The aggregation data path (engines, packer, channel,
            fault injector, quorum defaults).
        wal: The journal; a fresh in-memory log by default.  Passing a
            log with existing records recovers from it.
        name: Coordinator identity, for lease arbitration.
        incarnation: Fencing token; defaults to one more than the
            highest incarnation in the log (a successor) or 0 (a fresh
            log).
        lease_manager: Optional lease arbitration; when set, every
            append first fences this coordinator's incarnation, so a
            deposed primary raises :class:`StaleIncarnationError`
            instead of splitting the brain.
    """

    def __init__(self, aggregator: SecureAggregator,
                 wal: Optional[WriteAheadLog] = None,
                 name: str = "coordinator",
                 incarnation: Optional[int] = None,
                 lease_manager: Optional[LeaseManager] = None):
        self.aggregator = aggregator
        self.wal = wal if wal is not None else WriteAheadLog()
        self.name = name
        self.lease_manager = lease_manager
        self.machine = RoundStateMachine()
        for record in self.wal.records:
            self.machine.apply(record)
        if incarnation is None:
            incarnation = (self.machine.max_incarnation + 1
                           if len(self.wal) else 0)
        if incarnation < self.machine.max_incarnation:
            raise StaleIncarnationError(
                f"cannot run as incarnation {incarnation}: the log "
                f"already holds incarnation {self.machine.max_incarnation}")
        self.incarnation = incarnation
        #: Fault-injection hook: raise :class:`CoordinatorKilled` right
        #: after appending the record with this log sequence number.
        self.kill_after_lsn: Optional[int] = None

    # ------------------------------------------------------------------
    # Journaling.
    # ------------------------------------------------------------------

    def _log(self, kind: str, round_index: int, **payload) -> bool:
        """Fence, append, then apply one transition.

        Returns whether the record changed state (``False`` only for
        deduplicated uploads, which are not even appended).  A
        ``round_open`` after a closed round also compacts the log: the
        machine's checkpoint from before it replaces every earlier
        record.
        """
        if self.lease_manager is not None:
            self.lease_manager.fence(self.incarnation, holder=self.name)
        record = WalRecord(kind=kind, round_index=round_index,
                           incarnation=self.incarnation, payload=payload)
        lsn = self.wal.append(record)
        previous = self.machine.round
        checkpoint = (self.machine.checkpoint(lsn, record)
                      if kind == ROUND_OPEN and previous is not None
                      and previous.closed else None)
        changed = self.machine.apply(record)
        if checkpoint is not None:
            self.wal.compact(checkpoint)
        if self.kill_after_lsn is not None and lsn >= self.kill_after_lsn:
            raise CoordinatorKilled(lsn)
        return changed

    @property
    def digest_trail(self) -> List[int]:
        """State digest after each LSN the journal still holds --
        ``digest_trail[k]`` is the bit-identity witness for "recovered
        after record ``wal.first_lsn + k``".

        Derived, not kept: the journal (checkpoint included) replayed
        through a fresh machine, exactly what a coordinator recovered at
        that record computes; the checkpoint takes no LSN, so it adds no
        entry.  Only the crash sweeps read it, so no append pays for it.
        """
        machine = RoundStateMachine()
        trail: List[int] = []
        for record in self.wal.records:
            machine.apply(record)
            if record.kind != CHECKPOINT:
                trail.append(machine.digest())
        return trail

    def heartbeat(self, channel=None) -> None:
        """Renew this coordinator's lease (no-op without a manager)."""
        if self.lease_manager is not None:
            self.lease_manager.heartbeat(self.name, self.incarnation,
                                         channel=channel)

    # ------------------------------------------------------------------
    # Exactly-once upload intake.
    # ------------------------------------------------------------------

    @staticmethod
    def dedupe_key(round_index: int, client: str) -> str:
        """The per-message idempotence key for one client's upload."""
        return f"r{round_index}:{client}"

    def accept_upload(self, round_index: int, client: str,
                      tensor: CipherTensor) -> bool:
        """Journal one accepted upload; duplicates are no-ops.

        Returns ``True`` when the upload was applied, ``False`` when
        its dedupe key was already in the round (a client retransmission
        after a failover, for example) -- the WAL is not even touched,
        so replay cannot double-apply it either.
        """
        key = self.dedupe_key(round_index, client)
        if self.machine.round is not None and \
                key in self.machine.round.dedupe_keys:
            return False
        materialized = tensor.materialize()
        frame = serialize_tensor(materialized).hex()
        if not self._log(UPLOAD_ACCEPTED, round_index, client=client,
                         dedupe_key=key, frame=frame):
            return False
        # The frame decodes to exactly this tensor on the server engine,
        # so the round's commit sums it without decoding the frame.
        self.machine.round.held_uploads[client] = materialized.materialize(
            engine=self.aggregator.server_engine)
        return True

    def _accept_delivered(self, round_index: int,
                          uploads: Sequence[Tuple[str, CipherTensor]]
                          ) -> None:
        """Intake step for uploads someone else delivered (a shard's
        drained queue, the root's leaf partials): validate and journal
        each one the log does not already hold."""
        for sender, tensor in uploads:
            if self.machine.has_upload(round_index, sender):
                continue  # journaled before a crash: reuse verbatim
            self.aggregator.validate_ciphertexts(tensor)
            self.accept_upload(round_index, sender, tensor)

    # ------------------------------------------------------------------
    # The journaled round.
    # ------------------------------------------------------------------

    def _journaled_round(self, round_index: int, tag: str, scheduled: int,
                         quorum: int,
                         intake: Callable[[], None],
                         single_sum: bool = False) -> RoundState:
        """The write-ahead-logged round every tree node runs.

        ``round_open`` -> the missing ``upload_accepted`` records ->
        ``quorum_reached`` (or a ``round_close`` abort) -> this node's
        commit record (:meth:`_commit`) -> ``round_close``, each
        journaled before it takes effect.  A coordinator recovered
        mid-round *continues* the round: uploads already in the log are
        reused verbatim, a logged quorum is not re-declared, a logged
        commit is not recomputed; a round the log already closed is
        served from the log.

        Args:
            scheduled: How many uploads the round was opened for.
            intake: Journals (via :meth:`accept_upload`) every upload
                the log does not hold yet; skipped once quorum is
                logged.
            single_sum: :meth:`_commit` folds *every* accepted upload
                into one ciphertext, so their summand total must fit
                its capacity (a leaf; the flat round bounds its client
                count up front and the root segments instead).

        Returns the closed round's state.

        Raises:
            QuorumError: The round closed (now or in the log) below
                quorum.
        """
        if quorum < 1:
            raise ValueError("quorum must be at least 1")
        state = self.machine.round
        if state is None or state.round_index != round_index:
            self._log(ROUND_OPEN, round_index, tag=tag,
                      num_clients=scheduled, quorum=quorum)
            state = self.machine.round
        # Otherwise the log already holds this round: resume it, or --
        # the predecessor died right after its round_close -- honour
        # the decision instead of reopening.
        engine = self.aggregator.server_engine
        accepted: Optional[List[CipherTensor]] = None
        if not state.closed and not state.quorum_logged:
            intake()
            if len(state.survivors) < quorum:
                self._log(ROUND_CLOSE, round_index, aborted="quorum")
            else:
                accepted = self.machine.upload_tensors(engine)
                summands = sum(t.meta.summands for t in accepted)
                if single_sum:
                    # Honor the *uploads'* codec: an interleaved layout
                    # affords more summands than the dense default, a
                    # fact the tensors carry via their TensorMeta.
                    capacity = accepted[0].meta.summand_capacity()
                    if summands > capacity:
                        raise OverflowError(
                            f"shard cohort carries {summands} summands, "
                            f"over the {capacity} capacity -- "
                            f"plan_shards must split it")
                self._log(QUORUM_REACHED, round_index,
                          survivors=list(state.survivors),
                          summands=summands)
        if not state.closed:
            if state.result is None and state.partial_frame is None:
                if accepted is None:
                    # Quorum was logged by a predecessor: rebuild the
                    # uploads from the journal.
                    accepted = self.machine.upload_tensors(engine)
                self._commit(round_index, tag, accepted)
            self._log(ROUND_CLOSE, round_index)
        if state.aborted == "quorum":
            raise QuorumError(round_index, state.survivors, quorum,
                              scheduled)
        return state

    def _commit(self, round_index: int, tag: str,
                uploaded: List[CipherTensor]) -> None:
        """The commit step: journal what the accepted uploads come to.

        A decrypting node journals the decoded plaintext sum.
        Persisting the decrypted aggregate is the WAL's whole purpose
        here -- a successor serves the round without re-decrypting --
        so this is the one sanctioned plaintext journal write.
        """
        decoded = self._decrypt_sum(tag, uploaded)
        self._log(DECRYPT_COMMITTED, round_index,  # flcheck: allow[plaintext-wire]
                  result=list(np.asarray(decoded).ravel()),
                  summands=self.machine.round.summands)

    def _decrypt_sum(self, tag: str,
                     uploaded: List[CipherTensor]) -> np.ndarray:
        """Sum the uploads, send every survivor its download, decrypt."""
        agg = self.aggregator
        aggregated = agg._server_sum(uploaded)
        state = self.machine.round
        agg.broadcast_tensor(aggregated, self.name, state.survivors,
                             f"download.{tag}", state.round_index)
        return agg.decrypt_tensor(aggregated, charged=True)

    def run_round(self, client_vectors: Sequence[np.ndarray],
                  tag: str = "gradients",
                  round_index: Optional[int] = None,
                  min_quorum: Optional[int] = None) -> np.ndarray:
        """One write-ahead-logged aggregation round.

        Semantically :meth:`SecureAggregator.aggregate` (same fault
        injection, quorum, Eq. 6 offset correction), with every
        transition journaled first.  Calling it on a coordinator
        recovered mid-round *continues* that round: clients whose
        uploads are already in the log are skipped (their logged
        ciphertexts are reused), a logged quorum is not re-declared, and
        a logged decrypt is returned without recomputation.
        """
        agg = self.aggregator
        vectors, round_index, required = agg.resolve_round(
            client_vectors, round_index, min_quorum)
        report = AggregationRound(round_index=round_index)

        def intake() -> None:
            # Exactly-once: uploads logged before a crash are held.
            for name, payload in agg.collect_uploads(
                    vectors, round_index, report.dropped,
                    send=lambda name, tensor: agg.send_tensor(
                        tensor, sender=name, receiver=self.name,
                        tag=f"upload.{tag}"),
                    held=self.machine.round.upload_frames):
                self.accept_upload(round_index, name, payload)

        def finish() -> None:
            # Not reached when the coordinator is killed mid-round: the
            # aggregator only ever sees rounds that ended.
            survivors = self.machine.round.survivors
            report.survivors = list(survivors)
            report.summands = len(survivors)
            agg.round_cursor = max(agg.round_cursor, round_index + 1)
            agg.last_round = report

        try:
            state = self._journaled_round(round_index, tag, len(vectors),
                                          required, intake)
        except QuorumError:
            finish()
            raise
        finish()
        return np.asarray(state.result, dtype=np.float64)


class StandbyCoordinator:
    """A standby that takes over a dead primary's lapsed lease.

    The standby keeps a *shadow* :class:`RoundStateMachine` fed from the
    dead primary's log at takeover, and :meth:`take_over` asserts the
    shadow digest matches the successor's own replay of the same log.

    Args:
        aggregator: The data path the standby will drive after takeover
            (its own engines in a real deployment; in the simulator the
            shared in-process engines, which hold the same key).
        lease_manager: The arbitration shared with the primary.
        name: Standby identity.
        coordinator_cls: What to build at takeover -- the class of the
            node being shadowed (a leaf's or the root's coordinator in
            the sharded tree; the flat coordinator by default).
    """

    def __init__(self, aggregator: SecureAggregator,
                 lease_manager: LeaseManager, name: str = "standby",
                 coordinator_cls: Type[DurableCoordinator]
                 = DurableCoordinator):
        self.aggregator = aggregator
        self.lease_manager = lease_manager
        self.name = name
        self.coordinator_cls = coordinator_cls
        self.machine = RoundStateMachine()

    def take_over(self, image: bytes) -> DurableCoordinator:
        """Acquire the lapsed lease and resume from the log.

        The image is opened once: the log that brings the shadow
        machine up to date is the log the successor is built over.

        Raises:
            LeaseError: The primary's lease has not expired.
        """
        wal = WriteAheadLog.from_bytes(image)
        lease = self.lease_manager.acquire(self.name)
        for record in wal.records:
            self.machine.apply(record)
        successor = self.coordinator_cls(
            self.aggregator, wal=wal, name=self.name,
            incarnation=lease.incarnation,
            lease_manager=self.lease_manager)
        if successor.machine.digest() != self.machine.digest():
            raise CoordinatorError(
                "standby shadow state diverged from the log at takeover")
        return successor


@dataclass
class FailoverRecord:
    """One node death that was recovered or failed over.

    Attributes:
        node: ``coordinator`` for the flat durable coordinator,
            ``shard-<i>`` for a leaf, the root's name for the root.
        kind: The fault kind that killed it -- ``coordinator_crash``
            (same coordinator restarted from its log), ``failover`` or
            ``shard_crash`` (the node's hot standby took over).
        round_index: Round in flight when the kill fired.
        lsn: Last WAL record the dead node durably appended.
        incarnation: The successor's fencing incarnation.
        recovered_digest: The successor's state digest right after
            replaying the dead node's log -- compared against the
            uninterrupted run's digest at the same ``lsn`` by the crash
            sweep.
    """

    node: str
    kind: str
    round_index: int
    lsn: int
    incarnation: int
    recovered_digest: int


@dataclass
class _Node:
    """One supervised node: who runs it, under which lease."""

    #: Prefix-qualified name its standbys are named after.
    identity: str
    lease: LeaseManager
    primary: DurableCoordinator


class NodeSupervisor:
    """The one death-and-recovery path of every journaled coordinator.

    Holds each node's lease and current primary -- the flat durable
    coordinator is a one-node user, the sharded service adds its root
    and a node per leaf -- and runs a node's round step under the kills
    the aggregator's :class:`~repro.federation.faults.FaultInjector`
    schedules against that node in that round, one at a time: after a
    death the successor is armed with the node's next kill, so a node
    can die more than once in a round.  Recovery follows the kill's
    kind:

    - ``coordinator_crash`` restarts the same coordinator from its image
      at the next incarnation;
    - ``failover`` / ``shard_crash`` build a :class:`StandbyCoordinator`
      at the death (``<identity>-standby``, suffixed ``-<incarnation>``
      once the dead primary was itself a successor), wait out the lease
      -- one timeout on the clock while it is live -- and let it take
      over with one parse of the image.

    Every death appends one :class:`FailoverRecord` to
    :attr:`failover_log` and is charged once through
    ``injector.record(kind, node, round)``.

    Args:
        aggregator: The data path every node shares in-process.
        clock: The virtual clock the leases run on.
    """

    def __init__(self, aggregator: SecureAggregator, clock: VirtualClock):
        self.aggregator = aggregator
        self.clock = clock
        self.nodes: Dict[str, _Node] = {}
        self.failover_log: List[FailoverRecord] = []

    def add(self, key: str, identity: str, primary_name: str,
            coordinator_cls: Type[DurableCoordinator]) -> None:
        """Create node ``key`` -- its fault-plan party and failover-log
        name -- with its lease and its WAL-backed primary
        ``primary_name``; ``identity`` names its standbys."""
        lease = LeaseManager(timeout_seconds=LEASE_TIMEOUT_SECONDS,
                             clock=lambda: self.clock.now)
        lease.acquire(primary_name)
        self.nodes[key] = _Node(
            identity=identity, lease=lease,
            primary=coordinator_cls(self.aggregator, name=primary_name,
                                    lease_manager=lease))

    def run(self, key: str, round_index: int,
            step: Callable[[DurableCoordinator], object]) -> object:
        """Run ``step`` on node ``key``'s primary, recovering every kill
        scheduled against the node in ``round_index`` and resuming the
        round on each successor."""
        node = self.nodes[key]
        kills = iter(self.aggregator.injector.scheduled_kills(
            key, round_index))
        while True:
            kill = next(kills, None)
            if kill is not None:
                node.primary.kill_after_lsn = kill.after_record
            try:
                return step(node.primary)
            except CoordinatorKilled as killed:
                self._recover(key, kill, round_index, killed.lsn)
            finally:
                node.primary.kill_after_lsn = None

    def _recover(self, key: str, kill: FaultEvent, round_index: int,
                 lsn: int) -> None:
        """Replace node ``key``'s dead primary as ``kill.kind`` says."""
        node = self.nodes[key]
        dead = node.primary
        if kill.kind == COORDINATOR_CRASH:
            lease = node.lease.acquire(dead.name)
            successor = type(dead)(
                self.aggregator, wal=WriteAheadLog.from_bytes(
                    dead.wal.image()),
                name=dead.name, incarnation=lease.incarnation,
                lease_manager=node.lease)
        else:
            # The first primary runs as incarnation 0; a promoted
            # standby's own standby is named after the incarnation it
            # shadows.
            standby = StandbyCoordinator(
                self.aggregator, node.lease,
                name=f"{node.identity}-standby" + (
                    f"-{dead.incarnation}" if dead.incarnation else ""),
                coordinator_cls=type(dead))
            if not node.lease.expired():
                self.clock.advance(node.lease.timeout_seconds)
            successor = standby.take_over(dead.wal.image())
        node.primary = successor
        self.aggregator.injector.record(kill.kind, key, round_index)
        self.failover_log.append(FailoverRecord(
            node=key, kind=kill.kind, round_index=round_index, lsn=lsn,
            incarnation=successor.incarnation,
            recovered_digest=successor.machine.digest()))
