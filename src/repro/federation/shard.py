"""Two-level sharded aggregation: leaf shards, a root, and failover.

The flat :class:`~repro.federation.aggregator.SecureAggregator` and even
the durable coordinator of PR 4 funnel every client upload through one
process -- the topology the paper evaluates at a handful of parties and
the ROADMAP's million-client north star cannot share.  This module adds
the hierarchical tier in between:

- :func:`plan_shards` / :func:`cohort_sample` -- deterministic cohort
  selection per round (master-seed RNG streams) and capacity-aware shard
  sizing: no shard's cohort may exceed the packer's safe summand count,
  because the :class:`~repro.tensor.meta.TensorMeta` algebra accumulates
  summands additively and ``decode_sum`` overflows past
  ``2**overflow_bits``.
- :class:`ShardAggregator` -- a *leaf* coordinator: the durable
  coordinator's journaled round with delivered uploads as its intake
  and, instead of a decrypt, a commit step that journals the
  homomorphically combined ciphertext (``partial_committed``) -- leaves
  never hold the key.
- :class:`RootCoordinator` -- the same journaled round with leaf
  partials as its uploads and a commit step that decrypts in
  *capacity-bounded segments*: partials are greedily grouped so each
  segment's summand total fits the packer's capacity, each segment is
  decrypted separately, and the decoded sums are added in plaintext.
  The Eq. 6 offset correction rides the metadata per segment, so the
  segmented result is exactly the flat sum.
- Every node -- each leaf and the root alike -- gets its own WAL and
  lease from the one
  :class:`~repro.federation.coordinator.NodeSupervisor` the flat
  durable coordinator also runs under; a node's standby exists from
  its primary's death, so a fault-free round builds none.  Failover
  composes hierarchically and the crash sweep holds at both layers.
- :class:`ShardedAggregationService` -- the orchestrator: samples the
  cohort, plans shards, pushes encrypted uploads through the event
  loop's admission control (:mod:`repro.federation.eventloop`), runs the
  leaf rounds, forwards partials to the root over the charged channel,
  and runs the root round -- every node through the supervisor's
  kill-arming, recovering ``run``.  Overload, shedding, and
  circuit-breaker fencing all degrade the round into quorum + Eq. 6
  partial aggregation; nothing is ever lost silently.

Capacity invariant (property-tested): for any cohort the reduction tree
never combines more summands than ``packer.max_safe_summands()`` in one
ciphertext, and within one segment the sharded sum is bit-identical to
the flat aggregator's sum -- Paillier addition is exact modular
arithmetic, so regrouping cannot change the decoded plaintext.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.federation.aggregator import AggregationRound, SecureAggregator
from repro.federation.channel import ChannelError, Message
from repro.federation.coordinator import (
    CoordinatorError,
    CoordinatorKilled,
    DurableCoordinator,
    NodeSupervisor,
    frame_tensor,
)
from repro.federation.eventloop import (
    REJECT_OVERLOAD,
    REJECT_QUEUE_FULL,
    REJECT_QUOTA,
    AdmissionRejected,
    AsyncChannel,
    VirtualClock,
)
from repro.federation.faults import (
    FAILOVER,
    LOST_UPDATE,
    QUEUE_OVERLOAD,
    TENANT_CRASH,
    TENANT_FLOOD,
    QuorumError,
)
from repro.federation.serialization import serialize_tensor
from repro.federation.tenancy import TenantRegistry
from repro.federation.wal import (
    PARTIAL_COMMITTED,
    SHARD_MERGE,
    SHARD_SPLIT,
    WalRecord,
    WriteAheadLog,
)
from repro.ledger import CostLedger, fault_category
from repro.rng import STREAM_MULTIPLIER
from repro.tensor.cipher import CipherTensor

#: Default shard count: ``ceil(sqrt(P))`` balances leaf fan-in against
#: root fan-in, making the root's per-round work grow as ``sqrt(P)``.
def default_num_shards(num_parties: int) -> int:
    """The square-root shard count for ``num_parties`` participants."""
    if num_parties < 1:
        raise ValueError("num_parties must be positive")
    return int(math.ceil(math.sqrt(num_parties)))


def cohort_sample(num_parties: int, cohort_size: int, seed: int,
                  round_index: int) -> List[int]:
    """Sample one round's cohort, deterministically per (seed, round).

    The stream is derived exactly like every other per-round stream in
    the repo (``seed * STREAM_MULTIPLIER + round_index``), so cohorts
    reproduce bit-for-bit across runs and across recovered coordinators.
    Returns sorted party indices.
    """
    if not 1 <= cohort_size <= num_parties:
        raise ValueError(
            f"cohort of {cohort_size} impossible with {num_parties} parties")
    rng = np.random.default_rng(seed * STREAM_MULTIPLIER + round_index)
    chosen = rng.choice(num_parties, size=cohort_size, replace=False)
    return sorted(int(i) for i in chosen)


def plan_shards(cohort: Sequence[int], num_shards: Optional[int] = None,
                max_summands: Optional[int] = None) -> List[List[int]]:
    """Partition a cohort into capacity-respecting shard groups.

    Contiguous, near-equal groups (deterministic: no hashing).  When
    ``max_summands`` is given, the shard count is raised until every
    group fits the ciphertext summand capacity -- the "split the
    reduction" rule the TensorMeta algebra demands.
    """
    parties = list(cohort)
    if not parties:
        raise ValueError("cannot shard an empty cohort")
    count = num_shards if num_shards is not None \
        else default_num_shards(len(parties))
    if count < 1:
        raise ValueError("num_shards must be positive")
    count = min(count, len(parties))
    if max_summands is not None:
        if max_summands < 1:
            raise ValueError("max_summands must be positive")
        needed = int(math.ceil(len(parties) / max_summands))
        count = max(count, needed)
    base, extra = divmod(len(parties), count)
    groups: List[List[int]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        groups.append(parties[start:start + size])
        start += size
    return [group for group in groups if group]


def segment_partials(partials: Sequence[CipherTensor],
                     max_summands: int) -> List[List[CipherTensor]]:
    """Greedily group partials so each segment fits the summand capacity.

    Every partial must fit on its own (leaf planning guarantees it);
    segments preserve input order so the reduction stays deterministic.
    """
    if max_summands < 1:
        raise ValueError("max_summands must be positive")
    segments: List[List[CipherTensor]] = []
    current: List[CipherTensor] = []
    current_summands = 0
    for tensor in partials:
        summands = tensor.meta.summands
        if summands > max_summands:
            raise OverflowError(
                f"one partial already carries {summands} summands, over "
                f"the {max_summands} capacity -- the leaf plan is broken")
        if current and current_summands + summands > max_summands:
            segments.append(current)
            current = []
            current_summands = 0
        current.append(tensor)
        current_summands += summands
    if current:
        segments.append(current)
    return segments


class ShardAggregator(DurableCoordinator):
    """A leaf shard's coordinator: combines ciphertexts, never decrypts.

    Shares the durable coordinator's whole journaling stack -- WAL,
    state machine, digest trail, incarnation fencing, ``kill_after_lsn``
    and the journaled-round skeleton itself -- and supplies a commit
    step that journals the homomorphically combined ciphertext frame
    (``partial_committed``) instead of a plaintext result.  A leaf
    killed at any record boundary is recovered (or failed over) with the
    exact accepted ciphertexts replayed from its own log.
    """

    def combine_round(self, uploads: Sequence[Tuple[str, CipherTensor]],
                      round_index: int,
                      tag: str = "gradients") -> CipherTensor:
        """One write-ahead-logged leaf round; returns the partial.

        One accepted upload is quorum enough for a partial -- overall
        quorum is the service's concern, per Eq. 6 partial-aggregation
        semantics.

        Args:
            uploads: ``(client, tensor)`` pairs the event loop delivered
                to this shard, in delivery order.
        """
        state = self._journaled_round(
            round_index, f"shard.{tag}", len(uploads), 1,
            lambda: self._accept_delivered(round_index, uploads),
            single_sum=True)
        if state.partial_frame is None:
            raise CoordinatorError(
                "round closed without a committed partial")
        # The partial this leaf committed is held beside its frame; one
        # a predecessor committed is decoded from the frame.  Either
        # way it equals the frame's decode, so an uninterrupted run and
        # a recovered one return identical partials.
        if state.held_partial is None:
            state.held_partial = frame_tensor(
                state.partial_frame, self.aggregator.server_engine)
        return state.held_partial

    def _commit(self, round_index: int, tag: str,
                uploaded: List[CipherTensor]) -> None:
        """Journal the combined ciphertext; the sum stays encrypted."""
        partial = self.aggregator._server_sum(uploaded)
        self._log(PARTIAL_COMMITTED, round_index,
                  frame=serialize_tensor(partial).hex())
        self.machine.round.held_partial = partial


class RootCoordinator(DurableCoordinator):
    """The root of the reduction tree: combines and decrypts partials.

    Leaf partials are its uploads (dedupe key ``r{round}:{shard}``, same
    exactly-once machinery, same journaled-round skeleton).  Its commit
    step decrypts in *segments*: partials are grouped under the summand
    capacity, each segment homomorphically summed and decrypted
    separately, and the decoded sums added in plaintext -- the only way
    a cohort larger than one ciphertext's capacity can be reduced at
    all.
    """

    def reduce_round(self, partials: Sequence[Tuple[str, CipherTensor]],
                     round_index: int,
                     tag: str = "gradients") -> np.ndarray:
        """One write-ahead-logged root round; returns the decoded sum."""
        state = self._journaled_round(
            round_index, f"root.{tag}", len(partials), 1,
            lambda: self._accept_delivered(round_index, partials))
        return np.asarray(state.result, dtype=np.float64)

    def _decrypt_sum(self, tag: str,
                     tensors: Sequence[CipherTensor]) -> np.ndarray:
        """Capacity-bounded reduction: sum within segments, add decoded."""
        agg = self.aggregator
        # Per-codec capacity from the partials themselves (guard-banded
        # layouts segment less often than the dense default would).
        capacity = (tensors[0].meta.summand_capacity() if tensors
                    else agg.packer.max_safe_summands())
        segments = segment_partials(tensors, capacity)
        total: Optional[np.ndarray] = None
        for segment in segments:
            combined = agg._server_sum(list(segment))
            decoded = agg.decrypt_tensor(combined, charged=True)
            total = decoded if total is None else total + decoded
        if total is None:
            raise CoordinatorError("no partials to decrypt")
        return total


class ShardPool:
    """WAL-journaled elastic shard topology: splits, merges, recovery.

    The pool owns *which* shard queues exist.  Every topology change is
    a ``shard_split`` or ``shard_merge`` record appended to the pool's
    own topology journal **before** any queued entry moves, so a pool
    killed at any record boundary recovers to the exact same topology
    by replaying its log, then re-routes orphaned entries with
    :meth:`migrate_orphans` -- the same journal-then-act discipline the
    round coordinators follow, composed with the PR 6 standby failover.

    Shard names are ``shard-<ordinal>`` with a monotonically increasing
    ordinal: a retired name is never reused, so a stale reference to a
    pre-split shard can always be resolved through the journaled
    successor map instead of silently aliasing a new queue.

    Determinism contract (asserted by the rebalance crash sweep): for a
    fixed sequence of :meth:`rebalance` targets, the final topology,
    the successor map, and the routing of every queued entry are
    byte-identical whether or not the pool died and recovered at any
    journal record along the way.
    """

    def __init__(self, initial_shards: int = 1,
                 wal: Optional[WriteAheadLog] = None,
                 incarnation: int = 0):
        if initial_shards < 1:
            raise ValueError("initial_shards must be at least 1")
        self.initial_shards = initial_shards
        self.wal = wal if wal is not None else WriteAheadLog()
        self.incarnation = incarnation
        #: Fault hook: raise :class:`CoordinatorKilled` once a journal
        #: append reaches this LSN (the crash sweep's knife).
        self.kill_after_lsn: Optional[int] = None
        #: Active shard names, in deterministic service order.
        self.active: List[str] = [f"shard-{i}"
                                  for i in range(initial_shards)]
        self._next_ordinal = initial_shards
        #: Retired shard -> immediate successors (split children or the
        #: merge target); resolved transitively by :meth:`resolve`.
        self._successors: Dict[str, List[str]] = {}
        for record in self.wal.records:
            self._apply(record)

    @classmethod
    def from_bytes(cls, blob: bytes, initial_shards: int = 1,
                   incarnation: int = 0) -> "ShardPool":
        """Recover a pool from a dead pool's journal image."""
        return cls(initial_shards=initial_shards,
                   wal=WriteAheadLog.from_bytes(blob),
                   incarnation=incarnation)

    def digest(self) -> int:
        """CRC32 over the canonical topology (the sweep's comparator)."""
        blob = json.dumps(
            {"active": self.active, "next_ordinal": self._next_ordinal,
             "successors": self._successors},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        return zlib.crc32(blob)

    def _ordinal(self, shard: str) -> int:
        return int(shard.rsplit("-", 1)[1])

    def _apply(self, record: WalRecord) -> None:
        """Replay one topology record (append-time and recovery path)."""
        if record.kind == SHARD_SPLIT:
            parent = record.payload["parent"]
            children = list(record.payload["children"])
            index = self.active.index(parent)
            self.active[index:index + 1] = children
            self._successors[parent] = children
            top = max(self._ordinal(c) for c in children)
        elif record.kind == SHARD_MERGE:
            sources = list(record.payload["sources"])
            target = record.payload["target"]
            index = min(self.active.index(s) for s in sources)
            for source in sources:
                self.active.remove(source)
                self._successors[source] = [target]
            self.active.insert(index, target)
            top = self._ordinal(target)
        else:
            raise ValueError(
                f"{record.kind!r} is not a shard-pool topology record")
        self._next_ordinal = max(self._next_ordinal, top + 1)

    def _log(self, kind: str, round_index: int, **payload) -> int:
        record = WalRecord(kind=kind, round_index=round_index,
                           incarnation=self.incarnation, payload=payload)
        lsn = self.wal.append(record)
        self._apply(record)
        if self.kill_after_lsn is not None and lsn >= self.kill_after_lsn:
            raise CoordinatorKilled(lsn)
        return lsn

    # ------------------------------------------------------------------
    # Topology changes (journal first, move entries second).
    # ------------------------------------------------------------------

    def split(self, parent: str, round_index: int,
              channel: Optional[AsyncChannel] = None) -> List[str]:
        """Split one shard into two children; returns the child names.

        The handoff record journals the parent and both children before
        any queued entry moves; queued entries then alternate between
        the children (even index -> first child), the deterministic
        assignment recovery reproduces via :meth:`migrate_orphans`.
        """
        if parent not in self.active:
            raise ValueError(f"cannot split inactive shard {parent!r}")
        children = [f"shard-{self._next_ordinal}",
                    f"shard-{self._next_ordinal + 1}"]
        self._log(SHARD_SPLIT, round_index, parent=parent,
                  children=children)
        if channel is not None:
            self.migrate_orphans(channel)
        return children

    def merge(self, first: str, second: str, round_index: int,
              channel: Optional[AsyncChannel] = None) -> str:
        """Merge two shards into a fresh target; returns the target."""
        for source in (first, second):
            if source not in self.active:
                raise ValueError(
                    f"cannot merge inactive shard {source!r}")
        if first == second:
            raise ValueError("merge needs two distinct shards")
        target = f"shard-{self._next_ordinal}"
        self._log(SHARD_MERGE, round_index, sources=[first, second],
                  target=target)
        if channel is not None:
            self.migrate_orphans(channel)
        return target

    def rebalance(self, target_count: int, round_index: int,
                  channel: Optional[AsyncChannel] = None) -> int:
        """Split/merge toward ``target_count`` active shards.

        Deterministic and idempotent: splits always take the head of
        the active list, merges always fold the tail pair, and a pool
        killed mid-rebalance reaches the same topology once recovered
        and re-asked for the same target.  Returns operations applied.
        """
        if target_count < 1:
            raise ValueError("target_count must be at least 1")
        operations = 0
        while len(self.active) < target_count:
            self.split(self.active[0], round_index, channel=channel)
            operations += 1
        while len(self.active) > target_count:
            self.merge(self.active[-2], self.active[-1], round_index,
                       channel=channel)
            operations += 1
        return operations

    # ------------------------------------------------------------------
    # Orphan routing.
    # ------------------------------------------------------------------

    def resolve(self, shard: str) -> List[str]:
        """The active shards a (possibly retired) name resolves to."""
        frontier = [shard]
        resolved: List[str] = []
        while frontier:
            name = frontier.pop(0)
            if name in self._successors:
                frontier.extend(self._successors[name])
            else:
                resolved.append(name)
        return resolved

    def migrate_orphans(self, channel: AsyncChannel) -> int:
        """Re-route entries queued on retired shards; returns the count.

        Split children take alternating entries (even index -> first
        child); a merge target takes everything.  Routing depends only
        on the journaled successor map and each entry's queue position,
        so recovery reproduces the exact assignment an uninterrupted
        handoff would have made.
        """
        moved = 0
        for retired in list(self._successors):
            if channel.queue_depth(retired) == 0:
                continue
            targets = self.resolve(retired)

            def route(index: int, sender: str,
                      targets: List[str] = targets) -> str:
                return targets[index % len(targets)]

            counts = channel.migrate(retired, route)
            moved += sum(counts.values())
        return moved


@dataclass
class ShardRoundReport:
    """Outcome of one sharded aggregation round.

    Every party in the cohort lands in exactly one bucket: a shard's
    survivor list, or :attr:`dropped` with a reason (``offline``,
    ``deadline``, ``fenced``, ``rejected``, ``quota``, ``shed``,
    ``lost``) -- the no-silent-loss invariant, asserted by the
    overload tests.
    """

    round_index: int
    cohort: List[str] = field(default_factory=list)
    shard_groups: Dict[str, List[str]] = field(default_factory=dict)
    shard_survivors: Dict[str, List[str]] = field(default_factory=dict)
    dropped: List[Tuple[str, str]] = field(default_factory=list)
    fenced_shards: List[str] = field(default_factory=list)
    summands: int = 0

    @property
    def survivors(self) -> List[str]:
        """Every party whose update reached the root, in shard order."""
        names: List[str] = []
        for shard in sorted(self.shard_survivors):
            names.extend(self.shard_survivors[shard])
        return names

    @property
    def partial(self) -> bool:
        """Whether any cohort member missed the round."""
        return bool(self.dropped)


class ShardedAggregationService:
    """The two-level service: event loop, leaf shards, root, failover.

    Args:
        aggregator: The flat data path (engines, packer, channel, fault
            injector, quorum defaults) every node shares in-process.
        clock: The virtual clock driving admission, deadlines and
            leases; a fresh one by default.
        num_shards: Fixed shard count; default ``ceil(sqrt(cohort))``
            per round, always raised to respect summand capacity.
        queue_capacity: Per-shard ingress bound (the memory guarantee).
        seed: Master seed for cohort sampling streams.
        async_channel: A *shared* ingress (multi-tenant deployments);
            the service builds its own private one when omitted.
        tenant: Tenant id whose lanes every submit/drain/breaker
            interaction uses; requires ``async_channel`` built over a
            :class:`~repro.federation.tenancy.TenantRegistry`.  ``None``
            is the anonymous tenant of a single-tenant service.
        pool: The elastic :class:`ShardPool` naming the shard queues;
            fixed ``shard-<i>`` names per round when omitted.
    """

    def __init__(self, aggregator: SecureAggregator,
                 clock: Optional[VirtualClock] = None,
                 num_shards: Optional[int] = None,
                 queue_capacity: int = 64, seed: int = 7,
                 async_channel: Optional[AsyncChannel] = None,
                 tenant: Optional[str] = None,
                 pool: Optional["ShardPool"] = None):
        self.aggregator = aggregator
        self.clock = clock if clock is not None else VirtualClock()
        self.num_shards = num_shards
        self.queue_capacity = queue_capacity
        self.seed = seed
        self._current_round = 0
        self.tenant = tenant
        self.pool = pool
        #: Prefix of leaf/root WAL, lease and standby names: ``"<tenant>/"``
        #: keeps tenants' node identities disjoint on a shared pool.
        self.node_prefix = f"{tenant}/" if tenant is not None else ""
        if async_channel is None:
            if tenant is not None:
                raise ValueError(
                    "a tenant-scoped service needs the shared "
                    "async_channel the tenants multiplex")
            async_channel = AsyncChannel(
                aggregator.channel, self.clock,
                queue_capacity=queue_capacity,
                overloaded=self._overloaded)
        elif tenant is not None:
            # Overload faults are tenant-planned: the shared ingress
            # probes this tenant's own injector, on its lanes only.
            async_channel.register_tenant(
                tenant, aggregator.channel, overloaded=self._overloaded)
        self.async_channel = async_channel
        self.root_name = f"{self.node_prefix}root"
        #: Every node of the reduction tree; the root is just the node
        #: named :attr:`root_name`, leaves are keyed by shard name.
        self.supervisor = NodeSupervisor(aggregator, self.clock)
        self.supervisor.add(self.root_name, self.root_name, self.root_name,
                            RootCoordinator)
        self.last_round: Optional[ShardRoundReport] = None
        #: Every node death the service recovered, for the crash sweeps.
        self.failover_log = self.supervisor.failover_log

    def _overloaded(self, shard: str) -> bool:
        return self.aggregator.injector.queue_overloaded(
            shard, self._current_round)

    def _breaker(self, shard: str):
        """The breaker of this service's lane into ``shard``.

        Fault containment hinges here -- a service only ever reads and
        trips *its own* tenant's lane, so one tenant's failures can
        never fence another tenant off a shared shard.
        """
        return self.async_channel.lane(shard, self.tenant).breaker

    # ------------------------------------------------------------------
    # Node registry.
    # ------------------------------------------------------------------

    @property
    def leaves(self) -> Dict[str, ShardAggregator]:
        """Every leaf's current primary, by shard name."""
        return {key: node.primary
                for key, node in self.supervisor.nodes.items()
                if key != self.root_name}

    @property
    def root(self) -> RootCoordinator:
        """The root's current primary."""
        return self.supervisor.nodes[self.root_name].primary

    def leaf(self, shard: str) -> ShardAggregator:
        """The shard's leaf coordinator (created with WAL + lease)."""
        if shard not in self.supervisor.nodes:
            identity = f"{self.node_prefix}{shard}"
            self.supervisor.add(shard, identity, f"{identity}-primary",
                                ShardAggregator)
        return self.supervisor.nodes[shard].primary

    # ------------------------------------------------------------------
    # The sharded round.
    # ------------------------------------------------------------------

    def run_round(self, client_vectors: Sequence[np.ndarray],
                  tag: str = "gradients",
                  round_index: Optional[int] = None,
                  cohort_size: Optional[int] = None,
                  min_quorum: Optional[int] = None,
                  flood_intensity: int = 0) -> np.ndarray:
        """One sharded aggregation round; returns the slot-wise sum.

        Cohort sampling, shard planning, admission control, deadline
        shedding, leaf combination, root reduction -- with per-shard and
        root failover handled in place.  Parties lost anywhere along the
        path degrade the round into Eq. 6 partial aggregation; the round
        only fails (``QuorumError``) below ``min_quorum`` survivors.

        ``flood_intensity`` models a ``tenant_flood`` retry storm: each
        admitted upload is re-submitted that many extra times.  The
        duplicates spend *this* tenant's quota tokens and slice slots
        and are absorbed by the leaf's exactly-once dedupe -- the blast
        radius the isolation tests pin to the flooding tenant alone.
        """
        agg = self.aggregator
        sampled = cohort_size is not None \
            and cohort_size < len(client_vectors)
        vectors, round_index, required = agg.resolve_round(
            client_vectors, round_index, min_quorum,
            cohort_size=cohort_size if sampled else len(client_vectors))
        self._current_round = round_index
        cohort = (cohort_sample(len(vectors), cohort_size, self.seed,
                                round_index)
                  if sampled else list(range(len(vectors))))

        if self.pool is not None:
            groups = plan_shards(cohort, len(self.pool.active),
                                 max_summands=agg.packer
                                 .max_safe_summands())
            if len(groups) > len(self.pool.active):
                raise ValueError(
                    f"cohort needs {len(groups)} shards but the pool "
                    f"has {len(self.pool.active)}; rebalance first")
            shard_names = list(self.pool.active[:len(groups)])
        else:
            groups = plan_shards(cohort, self.num_shards,
                                 max_summands=agg.packer
                                 .max_safe_summands())
            shard_names = [f"shard-{s}" for s in range(len(groups))]
        report = ShardRoundReport(
            round_index=round_index,
            cohort=[f"client-{i}" for i in cohort])
        report.shard_groups = {
            shard_names[s]: [f"client-{i}" for i in group]
            for s, group in enumerate(groups)}
        deadline = (self.clock.now + agg.round_deadline_seconds
                    if agg.round_deadline_seconds is not None else None)
        injector = agg.injector

        # Phase 1: admission -- encrypt and submit through the event loop.
        shard_uploads: Dict[str, List[Tuple[str, CipherTensor]]] = {}
        representative = True
        active_shards: List[str] = []
        for s_index, group in enumerate(groups):
            shard = shard_names[s_index]
            if not self._breaker(shard).allow():
                report.fenced_shards.append(shard)
                for i in group:
                    report.dropped.append((f"client-{i}", "fenced"))
                continue
            active_shards.append(shard)
            overload_charged = False
            for i in group:
                name = f"client-{i}"
                gated = agg.client_gate(name, vectors[i], round_index,
                                        report.dropped, representative)
                if gated is None:
                    continue
                representative = False
                tensor, delay = gated
                message = Message.for_tensor(
                    tensor.materialize(), sender=name, receiver=shard,
                    tag=f"upload.{tag}",
                    ciphertext_bytes=agg.client_engine
                    .nominal_ciphertext_bytes(),
                    packed=agg.packed_serialization)
                refused = self._try_submit(shard, message, delay)
                if refused == REJECT_QUEUE_FULL:
                    # Backpressure: drain the backlog (delivering the
                    # accepted entries) and retry exactly once; whatever
                    # refuses the retry, the upload counts as rejected.
                    self._drain_shard(shard, deadline, shard_uploads,
                                      report, round_index)
                    if self._try_submit(shard, message, delay) is None:
                        refused = None
                if refused is None:
                    # tenant_flood duplicates run the same gauntlet on
                    # the same lane; the leaf's exactly-once dedupe
                    # absorbs whichever get through.
                    for _ in range(flood_intensity):
                        self._try_submit(shard, message, delay)
                elif refused == REJECT_QUOTA:
                    # This tenant's own token bucket ran dry (the typed
                    # retryable QuotaExceeded, already charged to the
                    # tenant's ledger) -- its blast radius stays within
                    # the tenant by construction.
                    report.dropped.append((name, "quota"))
                else:
                    if refused == REJECT_OVERLOAD and not overload_charged:
                        injector.record(QUEUE_OVERLOAD, shard, round_index)
                        overload_charged = True
                    report.dropped.append((name, "rejected"))

        # Phase 2: drain every active shard's backlog before its leaf
        # round (entries past the deadline are shed, never lost).
        for shard in active_shards:
            self._drain_shard(shard, deadline, shard_uploads, report,
                              round_index)

        # Phase 3: leaf rounds -- combine per shard, failing over kills.
        partials: List[Tuple[str, CipherTensor]] = []
        for shard in active_shards:
            uploads = shard_uploads.get(shard, [])
            if not uploads:
                continue
            self.leaf(shard)
            partial = self.supervisor.run(
                shard, round_index,
                lambda leaf: leaf.combine_round(uploads, round_index,
                                                tag=tag))
            breaker = self._breaker(shard)
            breaker.record_success()
            report.shard_survivors[shard] = list(
                self.leaf(shard).machine.round.survivors)
            try:
                sent = agg.send_tensor(partial, sender=shard,
                                       receiver=self.root_name,
                                       tag=f"partial.{tag}")
            except ChannelError as error:
                breaker.record_failure()
                injector.record(LOST_UPDATE, shard, round_index,
                                payload_bytes=error.wasted_bytes)
                for name, _ in uploads:
                    report.dropped.append((name, "lost"))
                report.shard_survivors.pop(shard, None)
                continue
            partials.append((shard, sent))

        survivors = report.survivors
        report.summands = sum(t.meta.summands for _, t in partials)

        def finish() -> None:
            # Both exits of a round that ended publish the same outcome
            # (as DurableCoordinator.run_round).  Not reached when the
            # root reduction raises: the cursor stays on this round.
            self.last_round = report
            agg.round_cursor = round_index + 1
            agg.last_round = AggregationRound(
                round_index=round_index, survivors=survivors,
                dropped=list(report.dropped), summands=report.summands)

        if report.summands < required:
            finish()
            raise QuorumError(round_index, survivors, required,
                              len(cohort))

        # Phase 4: root reduction, with its own kill handling.
        result = self.supervisor.run(
            self.root_name, round_index,
            lambda root: root.reduce_round(partials, round_index, tag=tag))
        finish()
        return result

    def _drain_shard(self, shard: str, deadline: Optional[float],
                     shard_uploads: Dict[str, List[Tuple[str,
                                                         CipherTensor]]],
                     report: ShardRoundReport,
                     round_index: int) -> None:
        """Deliver one shard's backlog into its upload buffer.

        Tenanted services drain only their own entries -- other
        tenants' uploads stay queued untouched, so a noisy neighbour's
        backlog neither delays nor consumes this drain.
        """
        injector = self.aggregator.injector
        breaker = self._breaker(shard)
        outcome = self.async_channel.drain(shard, deadline=deadline,
                                           tenant=self.tenant)
        shard_uploads.setdefault(shard, []).extend(outcome.delivered)
        for sender, _reason in outcome.shed:
            report.dropped.append((sender, "shed"))
        for sender, error in outcome.failed:
            breaker.record_failure()
            injector.record(LOST_UPDATE, sender, round_index,
                            payload_bytes=error.wasted_bytes)
            report.dropped.append((sender, "lost"))

    def _try_submit(self, shard: str, message: Message,
                    delay: float) -> Optional[str]:
        """Submit on this service's lane into ``shard``; returns the
        (already charged) rejection's reason, or ``None`` once admitted."""
        try:
            self.async_channel.submit(shard, message, arrival_delay=delay,
                                      tenant=self.tenant)
        except AdmissionRejected as rejection:
            return rejection.reason
        return None


@dataclass
class TenantRoundOutcome:
    """One tenant's slice of a multi-tenant round.

    Attributes:
        tenant_id: Which tenant the outcome belongs to.
        round_index: The shared round index.
        status: ``ok`` (result present), ``crashed`` (the tenant's
            federation was offline under an injected ``tenant_crash``),
            or ``quorum_failed`` (the tenant's own round aborted below
            quorum -- contained, the other tenants still ran).
        result: The decoded aggregate when ``status == "ok"``.
        report: The tenant service's :class:`ShardRoundReport`.
        detail: Human-readable failure detail (quorum message).
    """

    tenant_id: str
    round_index: int
    status: str
    result: Optional[np.ndarray] = None
    report: Optional[ShardRoundReport] = None
    detail: str = ""


@dataclass
class MultiTenantRoundReport:
    """Everything one shared round did across tenants."""

    round_index: int
    outcomes: Dict[str, TenantRoundOutcome] = field(default_factory=dict)
    active_shards: List[str] = field(default_factory=list)
    rebalance_ops: int = 0


class MultiTenantAggregationService:
    """Many federations multiplexed over one shard pool.

    The multi-tenant tier the ROADMAP's north star asks for: tenants
    share the virtual clock, the elastic :class:`ShardPool`, and one
    :class:`~repro.federation.eventloop.AsyncChannel` ingress -- and
    share *nothing else*.  Each tenant attaches its own
    :class:`~repro.federation.aggregator.SecureAggregator` (own keys,
    own fault injector, own ledger) and gets a tenant-scoped
    :class:`ShardedAggregationService` whose admission, breakers,
    deadlines, and quorum accounting are all partitioned by tenant id.

    Isolation contract (the headline invariant of the tenant tests):
    with tenant A under injected ``tenant_flood`` / ``tenant_crash``
    faults, tenant B's multi-round aggregates are *byte-identical* to a
    solo run of tenant B with the same seeds -- A's faults degrade A
    alone.

    Args:
        registry: The tenant table; iteration order fixes the
            deterministic order tenant rounds run in.
        clock: Shared virtual clock (fresh by default).
        queue_capacity: Shared per-shard ingress bound; each tenant's
            slice of it is its weighted share.
        initial_shards: Pool size before the first rebalance.
        elastic: Rebalance the pool toward ``ceil(sqrt(P))`` for the
            round's total client count ``P`` before each round.
    """

    def __init__(self, registry: TenantRegistry,
                 clock: Optional[VirtualClock] = None,
                 queue_capacity: int = 64,
                 initial_shards: int = 1,
                 elastic: bool = True):
        if len(registry) == 0:
            raise ValueError("the registry must hold at least one tenant")
        self.registry = registry
        self.clock = clock if clock is not None else VirtualClock()
        self.queue_capacity = queue_capacity
        self.elastic = elastic
        self.pool = ShardPool(initial_shards=initial_shards)
        #: Pool-level charges (rebalance failovers) land here, not on
        #: any tenant's ledger -- the platform pays for its own faults.
        self.platform_ledger = CostLedger()
        self.async_channel: Optional[AsyncChannel] = None
        self.services: Dict[str, ShardedAggregationService] = {}
        self.pool_failovers = 0
        self.round_reports: List[MultiTenantRoundReport] = []

    def attach(self, tenant_id: str, aggregator: SecureAggregator,
               seed: int = 7) -> ShardedAggregationService:
        """Bind one tenant's data path; returns its scoped service.

        When the registry pins a ``key_fingerprint``, the aggregator's
        client-engine fingerprint must match -- the guard that two
        tenants never mix ciphertexts under each other's keys.
        """
        tenant = self.registry.require(tenant_id)
        if tenant.key_fingerprint is not None:
            actual = aggregator.client_engine.fingerprint().hex()
            if actual != tenant.key_fingerprint:
                raise ValueError(
                    f"tenant {tenant_id!r} pins key fingerprint "
                    f"{tenant.key_fingerprint} but the attached "
                    f"aggregator's key fingerprints to {actual}")
        if self.async_channel is None:
            self.async_channel = AsyncChannel(
                aggregator.channel, self.clock,
                queue_capacity=self.queue_capacity, tenants=self.registry)
        service = ShardedAggregationService(
            aggregator, clock=self.clock,
            queue_capacity=self.queue_capacity, seed=seed,
            async_channel=self.async_channel, tenant=tenant_id,
            pool=self.pool)
        self.services[tenant_id] = service
        return service

    # ------------------------------------------------------------------
    # Elastic rebalancing (with pool crash recovery).
    # ------------------------------------------------------------------

    def _rebalance_target(self, cohort_sizes: Mapping[str, int]) -> int:
        """Shard count for this round's total load.

        The square-root policy over the *combined* client count, raised
        so every tenant's cohort fits its own packer's summand capacity
        across the active shards.
        """
        total = sum(cohort_sizes.values())
        if total < 1:
            return len(self.pool.active)
        target = default_num_shards(total)
        for tenant_id, size in cohort_sizes.items():
            packer = self.services[tenant_id].aggregator.packer
            needed = int(math.ceil(size / packer.max_safe_summands()))
            target = max(target, needed)
        return target

    def rebalance(self, target_count: int, round_index: int) -> int:
        """Drive the pool toward ``target_count``, recovering kills.

        A pool killed at a journal record is recovered from its own log
        (replay + orphan migration, exactly like coordinator failover),
        then the same rebalance target is re-applied -- the crash sweep
        asserts the recovered topology and entry routing are
        byte-identical to the uninterrupted run's.
        """
        try:
            return self.pool.rebalance(target_count, round_index,
                                       channel=self.async_channel)
        except CoordinatorKilled:
            # The heir comes back with its crash knife disarmed, so the
            # retry runs to completion.
            self._recover_pool()
        return self.pool.rebalance(target_count, round_index,
                                   channel=self.async_channel)

    def _recover_pool(self) -> None:
        """Replay the dead pool's topology journal and adopt the heir."""
        heir = ShardPool.from_bytes(
            self.pool.wal.image(),
            initial_shards=self.pool.initial_shards,
            incarnation=self.pool.incarnation + 1)
        if self.async_channel is not None:
            # Route entries orphaned between the journaled handoff and
            # the crash *before* any further topology change, so the
            # assignment matches the uninterrupted run's.
            heir.migrate_orphans(self.async_channel)
        self.pool = heir
        for service in self.services.values():
            service.pool = heir
        self.pool_failovers += 1
        self.platform_ledger.charge(fault_category(FAILOVER), 0.0,
                                    count=1)

    # ------------------------------------------------------------------
    # The multi-tenant round.
    # ------------------------------------------------------------------

    def run_round(self,
                  tenant_vectors: Mapping[str, Sequence[np.ndarray]],
                  round_index: int, tag: str = "gradients"
                  ) -> MultiTenantRoundReport:
        """One shared round: rebalance once, then every tenant's round.

        Tenants run in registry order.  A tenant under an injected
        ``tenant_crash`` is skipped (and charged); a tenant under
        ``tenant_flood`` runs with the storm's intensity turned on; a
        tenant whose own round aborts below quorum is recorded as
        ``quorum_failed`` -- and in every case the remaining tenants'
        rounds proceed untouched.
        """
        for tenant_id in tenant_vectors:
            if tenant_id not in self.services:
                raise ValueError(
                    f"tenant {tenant_id!r} has no attached service")
        report = MultiTenantRoundReport(round_index=round_index)
        sizes = {tenant_id: len(vectors)
                 for tenant_id, vectors in tenant_vectors.items()}
        if self.elastic and sizes:
            report.rebalance_ops = self.rebalance(
                self._rebalance_target(sizes), round_index)
        report.active_shards = list(self.pool.active)

        for tenant in self.registry:
            tenant_id = tenant.tenant_id
            if tenant_id not in tenant_vectors:
                continue
            service = self.services[tenant_id]
            injector = service.aggregator.injector
            if injector.tenant_crashed(tenant_id, round_index):
                injector.record(TENANT_CRASH, tenant_id, round_index)
                service.aggregator.round_cursor = round_index + 1
                report.outcomes[tenant_id] = TenantRoundOutcome(
                    tenant_id, round_index, "crashed",
                    detail="tenant offline under injected tenant_crash")
                continue
            flood = injector.tenant_flood_intensity(tenant_id, round_index)
            if flood > 0:
                injector.record(TENANT_FLOOD, tenant_id, round_index)
            try:
                result = service.run_round(
                    tenant_vectors[tenant_id], tag=tag,
                    round_index=round_index, flood_intensity=flood)
            except QuorumError as error:
                report.outcomes[tenant_id] = TenantRoundOutcome(
                    tenant_id, round_index, "quorum_failed",
                    report=service.last_round, detail=str(error))
            else:
                report.outcomes[tenant_id] = TenantRoundOutcome(
                    tenant_id, round_index, "ok", result=result,
                    report=service.last_round)
        self.round_reports.append(report)
        return report
