"""Deterministic federation simulator: virtual time, replayable traces.

Drives :class:`~repro.federation.runtime.FederationRuntime` rounds from a
seeded virtual clock with **zero wall-clock dependence**:
client gradient draws, fault injection, channel retries and straggler
delays all advance modelled time only, so the same
:class:`SimulationSpec` produces the same per-round survivors, modelled
seconds, and aggregate checksums on every machine, every run.

One of each.  :class:`FederationSimulator` runs a :class:`SimulationSpec`
through the aggregation step the spec asks for (plain aggregator,
durable coordinator, or sharded service) and returns one
:class:`SimulationResult` with per-node WAL counts, digest trails and
failovers; :class:`MultiTenantSimulator` does the same for the
differently shaped :class:`TenancySpec`.  :func:`crash_sweep` kills one
node -- coordinator, leaf, root or shard pool -- after *each* record of
its journal.  :class:`SimulationFailure` is the one failure type: the
spec is the *trace*, a JSON record of everything the run depends on,
embedded in every failure message, and :func:`replay` rebuilds the
identical run in a fresh process from that JSON alone::

    python -c "from repro.testing.simulator import replay; \\
               replay('<trace json>')"
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.federation.channel import ChannelError
from repro.federation.coordinator import (
    DurableCoordinator,
    FailoverRecord,
    NodeSupervisor,
)
# VirtualClock now lives with the event loop (the federation layer owns
# its own time source); re-exported here for backward compatibility.
from repro.federation.eventloop import VirtualClock
from repro.federation.faults import (
    COORDINATOR_CRASH,
    FAILOVER,
    NODE_KILL_KINDS,
    FaultPlan,
    QuorumError,
)
from repro.federation.runtime import FederationRuntime, system_by_name
from repro.federation.shard import (
    MultiTenantAggregationService,
    ShardedAggregationService,
    ShardPool,
)
from repro.federation.tenancy import Tenant, TenantRegistry
from repro.federation.wal import CHECKPOINT


class _TraceSpec:
    """JSON round-trip for the frozen spec dataclasses (the traces)."""

    def to_dict(self) -> dict:
        """JSON-ready fields: nested specs and the fault plan through
        their own ``to_dict``, tuples as lists."""
        def plain(value):
            if hasattr(value, "to_dict"):
                return value.to_dict()
            if isinstance(value, tuple):
                return [plain(item) for item in value]
            return value

        return {f.name: plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict):
        """Inverse of :meth:`to_dict`.

        A trace is outside input: a key the spec does not define means
        the JSON describes some other kind of run, so it is rejected
        (``ValueError``) instead of silently simulating a default.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        if set(data) - known:
            raise ValueError(f"unknown {cls.__name__} fields: "
                             f"{sorted(set(data) - known)}")
        values = dict(data)
        if values.get("fault_plan") is not None:
            values["fault_plan"] = FaultPlan.from_dict(values["fault_plan"])
        if "physical_key_bits" in known:
            # A trace that leaves the physical key size out means full
            # fidelity, whatever the constructor default.
            values.setdefault("physical_key_bits", None)
        return cls(**values)


@dataclass(frozen=True)
class SimulationSpec(_TraceSpec):
    """The complete, JSON-round-trippable input of one simulation.

    This *is* the replay trace: everything a fresh process needs to
    reproduce the run bit-for-bit.  ``physical_key_bits`` defaults to
    ``key_bits`` (full fidelity); specs used in tests pass a small
    physical key so replays stay fast.
    """

    system: str = "FLBooster"
    num_clients: int = 4
    rounds: int = 3
    vector_size: int = 8
    key_bits: int = 256
    physical_key_bits: Optional[int] = 128
    seed: int = 7
    min_quorum: Optional[int] = None
    round_deadline_seconds: Optional[float] = None
    incarnation: int = 0
    fault_plan: Optional[FaultPlan] = None
    #: Route rounds through the write-ahead-logged coordinator.
    durable: bool = False
    #: Route rounds through the two-level sharded service
    #: (:mod:`repro.federation.shard`) instead of one coordinator.
    sharded: bool = False
    num_shards: Optional[int] = None
    queue_capacity: int = 64
    cohort_size: Optional[int] = None


class SimulationFailure(AssertionError):
    """A simulation diverged or crashed; message embeds the replay trace.

    The one failure type of every simulator and sweep.  ``trace`` in the
    message is sufficient for a fresh process: ``replay(trace_json)``
    reconstructs the identical run -- for a crash-sweep divergence the
    trace *includes* the kill, so it replays the exact kill-at-record-
    ``record_index`` run that diverged.

    Attributes:
        spec: The :class:`SimulationSpec` or :class:`TenancySpec` run.
        round_index: Round in flight, when the failure belongs to one.
        record_index: The journal record a sweep killed after, if any.
    """

    def __init__(self, spec: Union[SimulationSpec, "TenancySpec"],
                 detail: str, round_index: Optional[int] = None,
                 record_index: Optional[int] = None):
        self.spec = spec
        self.detail = detail
        self.round_index = round_index
        self.record_index = record_index
        where = "" if round_index is None else f" at round {round_index}"
        if record_index is not None:
            detail = f"kill after WAL record {record_index}: {detail}"
        # A tenancy trace carries one seed per tenant, inside the JSON.
        seed = (f"seed={spec.seed} " if isinstance(spec, SimulationSpec)
                else "")
        super().__init__(
            f"simulation failure{where}: {detail}\n"
            f"  repro: {seed}trace={spec.to_json()}")


@dataclass
class RoundRecord:
    """What one aggregation round did, in modelled time."""

    round_index: int
    start_time: float
    end_time: float
    summands: int
    survivors: Tuple[str, ...]
    dropped: Tuple[str, ...]
    checksum: int  # crc32 of the aggregated vector bytes


#: Node name of the flat durable coordinator in per-node results.
COORDINATOR = "coordinator"
#: Node name (and fault-plan party) of the sharded service's root.
ROOT = "root"
#: Node name of the shard pool's topology journal in crash sweeps.
SHARD_POOL = "shard-pool"


@dataclass
class SimulationResult:
    """Deterministic outcome of one simulation run.

    The durable story is told *per node* of whatever tree ran the
    rounds: ``shard-<i>`` leaves plus the root for the sharded service,
    the single node :data:`COORDINATOR` for the flat durable
    coordinator, nothing for the plain aggregator.  The crash sweep
    compares a killed node's recovered digest against that node's own
    trail: ``node_trails[node][lsn]`` is the round and the state digest
    after the node's record ``lsn``, for every record it ever appended
    (its journal holds only the last round; the simulator noted each
    round's before the next one compacted it away).
    """

    spec: SimulationSpec
    rounds: List[RoundRecord]
    final_time: float
    node_wal_records: Dict[str, int] = field(default_factory=dict)
    node_trails: Dict[str, Dict[int, Tuple[int, int]]] = field(
        default_factory=dict)
    failovers: List[FailoverRecord] = field(default_factory=list)
    final_weights: List[List[float]] = field(default_factory=list)

    def checksum(self) -> int:
        """One integer summarizing every round's aggregate -- the value
        replay equality is asserted on."""
        digest = 0
        for record in self.rounds:
            digest = zlib.crc32(
                f"{record.round_index}:{record.summands}:"
                f"{record.checksum}".encode(), digest)
        return digest

    def to_dict(self) -> dict:
        data = {
            "trace": self.spec.to_dict(),
            "final_time": self.final_time,
            "checksum": self.checksum(),
            "rounds": [
                {"round": r.round_index, "summands": r.summands,
                 "survivors": list(r.survivors),
                 "dropped": list(r.dropped),
                 "modelled_seconds": r.end_time - r.start_time,
                 "checksum": r.checksum}
                for r in self.rounds
            ],
        }
        if self.node_wal_records:
            # The shapes `python -m repro failover` / `shard` print: a
            # lone coordinator's deaths are told apart by kill kind, a
            # tree's by node.
            flat = list(self.node_wal_records) == [COORDINATOR]
            label = "kind" if flat else "node"
            deaths = [
                {label: getattr(f, label), "round": f.round_index,
                 "lsn": f.lsn, "incarnation": f.incarnation,
                 "recovered_digest": f.recovered_digest}
                for f in self.failovers]
            if flat:
                data["wal_records"] = self.node_wal_records[COORDINATOR]
                data["kills"] = deaths
            else:
                data["node_wal_records"] = dict(self.node_wal_records)
                data["failovers"] = deaths
        return data

    def divergence_from(self, reference: "SimulationResult", node: str,
                        index: int) -> Optional[str]:
        """Why this run, killed after ``node``'s record ``index``, is
        not ``reference`` recovered bit-identically (``None`` if it is)."""
        kill = next((f for f in self.failovers if f.node == node), None)
        if kill is None:
            return f"the scheduled kill of {node} never failed over"
        _round, expected = reference.node_trails[node][index]
        if kill.recovered_digest != expected:
            return (f"{node}: recovered state digest "
                    f"{kill.recovered_digest} != uninterrupted digest "
                    f"{expected} at the same record")
        if self.final_weights != reference.final_weights:
            return ("final decrypted weights diverged from the "
                    "uninterrupted run")
        if self.checksum() != reference.checksum():
            return (f"round checksum {self.checksum()} != reference "
                    f"{reference.checksum()}")
        return None


def _client_vectors(seed: int, round_index: int, num_clients: int,
                    vector_size: int) -> List[np.ndarray]:
    """Seeded gradient draws; depend only on (seed, round, client) --
    never on co-tenants, the precondition of the isolation invariant."""
    rng = np.random.default_rng(seed * 1_000_003 + round_index)
    return [rng.uniform(-1.0, 1.0, size=vector_size)
            for _ in range(num_clients)]


class FederationSimulator:
    """Wall-clock-free driver of federation rounds.

    Each round first advances the virtual clock to every late
    straggler's arrival, in order (the straggler delays the fault plan
    holds for that round -- stragglers genuinely arrive later on the
    virtual clock), then runs the aggregation step through the real
    federation stack (faults, quorum, retries and all), and finally
    advances the clock by the round's modelled ledger seconds.

    The aggregation step follows the spec:

    - ``sharded`` (or a plan with shard faults, or coordinator kills
      against the ``root`` party): the two-level
      :class:`~repro.federation.shard.ShardedAggregationService` on the
      simulator's virtual clock.
    - ``durable`` (or a plan with coordinator kills): one
      :class:`~repro.federation.coordinator.DurableCoordinator`, the
      one node of a
      :class:`~repro.federation.coordinator.NodeSupervisor`, which
      heartbeats its lease each round.
    - otherwise the plain
      :class:`~repro.federation.aggregator.SecureAggregator`.

    Either durable topology dies right after the WAL record each kill
    names and recovers through its supervisor: a ``coordinator_crash``
    restarts the node from its own log, a ``failover`` or
    ``shard_crash`` waits out the lease and promotes a standby.  A
    killed round *continues* -- uploads accepted before the death are
    reused verbatim from the log -- and every scheduled kill must fire
    or :meth:`run` raises.
    """

    def __init__(self, spec: SimulationSpec):
        self.spec = spec
        self.clock = VirtualClock()
        self.runtime = FederationRuntime(
            config=system_by_name(spec.system),
            num_clients=spec.num_clients,
            key_bits=spec.key_bits,
            physical_key_bits=spec.physical_key_bits,
            seed=spec.seed,
            fault_plan=spec.fault_plan,
            min_quorum=spec.min_quorum,
            round_deadline_seconds=spec.round_deadline_seconds,
            incarnation=spec.incarnation,
        )
        self.final_weights: List[List[float]] = []
        self.service: Optional[ShardedAggregationService] = None
        #: Whichever durable topology runs the rounds, its nodes' one
        #: supervisor (``None`` for the plain aggregator).
        self.supervisor: Optional[NodeSupervisor] = None
        #: node -> LSN -> (round, digest); see ``SimulationResult``.
        self.trails: Dict[str, Dict[int, Tuple[int, int]]] = {}
        plan = self.runtime.injector.plan
        coordinator_kills = plan.coordinator_events()
        if spec.sharded or plan.shard_events() or any(
                e.party == ROOT for e in coordinator_kills):
            self.service = ShardedAggregationService(
                self.runtime.aggregator, clock=self.clock,
                num_shards=spec.num_shards,
                queue_capacity=spec.queue_capacity, seed=spec.seed)
            self.supervisor = self.service.supervisor
        elif spec.durable or coordinator_kills:
            self.supervisor = NodeSupervisor(self.runtime.aggregator,
                                             self.clock)
            self.supervisor.add(COORDINATOR, COORDINATOR, COORDINATOR,
                                DurableCoordinator)

    def nodes(self) -> Dict[str, DurableCoordinator]:
        """Every journaling node's *current* coordinator, by name."""
        if self.supervisor is None:
            return {}
        return {key: node.primary
                for key, node in self.supervisor.nodes.items()}

    def _note_trails(self) -> None:
        """Note each node's round and digest at every LSN its journal
        still holds: a node keeps one round, the sweep needs them all."""
        for name, node in self.nodes().items():
            trail = self.trails.setdefault(name, {})
            held = [record for record in node.wal.records
                    if record.kind != CHECKPOINT]
            for offset, (record, digest) in enumerate(
                    zip(held, node.digest_trail)):
                trail[node.wal.first_lsn + offset] = (record.round_index,
                                                      digest)

    # ------------------------------------------------------------------
    # The aggregation step.
    # ------------------------------------------------------------------

    def _aggregate_round(self, vectors: List[np.ndarray],
                         round_index: int) -> np.ndarray:
        if self.service is not None:
            return self.service.run_round(
                vectors, round_index=round_index,
                cohort_size=self.spec.cohort_size)
        if self.supervisor is not None:
            try:
                self.supervisor.nodes[COORDINATOR].primary.heartbeat(
                    channel=self.runtime.channel)
            except ChannelError:
                pass  # a lost heartbeat just leaves the lease unrenewed
            return self.supervisor.run(
                COORDINATOR, round_index,
                lambda coordinator: coordinator.run_round(
                    vectors, round_index=round_index))
        return self.runtime.aggregator.aggregate(
            vectors, round_index=round_index)

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute every round; raises :class:`SimulationFailure` with a
        replayable ``(seed, trace)`` on any error."""
        records: List[RoundRecord] = []
        injector = self.runtime.injector
        for round_index in range(self.spec.rounds):
            start = self.clock.now
            # Wait for every straggler's late submission, in arrival
            # order; on-time submissions arrive at the round's start.
            for arrival in sorted(
                    start + injector.straggler_delay(f"client-{client}",
                                                     round_index)
                    for client in range(self.spec.num_clients)):
                if arrival > start:
                    self.clock.advance(arrival - self.clock.now)

            vectors = _client_vectors(self.spec.seed, round_index,
                                      self.spec.num_clients,
                                      self.spec.vector_size)
            ledger = self.runtime.begin_epoch()
            try:
                total = np.asarray(
                    self._aggregate_round(vectors, round_index))
            except QuorumError as error:
                raise SimulationFailure(
                    self.spec, f"quorum not met: {error}",
                    round_index) from error
            except Exception as error:
                raise SimulationFailure(
                    self.spec, f"{type(error).__name__}: {error}",
                    round_index) from error

            self.clock.advance(ledger.total_seconds)
            self._note_trails()
            self.final_weights.append([float(v) for v in total.ravel()])
            last = self.runtime.aggregator.last_round
            records.append(RoundRecord(
                round_index=round_index,
                start_time=start,
                end_time=self.clock.now,
                summands=(last.summands if last is not None
                          else len(vectors)),
                survivors=tuple(last.survivors) if last is not None else (),
                dropped=tuple(last.dropped) if last is not None else (),
                checksum=zlib.crc32(
                    np.ascontiguousarray(total).tobytes()),
            ))
        failovers = (self.supervisor.failover_log
                     if self.supervisor is not None else [])
        scheduled = [e for e in injector.plan.events
                     if e.kind in NODE_KILL_KINDS]
        unfired = len(scheduled) - len(failovers)
        if unfired > 0:
            raise SimulationFailure(
                self.spec,
                f"{unfired} of {len(scheduled)} scheduled "
                f"node kills never fired", self.spec.rounds - 1)
        nodes = self.nodes()
        return SimulationResult(
            spec=self.spec, rounds=records, final_time=self.clock.now,
            node_wal_records={name: len(node.wal)
                              for name, node in nodes.items()},
            node_trails=self.trails,
            failovers=list(failovers),
            final_weights=list(self.final_weights))


@dataclass
class CrashSweepReport:
    """Outcome of a kill-at-every-record-boundary sweep."""

    spec: Union[SimulationSpec, "TenancySpec"]
    mode: str
    wal_records: int
    boundaries_tested: int
    reference_checksum: int

    def summary_lines(self) -> List[str]:
        return [
            f"mode                 {self.mode}",
            f"wal records          {self.wal_records}",
            f"boundaries tested    {self.boundaries_tested}",
            f"reference checksum   {self.reference_checksum}",
            "verdict              recovered bit-identical at every "
            "boundary",
        ]


# ----------------------------------------------------------------------
# Multi-tenant simulation (tenant isolation + elastic rebalancing).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec(_TraceSpec):
    """One tenant's slice of a multi-tenant simulation.

    Each tenant is a *whole federation*: its own seed (hence its own
    Paillier keypair and gradient draws), its own client count, and its
    own fault plan -- the only things tenants share are the clock, the
    shard pool, and the admission-controlled ingress.
    """

    tenant_id: str
    num_clients: int = 4
    weight: float = 1.0
    quota_rate: Optional[float] = None
    quota_burst: int = 16
    seed: int = 7
    min_quorum: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None


@dataclass(frozen=True)
class TenancySpec(_TraceSpec):
    """The JSON-round-trippable input of one multi-tenant simulation.

    ``rebalance_targets`` (when given) overrides the elastic policy:
    round ``r`` drives the pool toward target ``targets[min(r, last)]``
    -- the knob the pool crash sweep uses to force both splits *and*
    merges into the topology journal.  ``pool_kill_after_lsn`` arms the
    pool's crash knife: the first topology record appended at or past
    that LSN kills the pool mid-handoff.
    """

    system: str = "FLBooster"
    rounds: int = 3
    vector_size: int = 8
    key_bits: int = 256
    physical_key_bits: Optional[int] = 128
    queue_capacity: int = 64
    initial_shards: int = 1
    tenants: Tuple[TenantSpec, ...] = ()
    rebalance_targets: Optional[Tuple[int, ...]] = None
    pool_kill_after_lsn: Optional[int] = None

    @classmethod
    def from_dict(cls, data: dict) -> "TenancySpec":
        values = dict(data)
        values["tenants"] = tuple(TenantSpec.from_dict(t)
                                  for t in values.get("tenants", ()))
        if values.get("rebalance_targets") is not None:
            values["rebalance_targets"] = tuple(
                values["rebalance_targets"])
        return super().from_dict(values)

    def solo(self, tenant_id: str) -> "TenancySpec":
        """The same world with only ``tenant_id`` in it -- the baseline
        the isolation invariant compares against."""
        keep = tuple(t for t in self.tenants
                     if t.tenant_id == tenant_id)
        if not keep:
            raise ValueError(f"no tenant {tenant_id!r} in the spec")
        return dataclasses.replace(self, tenants=keep)


@dataclass
class TenancySimulationResult:
    """Deterministic outcome of one multi-tenant simulation.

    ``final_weights[tenant]`` lists the decoded aggregate of every
    round the tenant completed (crashed / quorum-failed rounds record a
    status but no weights) -- the byte-exact series the isolation
    invariant compares between a noisy multi-tenant run and a solo run.
    """

    spec: TenancySpec
    statuses: Dict[str, List[str]] = field(default_factory=dict)
    final_weights: Dict[str, List[List[float]]] = field(
        default_factory=dict)
    active_history: List[List[str]] = field(default_factory=list)
    rebalance_ops: int = 0
    pool_failovers: int = 0
    pool_records: int = 0
    pool_digest: int = 0
    tenant_fault_counts: Dict[str, Dict[str, int]] = field(
        default_factory=dict)

    def checksum(self) -> int:
        """One integer over every tenant's every-round aggregate."""
        digest = zlib.crc32(
            json.dumps(self.active_history,
                       sort_keys=True).encode())
        for tenant_id in sorted(self.final_weights):
            for weights in self.final_weights[tenant_id]:
                digest = zlib.crc32(
                    np.asarray(weights, dtype=np.float64).tobytes(),
                    digest)
        return digest

    def to_dict(self) -> dict:
        return {
            "trace": self.spec.to_dict(),
            "checksum": self.checksum(),
            "statuses": self.statuses,
            "active_history": self.active_history,
            "rebalance_ops": self.rebalance_ops,
            "pool_records": self.pool_records,
            "pool_failovers": self.pool_failovers,
            "pool_digest": self.pool_digest,
            "tenant_fault_counts": self.tenant_fault_counts,
        }

    def divergence_from(self, reference: "TenancySimulationResult",
                        node: str, index: int) -> Optional[str]:
        """Why this run, its pool killed at topology record ``index``,
        is not ``reference`` recovered bit-identically (``None`` if it
        is): same final topology digest, same active-shard history,
        same per-tenant weights, and the pool really did fail over."""
        if self.pool_failovers < 1:
            return f"the {node} kill armed at record {index} never fired"
        if self.pool_digest != reference.pool_digest:
            return (f"recovered topology digest {self.pool_digest} != "
                    f"reference {reference.pool_digest}")
        if self.active_history != reference.active_history:
            return ("active-shard history diverged from the "
                    "uninterrupted run")
        if self.final_weights != reference.final_weights:
            return "tenant weights diverged from the uninterrupted run"
        return None


class MultiTenantSimulator:
    """Drives several federations over one shared shard pool.

    Builds one :class:`~repro.federation.runtime.FederationRuntime` per
    tenant (own keys, own fault injector, own ledgers), registers every
    tenant -- with its engine's key fingerprint pinned -- in a shared
    :class:`~repro.federation.tenancy.TenantRegistry`, and runs all
    rounds through the
    :class:`~repro.federation.shard.MultiTenantAggregationService`.
    Per-round gradient draws depend only on ``(tenant seed, round)``,
    never on co-tenants -- the precondition of the isolation invariant.
    """

    def __init__(self, spec: TenancySpec):
        if not spec.tenants:
            raise ValueError("a TenancySpec needs at least one tenant")
        self.spec = spec
        self.clock = VirtualClock()
        self.runtimes: Dict[str, FederationRuntime] = {}
        tenants = []
        for tenant_spec in spec.tenants:
            runtime = FederationRuntime(
                config=system_by_name(spec.system),
                num_clients=tenant_spec.num_clients,
                key_bits=spec.key_bits,
                physical_key_bits=spec.physical_key_bits,
                seed=tenant_spec.seed,
                fault_plan=tenant_spec.fault_plan,
                min_quorum=tenant_spec.min_quorum,
            )
            self.runtimes[tenant_spec.tenant_id] = runtime
            tenants.append(Tenant(
                tenant_id=tenant_spec.tenant_id,
                weight=tenant_spec.weight,
                quota_rate=tenant_spec.quota_rate,
                quota_burst=tenant_spec.quota_burst,
                key_fingerprint=runtime.aggregator.client_engine
                .fingerprint().hex()))
        self.registry = TenantRegistry(tenants)
        self.service = MultiTenantAggregationService(
            self.registry, clock=self.clock,
            queue_capacity=spec.queue_capacity,
            initial_shards=spec.initial_shards,
            elastic=spec.rebalance_targets is None)
        for tenant_spec in spec.tenants:
            self.service.attach(
                tenant_spec.tenant_id,
                self.runtimes[tenant_spec.tenant_id].aggregator,
                seed=tenant_spec.seed)
        if spec.pool_kill_after_lsn is not None:
            self.service.pool.kill_after_lsn = spec.pool_kill_after_lsn

    def nodes(self) -> Dict[str, ShardPool]:
        """The journaling node a crash sweep can kill: the shard pool
        (the tenants' own tree nodes live on ``service.services``)."""
        return {SHARD_POOL: self.service.pool}

    def run(self) -> TenancySimulationResult:
        result = TenancySimulationResult(
            spec=self.spec,
            statuses={t.tenant_id: [] for t in self.spec.tenants},
            final_weights={t.tenant_id: [] for t in self.spec.tenants})
        targets = self.spec.rebalance_targets
        for round_index in range(self.spec.rounds):
            ledgers = {
                tenant_spec.tenant_id:
                self.runtimes[tenant_spec.tenant_id].begin_epoch()
                for tenant_spec in self.spec.tenants}
            if targets is not None:
                target = targets[min(round_index, len(targets) - 1)]
                result.rebalance_ops += self.service.rebalance(
                    target, round_index)
            vectors = {
                tenant_spec.tenant_id:
                _client_vectors(tenant_spec.seed, round_index,
                                tenant_spec.num_clients,
                                self.spec.vector_size)
                for tenant_spec in self.spec.tenants}
            try:
                report = self.service.run_round(vectors, round_index)
            except Exception as error:
                raise SimulationFailure(
                    self.spec, f"{type(error).__name__}: {error}",
                    round_index) from error
            result.rebalance_ops += report.rebalance_ops
            result.active_history.append(list(report.active_shards))
            for tenant_id, outcome in report.outcomes.items():
                result.statuses[tenant_id].append(outcome.status)
                if outcome.status == "ok":
                    result.final_weights[tenant_id].append(
                        [float(v) for v in
                         np.asarray(outcome.result).ravel()])
            self.clock.advance(max(
                (ledger.total_seconds for ledger in ledgers.values()),
                default=0.0))
        result.pool_failovers = self.service.pool_failovers
        result.pool_records = len(self.service.pool.wal)
        result.pool_digest = self.service.pool.digest()
        for tenant_id, runtime in self.runtimes.items():
            result.tenant_fault_counts[tenant_id] = \
                runtime.injector.triggered_counts()
        return result


@dataclass
class TenantIsolationReport:
    """Verdict of one tenant-isolation check (CLI table body)."""

    spec: TenancySpec
    quiet_tenant: str
    rounds_compared: int
    noisy_checksum: int
    solo_checksum: int

    def summary_lines(self) -> List[str]:
        return [
            f"quiet tenant          {self.quiet_tenant}",
            f"rounds compared       {self.rounds_compared}",
            f"noisy-run checksum    {self.noisy_checksum}",
            f"solo-run checksum     {self.solo_checksum}",
            "verdict               quiet tenant byte-identical to its "
            "solo run",
        ]


def tenant_isolation_check(spec: TenancySpec,
                           quiet_tenant: str) -> TenantIsolationReport:
    """Assert the headline invariant: faults degrade their tenant only.

    Runs the full multi-tenant spec (noisy neighbours, floods, crashes
    and all), then runs ``quiet_tenant`` *alone* with the same seeds,
    and asserts the quiet tenant's per-round decoded weights are
    **byte-identical** across the two runs -- ``==`` on the float lists,
    not approximate.  Raises :class:`SimulationFailure` with a
    replayable trace on any divergence.
    """
    noisy = MultiTenantSimulator(spec).run()
    solo_spec = spec.solo(quiet_tenant)
    solo = MultiTenantSimulator(solo_spec).run()
    noisy_weights = noisy.final_weights[quiet_tenant]
    solo_weights = solo.final_weights[quiet_tenant]
    if noisy.statuses[quiet_tenant] != solo.statuses[quiet_tenant]:
        raise SimulationFailure(
            spec,
            f"quiet tenant {quiet_tenant!r} status series diverged: "
            f"{noisy.statuses[quiet_tenant]} (noisy) != "
            f"{solo.statuses[quiet_tenant]} (solo)")
    if noisy_weights != solo_weights:
        first = next(
            (i for i, (a, b) in enumerate(zip(noisy_weights,
                                              solo_weights))
             if a != b),
            min(len(noisy_weights), len(solo_weights)))
        raise SimulationFailure(
            spec,
            f"quiet tenant {quiet_tenant!r} weights diverged from its "
            f"solo run -- isolation is broken", first)
    def weights_checksum(weights: List[List[float]]) -> int:
        digest = 0
        for row in weights:
            digest = zlib.crc32(
                np.asarray(row, dtype=np.float64).tobytes(), digest)
        return digest
    return TenantIsolationReport(
        spec=spec, quiet_tenant=quiet_tenant,
        rounds_compared=len(solo_weights),
        noisy_checksum=weights_checksum(noisy_weights),
        solo_checksum=weights_checksum(solo_weights))


# ----------------------------------------------------------------------
# The crash sweep and replay (every topology).
# ----------------------------------------------------------------------


def _simulator_for(spec: Union[SimulationSpec, TenancySpec]):
    return (MultiTenantSimulator(spec) if isinstance(spec, TenancySpec)
            else FederationSimulator(spec))


def _topology_flag(node: str) -> Dict[str, bool]:
    """The spec field that puts ``node`` into the simulated topology."""
    return {"durable" if node == COORDINATOR else "sharded": True}


def _with_kill(spec: Union[SimulationSpec, TenancySpec], node: str,
               mode: str, round_index: int, index: int,
               root_index: Optional[int]
               ) -> Union[SimulationSpec, TenancySpec]:
    """``spec`` with a kill of ``node`` after its record ``index`` (and,
    racing, of the root after its record ``root_index``)."""
    if isinstance(spec, TenancySpec):
        return dataclasses.replace(spec, pool_kill_after_lsn=index)
    plan = spec.fault_plan if spec.fault_plan is not None \
        else FaultPlan(seed=spec.seed)
    if node == COORDINATOR:
        kill = plan.failover if mode == FAILOVER \
            else plan.coordinator_crash
        plan = kill(round_index, after_record=index)
    elif node == ROOT:
        root_index = index
    else:
        plan = plan.shard_crash(node, round_index, after_record=index)
    if root_index is not None:
        plan = plan.failover(round_index, after_record=root_index,
                             party=ROOT)
    return dataclasses.replace(spec, fault_plan=plan,
                               **_topology_flag(node))


def crash_sweep(spec: Union[SimulationSpec, TenancySpec],
                node: Optional[str] = None,
                mode: str = COORDINATOR_CRASH,
                record_indices: Optional[List[int]] = None,
                race_root_failover: bool = False) -> CrashSweepReport:
    """Kill one node after *each* record of its journal and verify.

    Runs the spec uninterrupted, capturing the target node's per-LSN
    round and digest trail and every round's decrypted weights; then,
    for each record boundary ``k`` (or only ``record_indices``), re-runs
    from scratch with a kill scheduled after the node's record ``k`` and
    asserts (the results' ``divergence_from``) that the successor's
    replayed digest equals the reference digest at ``k`` and that every
    round's weights and the run checksum match exactly (``==``).

    Args:
        spec: A :class:`SimulationSpec` is forced durable (``node`` =
            :data:`COORDINATOR`) or sharded (any other node).  A
            :class:`TenancySpec` sweeps the shard pool's topology
            journal -- same final topology digest, active-shard history
            and tenant weights, and the pool really failed over -- and
            must make the pool split or merge (``rebalance_targets``).
        node: :data:`COORDINATOR` (default for a simulation spec),
            ``shard-<i>``, ``root``, or :data:`SHARD_POOL` (default for
            a tenancy spec).
        mode: How the flat coordinator dies: ``coordinator_crash``
            (restarted from its log) or ``failover`` (standby takes
            over).  Leaves die by ``shard_crash``, the root by
            ``failover``.
        race_root_failover: Leaf sweeps only: every killed run *also*
            fails the root over in the same round, and both takeovers
            must still converge to the reference weights.

    Any divergence raises :class:`SimulationFailure` whose message
    embeds the replayable kill spec.
    """
    if isinstance(spec, TenancySpec):
        node = node or SHARD_POOL
        if spec.pool_kill_after_lsn is not None:
            raise ValueError("the sweep arms the kill itself; pass a "
                             "spec without pool_kill_after_lsn")
        reference_spec, label = spec, "shard-pool-rebalance"
    else:
        node = node or COORDINATOR
        reference_spec = dataclasses.replace(spec,
                                             **_topology_flag(node))
        label = mode if node == COORDINATOR else f"shard:{node}"
    reference_sim = _simulator_for(reference_spec)
    reference = reference_sim.run()
    nodes = reference_sim.nodes()
    if node not in nodes:
        raise ValueError(f"unknown node {node!r}; the reference run "
                         f"has {sorted(nodes)}")
    if isinstance(spec, TenancySpec):
        # The pool's topology journal is never compacted: it is whole.
        rounds = {lsn: record.round_index
                  for lsn, record in enumerate(nodes[node].wal.records)}
    else:
        rounds = {lsn: round_index for lsn, (round_index, _digest)
                  in reference.node_trails[node].items()}
    if not rounds:
        raise ValueError(
            f"the reference run journaled no {node} records; give a "
            f"tenancy spec rebalance_targets (or more clients) so the "
            f"pool actually splits or merges")
    racing = race_root_failover and node not in (COORDINATOR, ROOT,
                                                 SHARD_POOL)
    if racing:
        label += "+root-race"
        root_trail = reference.node_trails[ROOT]
    if record_indices is None:
        record_indices = sorted(rounds)
    for index in record_indices:
        if index not in rounds:
            raise ValueError(
                f"record index {index} outside the log of {node} "
                f"(0..{len(rounds) - 1})")
        round_index = rounds[index]
        # The racing root dies at its first record of the same round.
        root_index = min((lsn for lsn, (root_round, _digest)
                          in root_trail.items()
                          if root_round == round_index),
                         default=None) if racing else None
        killed_spec = _with_kill(spec, node, mode, round_index, index,
                                 root_index)
        try:
            result = _simulator_for(killed_spec).run()
        except SimulationFailure as failure:
            raise SimulationFailure(
                killed_spec,
                f"killed run failed outright: {failure.detail}",
                round_index, index) from failure
        detail = result.divergence_from(reference, node, index)
        if detail is not None:
            raise SimulationFailure(killed_spec, detail, round_index,
                                    index)
    return CrashSweepReport(
        spec=reference_spec, mode=label, wal_records=len(rounds),
        boundaries_tested=len(record_indices),
        reference_checksum=reference.checksum())


def replay(trace_json: str
           ) -> Union[SimulationResult, "TenancySimulationResult"]:
    """Rebuild and run a simulation from a failure's printed trace.

    The trace is the full state: this constructs a fresh simulator from
    the JSON and runs it -- the repro path named in every
    :class:`SimulationFailure` message.  A trace with a ``tenants`` key
    is a :class:`TenancySpec` and replays through the
    :class:`MultiTenantSimulator`; anything else is a
    :class:`SimulationSpec`, whose own fields and fault plan pick the
    :class:`FederationSimulator`'s aggregation step.
    """
    data = json.loads(trace_json)
    spec = (TenancySpec.from_dict(data) if "tenants" in data
            else SimulationSpec.from_dict(data))
    return _simulator_for(spec).run()
