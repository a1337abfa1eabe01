"""Deterministic federation simulator: virtual time, replayable traces.

Drives :class:`~repro.federation.runtime.FederationRuntime` rounds from a
seeded virtual clock with **zero wall-clock dependence**:
client gradient draws, fault injection, channel retries and straggler
delays all advance modelled time only, so the same
:class:`SimulationSpec` produces the same per-round survivors, modelled
seconds, and aggregate checksums on every machine, every run.

One of each.  A :class:`SimulationSpec` lists its federations (one
:class:`FederationSpec` each) and names the topology that aggregates
them -- ``plain``, ``durable``, ``sharded``, or ``pool``, where several
federations are tenants of one shared shard pool.
:class:`FederationSimulator` runs any of them through one round loop and
returns one :class:`SimulationResult` with per-round records, per-node
WAL counts, digest trails and failovers.  :func:`crash_sweep` kills one
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.federation.aggregator import AggregationRound
from repro.federation.channel import ChannelError
from repro.federation.coordinator import (
    DurableCoordinator,
    FailoverRecord,
    NodeSupervisor,
)
from repro.federation.eventloop import VirtualClock
from repro.federation.faults import (
    COORDINATOR_CRASH,
    FAILOVER,
    NODE_KILL_KINDS,
    FaultPlan,
    QuorumError,
    client_names,
)
from repro.federation.runtime import FederationRuntime, system_by_name
from repro.federation.shard import (
    SHARD_POOL,
    MultiTenantAggregationService,
    ShardedAggregationService,
    TenantRoundOutcome,
)
from repro.federation.tenancy import Tenant, TenantRegistry
from repro.federation.wal import CHECKPOINT

#: The aggregation steps a spec can name (see :class:`FederationSimulator`).
PLAIN, DURABLE, SHARDED, POOL = "plain", "durable", "sharded", "pool"
TOPOLOGIES = (PLAIN, DURABLE, SHARDED, POOL)


def _trace_fields(cls, data: dict) -> dict:
    """A trace is outside input: a key the spec does not define means
    another kind of run, rejected instead of simulating a default."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: "
                         f"{sorted(unknown)}")
    return dict(data)


@dataclass(frozen=True)
class FederationSpec:
    """One federation of a simulation.

    Each federation is whole: its own seed (hence its own Paillier
    keypair and gradient draws), client count, quorum, deadline and
    fault plan.  ``weight`` / ``quota_rate`` / ``quota_burst`` are its
    tenant terms on a shared pool; the one-federation topologies ignore
    them, and ``tenant_id`` names it in results either way.
    """

    tenant_id: str = "tenant-0"
    num_clients: int = 4
    seed: int = 7
    min_quorum: Optional[int] = None
    round_deadline_seconds: Optional[float] = None
    incarnation: int = 0
    fault_plan: Optional[FaultPlan] = None
    weight: float = 1.0
    quota_rate: Optional[float] = None
    quota_burst: int = 16

    @classmethod
    def from_dict(cls, data: dict) -> "FederationSpec":
        values = _trace_fields(cls, data)
        if values.get("fault_plan") is not None:
            values["fault_plan"] = FaultPlan.from_dict(values["fault_plan"])
        return cls(**values)


@dataclass(frozen=True)
class SimulationSpec:
    """The complete, JSON-round-trippable input of one simulation.

    This *is* the replay trace: everything a fresh process needs to
    reproduce the run bit-for-bit.  ``physical_key_bits`` defaults to
    ``key_bits`` (full fidelity) in a trace that leaves it out; specs
    used in tests pass a small physical key so replays stay fast.

    ``topology`` picks the aggregation step; only ``pool`` runs more
    than one federation.  ``num_shards`` fixes the sharded service's
    shard count (default ``ceil(sqrt(cohort))``) or sizes the pool
    before its first rebalance (default 1); ``cohort_size`` samples a
    sharded round's cohort.  Pool only: ``rebalance_targets`` override
    the elastic policy (round ``r`` drives the pool toward
    ``targets[min(r, last)]``, forcing splits *and* merges into its
    journal), and ``pool_kill_after_lsn`` kills the pool at the first
    topology record appended at or past that LSN.
    """

    system: str = "FLBooster"
    rounds: int = 3
    vector_size: int = 8
    key_bits: int = 256
    physical_key_bits: Optional[int] = 128
    topology: str = PLAIN
    federations: Tuple[FederationSpec, ...] = (FederationSpec(),)
    num_shards: Optional[int] = None
    queue_capacity: int = 64
    cohort_size: Optional[int] = None
    rebalance_targets: Optional[Tuple[int, ...]] = None
    pool_kill_after_lsn: Optional[int] = None

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"expected one of {TOPOLOGIES}")
        if not self.federations:
            raise ValueError("a simulation needs at least one federation")
        if len(self.federations) > 1 and self.topology != POOL:
            raise ValueError(
                f"topology {self.topology!r} runs one federation, not "
                f"{len(self.federations)}; several share a {POOL!r}")
        ids = [f.tenant_id for f in self.federations]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicated tenant ids in {ids}")
        if self.topology != POOL and (
                self.rebalance_targets is not None
                or self.pool_kill_after_lsn is not None):
            raise ValueError("rebalance_targets and pool_kill_after_lsn "
                             f"need topology {POOL!r}")

    def to_dict(self) -> dict:
        """JSON-ready fields, nested federations and fault plans too."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationSpec":
        """Inverse of :meth:`to_dict`; a key absent from the trace takes
        the field default, except that an absent physical key size means
        full fidelity."""
        values = _trace_fields(cls, data)
        if "federations" in values:
            values["federations"] = tuple(
                FederationSpec.from_dict(f) for f in values["federations"])
        if values.get("rebalance_targets") is not None:
            values["rebalance_targets"] = tuple(values["rebalance_targets"])
        values.setdefault("physical_key_bits", None)
        return cls(**values)

    def replace_federation(self, **changes) -> "SimulationSpec":
        """This one-federation spec with that federation's fields
        changed."""
        federation, = self.federations
        return dataclasses.replace(self, federations=(
            dataclasses.replace(federation, **changes),))

    def solo(self, tenant_id: str) -> "SimulationSpec":
        """The same world with only ``tenant_id`` in it -- the baseline
        the isolation invariant compares against."""
        keep = tuple(f for f in self.federations
                     if f.tenant_id == tenant_id)
        if not keep:
            raise ValueError(f"no tenant {tenant_id!r} in the spec")
        return dataclasses.replace(self, federations=keep)


class SimulationFailure(AssertionError):
    """A simulation diverged or crashed; message embeds the replay trace.

    The one failure type of every simulation and sweep.  ``trace`` in the
    message is sufficient for a fresh process: ``replay(trace_json)``
    reconstructs the identical run -- for a crash-sweep divergence the
    trace *includes* the kill, so it replays the exact kill-at-record-
    ``record_index`` run that diverged.

    Attributes:
        spec: The :class:`SimulationSpec` run.
        round_index: Round in flight, when the failure belongs to one.
        record_index: The journal record a sweep killed after, if any.
    """

    def __init__(self, spec: SimulationSpec, detail: str,
                 round_index: Optional[int] = None,
                 record_index: Optional[int] = None):
        self.spec = spec
        self.detail = detail
        self.round_index = round_index
        self.record_index = record_index
        where = "" if round_index is None else f" at round {round_index}"
        if record_index is not None:
            detail = f"kill after WAL record {record_index}: {detail}"
        seeds = ",".join(str(f.seed) for f in spec.federations)
        super().__init__(
            f"simulation failure{where}: {detail}\n"
            f"  repro: seed={seeds} trace={spec.to_json()}")


@dataclass
class RoundRecord:
    """What one federation's aggregation round did, in modelled time.

    ``status`` is ``ok`` (``weights`` holds the decoded aggregate) or,
    contained to its tenant on a shared pool, ``crashed`` or
    ``quorum_failed``; any other topology raises
    :class:`SimulationFailure` on a failed round instead.
    """

    round_index: int
    federation: str
    status: str
    modelled_seconds: float
    summands: int
    survivors: Tuple[str, ...]
    dropped: Tuple[str, ...]
    weights: Optional[List[float]] = None

    @property
    def checksum(self) -> int:
        """crc32 of the aggregated vector's bytes (0 without one)."""
        return _weights_crc([self.weights] if self.weights else [])


def _weights_crc(rows: List[List[float]], digest: int = 0) -> int:
    """crc32 over decoded weight rows' float64 bytes, chained."""
    for row in rows:
        digest = zlib.crc32(np.asarray(row, dtype=np.float64).tobytes(),
                            digest)
    return digest


#: Node name of the flat durable coordinator in per-node results.
COORDINATOR = "coordinator"
#: Node name (and fault-plan party) of the sharded service's root.
ROOT = "root"


@dataclass
class SimulationResult:
    """Deterministic outcome of one simulation run.

    ``rounds`` holds one record per round and federation, in run order.
    The durable story is told *per node* of whatever ran the rounds:
    leaves ``shard-<i>`` and the root of a tree, the flat durable
    :data:`COORDINATOR`, a pool's topology journal :data:`SHARD_POOL`,
    nothing for the plain aggregator.  The crash sweep compares a killed
    node's recovered digest against ``node_trails[node][lsn]``, the
    round and state digest after the node's record ``lsn``, for every
    record it ever appended (noted each round, before the next one
    compacts the journal).  A pool also reports its active shards per
    round and its topology changes.
    """

    spec: SimulationSpec
    rounds: List[RoundRecord]
    final_time: float
    node_wal_records: Dict[str, int] = field(default_factory=dict)
    node_trails: Dict[str, Dict[int, Tuple[int, int]]] = field(
        default_factory=dict)
    failovers: List[FailoverRecord] = field(default_factory=list)
    active_history: List[List[str]] = field(default_factory=list)
    rebalance_ops: int = 0
    fault_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def statuses(self) -> Dict[str, List[str]]:
        """Every round's status, per federation."""
        return {f.tenant_id: [r.status for r in self.rounds
                              if r.federation == f.tenant_id]
                for f in self.spec.federations}

    @property
    def final_weights(self) -> Dict[str, List[List[float]]]:
        """The decoded aggregate of every round each federation
        completed -- the byte-exact series the isolation invariant and
        the crash sweeps compare with ``==``."""
        return {f.tenant_id: [r.weights for r in self.rounds
                              if r.federation == f.tenant_id
                              and r.weights is not None]
                for f in self.spec.federations}

    def checksum(self) -> int:
        """One integer summarizing every round's aggregate -- the value
        replay equality is asserted on.  A pool's also covers its
        active-shard history, then each tenant's weights in id order."""
        if self.spec.topology == POOL:
            digest = zlib.crc32(
                json.dumps(self.active_history, sort_keys=True).encode())
            weights = self.final_weights
            for tenant_id in sorted(weights):
                digest = _weights_crc(weights[tenant_id], digest)
            return digest
        digest = 0
        for record in self.rounds:
            digest = zlib.crc32(
                f"{record.round_index}:{record.summands}:"
                f"{record.checksum}".encode(), digest)
        return digest

    def to_dict(self) -> dict:
        return {
            "trace": self.spec.to_dict(),
            "final_time": self.final_time,
            "checksum": self.checksum(),
            "rounds": [{**dataclasses.asdict(r), "checksum": r.checksum}
                       for r in self.rounds],
            "active_history": self.active_history,
            "rebalance_ops": self.rebalance_ops,
            "fault_counts": self.fault_counts,
            "node_wal_records": self.node_wal_records,
            "failovers": [dataclasses.asdict(f) for f in self.failovers],
        }

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
    """Wall-clock-free driver of federation rounds, one loop for every
    topology.

    Each round waits on the virtual clock for every late straggler, in
    arrival order -- except on a shared pool, where one tenant's
    straggler must not move its neighbours' clock -- then opens every
    ledger epoch, drives the pool toward its forced target, draws the
    gradients, aggregates through the real federation stack (faults,
    quorum, retries and all), advances the clock by the largest ledger's
    modelled seconds and notes the journaling nodes' trails.

    The aggregation step is the topology's: ``plain`` the
    :class:`~repro.federation.aggregator.SecureAggregator`; ``durable``
    (or a plan with coordinator kills) one
    :class:`~repro.federation.coordinator.DurableCoordinator` under a
    :class:`~repro.federation.coordinator.NodeSupervisor`, heartbeating
    its lease each round; ``sharded`` (or a plan with shard faults or
    root kills) the
    :class:`~repro.federation.shard.ShardedAggregationService`; ``pool``
    the :class:`~repro.federation.shard.MultiTenantAggregationService`,
    every federation a tenant with its key fingerprint pinned, whose
    crash or quorum failure is its own round's status.

    A node dies right after the WAL record its kill names and recovers
    through its supervisor (``coordinator_crash`` restarts it from its
    log, ``failover`` / ``shard_crash`` promote a standby after the
    lease); the pool dies at ``pool_kill_after_lsn`` and recovers from
    its topology journal.  A killed round *continues* from the log, and
    every scheduled kill must fire or :meth:`run` raises.
    """

    def __init__(self, spec: SimulationSpec):
        self.spec = spec
        self.clock = VirtualClock()
        #: One runtime per federation, by tenant id, in spec order.
        self.runtimes: Dict[str, FederationRuntime] = {
            f.tenant_id: FederationRuntime(
                config=system_by_name(spec.system),
                num_clients=f.num_clients,
                key_bits=spec.key_bits,
                physical_key_bits=spec.physical_key_bits,
                seed=f.seed,
                fault_plan=f.fault_plan,
                min_quorum=f.min_quorum,
                round_deadline_seconds=f.round_deadline_seconds,
                incarnation=f.incarnation,
            )
            for f in spec.federations}
        self.topology = self._run_topology()
        #: The sharded service, or the pool's multi-tenant service.
        self.service = None
        #: The durable or sharded topology's one node supervisor.
        self.supervisor: Optional[NodeSupervisor] = None
        #: node -> LSN -> (round, digest); see ``SimulationResult``.
        self.trails: Dict[str, Dict[int, Tuple[int, int]]] = {}
        self.active_history: List[List[str]] = []
        self.rebalance_ops = 0
        federation = spec.federations[0]
        aggregator = self.runtimes[federation.tenant_id].aggregator
        if self.topology == POOL:
            self.service = MultiTenantAggregationService(
                TenantRegistry([Tenant(
                    tenant_id=f.tenant_id, weight=f.weight,
                    quota_rate=f.quota_rate, quota_burst=f.quota_burst,
                    key_fingerprint=self.runtimes[f.tenant_id].aggregator
                    .client_engine.fingerprint().hex())
                    for f in spec.federations]),
                clock=self.clock, queue_capacity=spec.queue_capacity,
                initial_shards=spec.num_shards or 1,
                elastic=spec.rebalance_targets is None)
            for f in spec.federations:
                self.service.attach(f.tenant_id,
                                    self.runtimes[f.tenant_id].aggregator,
                                    seed=f.seed)
            self.service.pool.kill_after_lsn = spec.pool_kill_after_lsn
        elif self.topology == SHARDED:
            self.service = ShardedAggregationService(
                aggregator, clock=self.clock, num_shards=spec.num_shards,
                queue_capacity=spec.queue_capacity, seed=federation.seed)
            self.supervisor = self.service.supervisor
        elif self.topology == DURABLE:
            self.supervisor = NodeSupervisor(aggregator, self.clock)
            self.supervisor.add(COORDINATOR, COORDINATOR, COORDINATOR,
                                DurableCoordinator)

    def _run_topology(self) -> str:
        """The spec's topology, upgraded as a one-federation plan needs:
        coordinator kills need a journal to die at, shard faults and
        root kills the tree."""
        if self.spec.topology == POOL:
            return POOL
        runtime, = self.runtimes.values()
        plan = runtime.injector.plan
        kills = plan.coordinator_events()
        if self.spec.topology == SHARDED or plan.shard_events() or any(
                e.party == ROOT for e in kills):
            return SHARDED
        if self.spec.topology == DURABLE or kills:
            return DURABLE
        return PLAIN

    def nodes(self) -> Dict[str, object]:
        """Every journaling node's *current* coordinator -- for a pool,
        its shard pool -- by name."""
        if self.topology == POOL:
            return {SHARD_POOL: self.service.pool}
        if self.supervisor is None:
            return {}
        return {key: node.primary
                for key, node in self.supervisor.nodes.items()}

    def _failovers(self) -> List[FailoverRecord]:
        """Every node death recovered so far (a pool's own, then its
        tenants' tree nodes')."""
        if self.topology == POOL:
            return [*self.service.failover_log,
                    *(record for service in self.service.services.values()
                      for record in service.failover_log)]
        return list(self.supervisor.failover_log
                    if self.supervisor is not None else [])

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
    # The round loop.
    # ------------------------------------------------------------------

    def _aggregate_round(self, vectors: Dict[str, List[np.ndarray]],
                         round_index: int) -> Dict[str, TenantRoundOutcome]:
        if self.topology == POOL:
            report = self.service.run_round(vectors, round_index)
            self.rebalance_ops += report.rebalance_ops
            self.active_history.append(list(report.active_shards))
            return report.outcomes
        (tenant_id, client_vectors), = vectors.items()
        runtime = self.runtimes[tenant_id]
        if self.topology == SHARDED:
            total = self.service.run_round(
                client_vectors, round_index=round_index,
                cohort_size=self.spec.cohort_size)
        elif self.topology == DURABLE:
            try:
                self.supervisor.nodes[COORDINATOR].primary.heartbeat(
                    channel=runtime.channel)
            except ChannelError:
                pass  # a lost heartbeat just leaves the lease unrenewed
            total = self.supervisor.run(
                COORDINATOR, round_index,
                lambda coordinator: coordinator.run_round(
                    client_vectors, round_index=round_index))
        else:
            total = runtime.aggregator.aggregate(
                client_vectors, round_index=round_index)
        return {tenant_id: TenantRoundOutcome(
            tenant_id, "ok", result=total,
            report=runtime.aggregator.last_round)}

    def run(self) -> SimulationResult:
        """Execute every round; raises :class:`SimulationFailure` with a
        replayable ``(seed, trace)`` on any error."""
        records: List[RoundRecord] = []
        targets = self.spec.rebalance_targets
        for round_index in range(self.spec.rounds):
            start = self.clock.now
            if self.topology != POOL:
                # Wait for every straggler's late submission, in arrival
                # order; on-time submissions arrive at the round's start.
                runtime, = self.runtimes.values()
                for arrival in sorted(
                        start + runtime.injector.straggler_delay(
                            name, round_index)
                        for name in client_names(runtime.num_clients)):
                    if arrival > start:
                        self.clock.advance(arrival - self.clock.now)
            ledgers = [runtime.begin_epoch()
                       for runtime in self.runtimes.values()]
            if targets is not None:
                self.rebalance_ops += self.service.rebalance(
                    targets[min(round_index, len(targets) - 1)],
                    round_index)
            vectors = {f.tenant_id: _client_vectors(
                f.seed, round_index, f.num_clients, self.spec.vector_size)
                for f in self.spec.federations}
            try:
                outcomes = self._aggregate_round(vectors, round_index)
            except QuorumError as error:
                raise SimulationFailure(
                    self.spec, f"quorum not met: {error}",
                    round_index) from error
            except Exception as error:
                raise SimulationFailure(
                    self.spec, f"{type(error).__name__}: {error}",
                    round_index) from error

            self.clock.advance(max(ledger.total_seconds
                                   for ledger in ledgers))
            self._note_trails()
            for outcome in outcomes.values():
                # A crashed tenant ran no round: nothing summed or named.
                report = outcome.report or AggregationRound(round_index)
                records.append(RoundRecord(
                    round_index=round_index,
                    federation=outcome.tenant_id,
                    status=outcome.status,
                    modelled_seconds=self.clock.now - start,
                    summands=report.summands,
                    survivors=tuple(report.survivors),
                    dropped=tuple(report.dropped),
                    weights=([float(v) for v in
                              np.asarray(outcome.result).ravel()]
                             if outcome.status == "ok" else None)))
        failovers = self._failovers()
        scheduled = sum(
            event.kind in NODE_KILL_KINDS
            for runtime in self.runtimes.values()
            for event in runtime.injector.plan.events) + (
            self.spec.pool_kill_after_lsn is not None)
        unfired = scheduled - len(failovers)
        if unfired > 0:
            raise SimulationFailure(
                self.spec,
                f"{unfired} of {scheduled} scheduled "
                f"node kills never fired", self.spec.rounds - 1)
        return SimulationResult(
            spec=self.spec, rounds=records, final_time=self.clock.now,
            node_wal_records={name: len(node.wal)
                              for name, node in self.nodes().items()},
            node_trails=self.trails,
            failovers=failovers,
            active_history=self.active_history,
            rebalance_ops=self.rebalance_ops,
            fault_counts={tenant_id: runtime.injector.triggered_counts()
                          for tenant_id, runtime in self.runtimes.items()})


@dataclass
class CrashSweepReport:
    """Outcome of a kill-at-every-record-boundary sweep."""

    spec: SimulationSpec
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


@dataclass
class TenantIsolationReport:
    """Verdict of one tenant-isolation check (CLI table body)."""

    spec: SimulationSpec
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


def tenant_isolation_check(spec: SimulationSpec,
                           quiet_tenant: str) -> TenantIsolationReport:
    """Assert the headline invariant: faults degrade their tenant only.

    Runs the full shared-pool spec (noisy neighbours, floods, crashes
    and all), then its :meth:`~SimulationSpec.solo` run of
    ``quiet_tenant`` with the same seeds, and asserts the quiet tenant's
    per-round decoded weights are **byte-identical** across the two
    runs -- ``==`` on the float lists, not approximate.  Raises
    :class:`SimulationFailure` with a replayable trace on any
    divergence.
    """
    noisy = FederationSimulator(spec).run()
    solo = FederationSimulator(spec.solo(quiet_tenant)).run()
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
    return TenantIsolationReport(
        spec=spec, quiet_tenant=quiet_tenant,
        rounds_compared=len(solo_weights),
        noisy_checksum=_weights_crc(noisy_weights),
        solo_checksum=_weights_crc(solo_weights))


# ----------------------------------------------------------------------
# The crash sweep and replay (every topology).
# ----------------------------------------------------------------------


def _with_kill(spec: SimulationSpec, node: str, mode: str,
               round_index: int, index: int,
               root_index: Optional[int]) -> SimulationSpec:
    """``spec`` with a kill of ``node`` after its record ``index`` (and,
    racing, of the root after its record ``root_index``)."""
    if node == SHARD_POOL:
        return dataclasses.replace(spec, pool_kill_after_lsn=index)
    federation = spec.federations[0]
    plan = federation.fault_plan if federation.fault_plan is not None \
        else FaultPlan(seed=federation.seed)
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
    return spec.replace_federation(fault_plan=plan)


def crash_sweep(spec: SimulationSpec,
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
        spec: Run in the topology whose journal ``node`` is: ``durable``
            for :data:`COORDINATOR`, ``pool`` for :data:`SHARD_POOL`
            (whose spec must make the pool split or merge, e.g. through
            ``rebalance_targets``), ``sharded`` for any other node.
        node: :data:`COORDINATOR` (default), ``shard-<i>``, ``root``, or
            :data:`SHARD_POOL` (default for a ``pool`` spec).
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
    node = node or (SHARD_POOL if spec.topology == POOL else COORDINATOR)
    if spec.pool_kill_after_lsn is not None:
        raise ValueError("the sweep arms the kill itself; pass a "
                         "spec without pool_kill_after_lsn")
    reference_spec = dataclasses.replace(spec, topology={
        COORDINATOR: DURABLE, SHARD_POOL: POOL}.get(node, SHARDED))
    label = {COORDINATOR: mode, SHARD_POOL: "shard-pool-rebalance"}.get(
        node, f"shard:{node}")
    reference_sim = FederationSimulator(reference_spec)
    reference = reference_sim.run()
    nodes = reference_sim.nodes()
    if node not in nodes:
        raise ValueError(f"unknown node {node!r}; the reference run "
                         f"has {sorted(nodes)}")
    rounds = {lsn: round_index for lsn, (round_index, _digest)
              in reference.node_trails[node].items()}
    if not rounds:
        raise ValueError(
            f"the reference run journaled no {node} records; give a "
            f"pool spec rebalance_targets (or more clients) so the "
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
        killed_spec = _with_kill(reference_spec, node, mode, round_index,
                                 index, root_index)
        try:
            result = FederationSimulator(killed_spec).run()
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


def replay(trace_json: str) -> SimulationResult:
    """Rebuild and run a simulation from a failure's printed trace.

    The trace is the full state: this constructs a fresh
    :class:`FederationSimulator` from the JSON and runs it -- the repro
    path named in every :class:`SimulationFailure` message.  The spec's
    topology and fault plans pick the aggregation step; JSON of any
    other shape is rejected with ``ValueError``.
    """
    return FederationSimulator(
        SimulationSpec.from_dict(json.loads(trace_json))).run()
