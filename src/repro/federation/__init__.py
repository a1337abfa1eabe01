"""Federated-learning substrate (paper Sec. III-A, Fig. 2).

A FATE-like in-process federation: parties exchange serialized messages
through a byte-counting channel, gradients travel encrypted through the
secure aggregation pipeline, and every operation charges the shared cost
ledger so the benchmark harness can read epoch times and component splits.

- :mod:`repro.federation.channel` -- the client<->server network model.
- :mod:`repro.federation.aggregator` -- encode -> pack -> encrypt ->
  aggregate -> decrypt -> decode secure federated averaging.
- :mod:`repro.federation.runtime` -- wires a system configuration
  (FATE / HAFLO / FLBooster / ablations) into engines, channel and packer.
- :mod:`repro.federation.metrics` -- ledger re-exports and epoch reports.
- :mod:`repro.federation.faults` -- seeded fault injection (crashes,
  dropouts, stragglers, loss, corruption, coordinator kills),
  retry/backoff policy and quorum semantics for fault-tolerant
  aggregation.
- :mod:`repro.federation.wal` -- the coordinator's CRC-framed
  write-ahead log with torn-tail detection on replay.
- :mod:`repro.federation.coordinator` -- the durable round state
  machine, exactly-once upload dedupe, lease-based hot-standby
  failover.
- :mod:`repro.federation.eventloop` -- the deterministic event loop:
  virtual clock, bounded per-shard ingress queues, admission control,
  deadline shedding, per-lane circuit breakers.
- :mod:`repro.federation.shard` -- two-level sharded aggregation (leaf
  shards combine ciphertexts, the root decrypts in capacity-bounded
  segments) with per-node WAL + standby failover, the WAL-journaled
  elastic :class:`~repro.federation.shard.ShardPool`, and the
  multi-tenant orchestrator multiplexing many federations over it.
- :mod:`repro.federation.tenancy` -- tenant registry, token-bucket
  quotas, and weighted-fair scheduling primitives.
"""

from repro.federation.channel import (
    Channel,
    ChannelError,
    Message,
    payload_checksum,
)
from repro.federation.aggregator import AggregationRound, SecureAggregator
from repro.federation.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    QuorumError,
    RetryPolicy,
)
from repro.federation.coordinator import (
    CoordinatorError,
    CoordinatorKilled,
    DurableCoordinator,
    FailoverRecord,
    InvalidTransitionError,
    Lease,
    LeaseError,
    LeaseManager,
    RoundStateMachine,
    StaleIncarnationError,
    StandbyCoordinator,
)
from repro.federation.eventloop import (
    AdmissionRejected,
    AsyncChannel,
    CircuitBreaker,
    DrainOutcome,
    QueueStats,
    QuotaExceeded,
    VirtualClock,
)
from repro.federation.shard import (
    MultiTenantAggregationService,
    MultiTenantRoundReport,
    RootCoordinator,
    ShardAggregator,
    ShardedAggregationService,
    ShardPool,
    ShardRoundReport,
    TenantRoundOutcome,
    cohort_sample,
    default_num_shards,
    plan_shards,
    segment_partials,
)
from repro.federation.tenancy import (
    Tenant,
    TenantRegistry,
    TokenBucket,
    UnknownTenantError,
)
from repro.federation.runtime import FederationRuntime, SystemConfig
from repro.federation.wal import (
    WalError,
    WalRecord,
    WriteAheadLog,
    replay_wal,
)
from repro.federation.metrics import EpochReport, FaultReport, flop_seconds
from repro.federation.intersection import RsaIntersection

__all__ = [
    "Channel",
    "ChannelError",
    "Message",
    "payload_checksum",
    "AggregationRound",
    "SecureAggregator",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "QuorumError",
    "RetryPolicy",
    "FederationRuntime",
    "SystemConfig",
    "CoordinatorError",
    "CoordinatorKilled",
    "DurableCoordinator",
    "InvalidTransitionError",
    "Lease",
    "LeaseError",
    "LeaseManager",
    "RoundStateMachine",
    "StaleIncarnationError",
    "StandbyCoordinator",
    "AdmissionRejected",
    "AsyncChannel",
    "CircuitBreaker",
    "DrainOutcome",
    "QueueStats",
    "QuotaExceeded",
    "VirtualClock",
    "FailoverRecord",
    "MultiTenantAggregationService",
    "MultiTenantRoundReport",
    "RootCoordinator",
    "ShardAggregator",
    "ShardedAggregationService",
    "ShardPool",
    "ShardRoundReport",
    "TenantRoundOutcome",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "UnknownTenantError",
    "cohort_sample",
    "default_num_shards",
    "plan_shards",
    "segment_partials",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "replay_wal",
    "EpochReport",
    "flop_seconds",
    "RsaIntersection",
]
