"""Federation metrics: epoch reports and compute-time charging.

The ledger (:mod:`repro.ledger`) is the single source of truth; this
module adds the FL-level views the paper reports -- per-epoch totals with
the three-way component split of Table VI / Fig. 1 -- the helper that
charges plaintext model computation ("Others") from counted floating-point
operations, and the :class:`FaultReport` summarizing the ``fault.*``
categories the fault-tolerance layer writes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro.ledger import (
    CAT_MODEL_COMPUTE,
    COMPONENT_COMM,
    COMPONENT_HE,
    COMPONENT_OTHERS,
    CostLedger,
)

#: Effective plaintext FLOP rate of the training servers (one core with
#: vectorized numerics).  Only affects the "Others" slice, which the paper
#: measures at 0.1-0.6% of a FATE epoch.
CPU_FLOP_RATE = 5.0e9

#: Per-value cost of the encode/quantize/pad/pack (and mirror) pipeline
#: stages (Fig. 4): dominated by float <-> multi-precision-integer
#: conversion, not arithmetic.  Drives FLBooster's enlarged "Others"
#: share in Table VI.
PIPELINE_SECONDS_PER_VALUE = 1.0e-5


def flop_seconds(flops: float) -> float:
    """Modelled seconds for ``flops`` floating-point operations."""
    if flops < 0:
        raise ValueError("flops must be non-negative")
    return flops / CPU_FLOP_RATE


def charge_model_compute(ledger: CostLedger, flops: float,
                         tag: str = CAT_MODEL_COMPUTE) -> None:
    """Charge plaintext model computation to the "Others" component."""
    ledger.charge(tag, flop_seconds(flops), count=1)


def charge_pipeline_stage(ledger: CostLedger, values: int,
                          tag: str) -> None:
    """Charge an encode/pack (or unpack/decode) pipeline stage."""
    if values < 0:
        raise ValueError("values must be non-negative")
    ledger.charge(tag, values * PIPELINE_SECONDS_PER_VALUE, count=values)


@dataclass
class EpochReport:
    """Summary of one training epoch under one system configuration.

    Attributes:
        system: System name (FATE / HAFLO / FLBooster / ablations).
        model: FL model name.
        dataset: Dataset name.
        key_bits: Nominal key size.
        epoch_seconds: Total modelled epoch time.
        component_seconds: The Table VI three-way split.
        he_operations: HE op count this epoch.
        ciphertexts_sent: Ciphertext transfers this epoch.
        wire_bytes: Total bytes on the wire this epoch.
        loss: Training loss at epoch end (when the model reports one).
    """

    system: str
    model: str
    dataset: str
    key_bits: int
    epoch_seconds: float
    component_seconds: Dict[str, float] = field(default_factory=dict)
    he_operations: int = 0
    ciphertexts_sent: int = 0
    wire_bytes: int = 0
    loss: float = float("nan")

    @classmethod
    def from_ledger(cls, ledger: CostLedger, system: str, model: str,
                    dataset: str, key_bits: int,
                    loss: float = float("nan")) -> "EpochReport":
        """Snapshot a ledger into a report."""
        return cls(
            system=system,
            model=model,
            dataset=dataset,
            key_bits=key_bits,
            epoch_seconds=ledger.total_seconds,
            component_seconds=ledger.by_component(),
            he_operations=ledger.count("he"),
            ciphertexts_sent=ledger.count("comm"),
            wire_bytes=ledger.payload_bytes("comm"),
            loss=loss,
        )

    def component_percentages(self) -> Dict[str, float]:
        """The Table VI percentage cells."""
        total = sum(self.component_seconds.values())
        if total == 0:
            return {name: 0.0 for name in self.component_seconds}
        return {name: 100.0 * seconds / total
                for name, seconds in self.component_seconds.items()}

    @property
    def he_seconds(self) -> float:
        """Seconds in the HE component."""
        return self.component_seconds.get(COMPONENT_HE, 0.0)

    @property
    def comm_seconds(self) -> float:
        """Seconds in the communication component."""
        return self.component_seconds.get(COMPONENT_COMM, 0.0)

    @property
    def other_seconds(self) -> float:
        """Seconds in the others component."""
        return self.component_seconds.get(COMPONENT_OTHERS, 0.0)


#: The fault kinds, listed once: (count field, ledger category,
#: summary label).  :class:`FaultReport` snapshots, sums and prints from
#: this table, in this order.
_FAULT_KINDS = (
    ("crashes", "fault.crash", "crashes observed"),
    ("dropouts", "fault.dropout", "dropouts observed"),
    ("stragglers", "fault.straggler", "stragglers waited"),
    ("deadline_misses", "fault.deadline", "deadline misses"),
    ("lost_updates", "fault.lost_update", "lost updates"),
    ("retransmissions", "fault.retransmit", "retransmissions"),
    ("corrupted", "fault.corrupt", "corrupted payloads"),
    ("giveups", "fault.giveup", "abandoned transfers"),
    ("coordinator_crashes", "fault.coordinator_crash",
     "coordinator crashes"),
    ("failovers", "fault.failover", "standby failovers"),
    ("shard_crashes", "fault.shard_crash", "shard crashes"),
    ("queue_overloads", "fault.queue_overload", "queue overloads"),
    ("shed", "fault.shed", "uploads shed"),
    ("circuit_opens", "fault.circuit_open", "circuit opens"),
    ("tenant_floods", "fault.tenant_flood", "tenant floods"),
    ("tenant_crashes", "fault.tenant_crash", "tenant crashes"),
)
#: Categories whose payload bytes went to attempts that failed.
_WASTED_BYTES = ("fault.retransmit", "fault.giveup",
                 "fault.lost_update", "fault.shed")


@dataclass
class FaultReport:
    """Summary of the fault events charged to a ledger.

    Reads the ``fault.*`` categories written by
    :class:`~repro.federation.faults.FaultInjector` and the channel's
    retry machinery; each field is a ``(count, seconds, bytes)``-derived
    scalar the CLI and tests assert on.

    Attributes:
        crashes: Crash observations (one per affected round).
        dropouts: Transient-outage observations.
        stragglers: Straggler delays waited out.
        straggler_seconds: Modelled seconds lost to stragglers.
        deadline_misses: Stragglers excluded by the round deadline.
        lost_updates: Client uploads abandoned after retries.
        retransmissions: Channel retransmission attempts.
        backoff_seconds: Modelled seconds spent backing off.
        corrupted: Payloads caught by the checksum.
        giveups: Transfers abandoned entirely.
        coordinator_crashes: Coordinator kill-and-recover cycles
            (recovered from the write-ahead log).
        failovers: Standby takeovers of a dead coordinator's round.
        shard_crashes: Leaf shard coordinators killed and failed over
            (see :mod:`repro.federation.shard`).
        queue_overloads: Injected admission-control overloads.
        shed: Uploads shed by the event loop's round deadline (each
            degraded the round into partial aggregation, never lost
            silently).
        circuit_opens: Per-shard circuit-breaker open transitions
            (a sick shard fenced out of the cohort).
        tenant_floods: Injected ``tenant_flood`` retry storms absorbed
            by tenant-scoped admission (multi-tenant service).
        tenant_crashes: Rounds a tenant's whole federation sat out
            under an injected ``tenant_crash``.
        wasted_bytes: Wire bytes consumed by failed attempts and
            abandoned transfers.
        fault_seconds: Total modelled time across all ``fault.*``
            categories.
    """

    crashes: int = 0
    dropouts: int = 0
    stragglers: int = 0
    straggler_seconds: float = 0.0
    deadline_misses: int = 0
    lost_updates: int = 0
    retransmissions: int = 0
    backoff_seconds: float = 0.0
    corrupted: int = 0
    giveups: int = 0
    coordinator_crashes: int = 0
    failovers: int = 0
    shard_crashes: int = 0
    queue_overloads: int = 0
    shed: int = 0
    circuit_opens: int = 0
    tenant_floods: int = 0
    tenant_crashes: int = 0
    wasted_bytes: int = 0
    fault_seconds: float = 0.0

    @classmethod
    def from_ledger(cls, ledger: CostLedger) -> "FaultReport":
        """Snapshot a ledger's ``fault.*`` categories."""
        return cls(
            straggler_seconds=ledger.seconds("fault.straggler"),
            backoff_seconds=ledger.seconds("fault.retransmit"),
            wasted_bytes=sum(ledger.payload_bytes(category)
                             for category in _WASTED_BYTES),
            fault_seconds=ledger.seconds("fault"),
            **{name: ledger.count(category)
               for name, category, _label in _FAULT_KINDS})

    def merge(self, other: "FaultReport") -> "FaultReport":
        """Sum two reports (e.g. across epochs of one run)."""
        return FaultReport(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in dataclasses.fields(self)})

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (bench artifacts, per-tenant fault tables).

        Field-for-field with the dataclass, so
        ``FaultReport.from_dict(report.to_dict()) == report`` holds
        exactly -- the round-trip the tenancy tests assert.
        """
        return dict(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultReport":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultReport fields: {sorted(unknown)}")
        return cls(**data)

    def summary_lines(self) -> List[str]:
        """Human-readable summary (the CLI's fault table body)."""
        seconds = {
            "stragglers": f" ({self.straggler_seconds:.2f}s)",
            "retransmissions": f" ({self.backoff_seconds:.3f}s backoff)",
        }
        return [f"{label:<22}{getattr(self, name)}{seconds.get(name, '')}"
                for name, _category, label in _FAULT_KINDS] + [
            f"wasted wire bytes     {self.wasted_bytes}",
            f"total fault seconds   {self.fault_seconds:.2f}",
        ]
