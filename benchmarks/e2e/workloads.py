"""The four reference workloads.

Every workload drives the system through a top-level public entry point,
at real keys (``physical_key_bits == key_bits``) and
``he_backend="auto"``, from one process and one thread.  A round has
three phases so that only the system's own work is timed:

- :meth:`Workload.prepare_round` (untimed) draws the round's inputs from
  the seed and snapshots whatever the float reference needs;
- :meth:`Workload.run_round` (timed) hands the inputs to the entry point;
- :meth:`Workload.check_round` (untimed) computes the float reference
  and returns a :class:`RoundOutcome` for the correctness gate.

The sizes are part of the workload definitions (later issues cite them);
cut round counts, never these.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.datasets.generators import synthetic_like
from repro.federation.eventloop import VirtualClock
from repro.federation.runtime import (
    FLBOOSTER_SYSTEM,
    WITHOUT_BC,
    FederationRuntime,
)
from repro.federation.shard import MultiTenantAggregationService
from repro.federation.tenancy import Tenant, TenantRegistry
from repro.ledger import CostLedger
from repro.models.homo_lr import HomoLogisticRegression


@dataclass
class RoundOutcome:
    """What one round produced, for the correctness gate.

    Attributes:
        decoded: The system's decoded output.
        reference: The float reference for the same inputs.
        tolerance: Largest ``|decoded - reference|`` the live
            quantization scheme allows (summands x one quantization
            step).
        accepted: The protocol itself reported success (every tenant
            ``ok``, nothing rejected or shed).
        ledgers: The round's cost ledgers (modelled seconds).
    """

    decoded: np.ndarray
    reference: np.ndarray
    tolerance: float
    accepted: bool
    ledgers: List[CostLedger]

    @property
    def error(self) -> float:
        """``max |decoded - reference|``."""
        return float(np.max(np.abs(self.decoded - self.reference)))


class Workload:
    """Base class: a seed, a set-up, and three-phase rounds."""

    name = "abstract"
    why = ""
    #: Plaintext values securely aggregated (or histogrammed) per round.
    values_per_round = 0
    #: Timed rounds of the full suite's untraced pass (~30 s on the
    #: 2-core reference host); driver mode runs a share of them.
    suite_rounds = 0

    def __init__(self, seed: int):
        self.seed = seed
        self._input_rng = np.random.default_rng([seed, 0xE2E])
        self._round = 0

    def setup(self) -> None:
        """Dataset generation, keygen, runtime construction, and one
        warm-up round (which fills the randomizer pools)."""
        self.build()
        self.prepare_round()
        self.run_round()
        outcome = self.check_round()
        if not outcome.accepted or outcome.error > outcome.tolerance:
            raise RuntimeError(
                f"{self.name}: warm-up round failed its correctness gate "
                f"(error {outcome.error:.3e}, tolerance "
                f"{outcome.tolerance:.3e}, accepted {outcome.accepted})")

    def build(self) -> None:
        raise NotImplementedError

    def prepare_round(self) -> None:
        raise NotImplementedError

    def run_round(self) -> None:
        raise NotImplementedError

    def check_round(self) -> RoundOutcome:
        raise NotImplementedError

    def channels(self) -> list:
        """Every byte-counting channel the workload's traffic crosses."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Cumulative counts the program itself keeps (public stats)."""
        stats = [channel.stats for channel in self.channels()]
        return {
            "channel.messages": sum(s.messages for s in stats),
            "channel.wire_bytes": sum(s.wire_bytes for s in stats),
            "channel.retransmissions": sum(s.retransmissions
                                           for s in stats),
            "eventloop.rejected": 0,
            "eventloop.shed": 0,
            "tenancy.rebalance_ops": 0,
        }


class HomoLrPooled2048(Workload):
    """Homo LR epochs at a paper key size with pooled randomizers."""

    name = "homo_lr_pooled_2048"
    why = ("The paper's reference model at 2048-bit keys; pooled r^n makes "
           "encryption nearly free, so crypto.decrypt dominates the round "
           "and keygen + three pool fills dominate set-up.")
    instances = 1024
    features = 1024
    num_clients = 4
    key_bits = 2048
    values_per_round = num_clients * features
    suite_rounds = 65

    def build(self) -> None:
        dataset = synthetic_like(self.instances, self.features,
                                 seed=self.seed)
        self.runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=self.num_clients,
            key_bits=self.key_bits, physical_key_bits=self.key_bits,
            seed=self.seed, he_backend="auto")
        self.model = HomoLogisticRegression(
            dataset, num_clients=self.num_clients, rounds_per_epoch=1,
            seed=self.seed)
        # The float reference runs the same epoch code against a runtime
        # whose secure average is a plain mean.
        self._plain_runtime = SimpleNamespace(
            num_clients=self.num_clients, ledger=CostLedger(),
            aggregator=SimpleNamespace(
                average=lambda deltas, tag: np.mean(deltas, axis=0)))
        # Shared read-only between the model and its per-round clones.
        self._shared = {id(obj): obj
                        for obj in (dataset, self.model.partitions)}

    def prepare_round(self) -> None:
        self._reference_model = copy.deepcopy(self.model,
                                              dict(self._shared))

    def run_round(self) -> None:
        self._ledger = self.runtime.begin_epoch()
        self.model.run_epoch(self.runtime)
        self._round += 1

    def check_round(self) -> RoundOutcome:
        self._reference_model.run_epoch(self._plain_runtime)
        # The decoded mean of k deltas is off by at most k half-steps
        # over k; one full step is the issue's (generous) bound.
        return RoundOutcome(
            decoded=self.model.weights,
            reference=self._reference_model.weights,
            tolerance=self.runtime.plan.scheme.quantization_step,
            accepted=not self.runtime.aggregator.last_round.partial,
            ledgers=[self._ledger])

    def channels(self) -> list:
        return [self.runtime.channel]


class AggFresh1024(Workload):
    """Flat secure aggregation with a fresh r^n per ciphertext."""

    name = "agg_fresh_1024"
    why = ("Encrypt-bound: randomizer_pool_size=0 pays a fresh r^n modexp "
           "per ciphertext in batches of 63, where a batched backend has "
           "room to win; decrypt is a minority share here.")
    num_clients = 2
    length = 2048
    key_bits = 1024
    values_per_round = num_clients * length
    suite_rounds = 15

    def build(self) -> None:
        self.runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=self.num_clients,
            key_bits=self.key_bits, physical_key_bits=self.key_bits,
            seed=self.seed, randomizer_pool_size=0, he_backend="auto")

    def prepare_round(self) -> None:
        self._vectors = [self._input_rng.uniform(-1.0, 1.0, self.length)
                         for _ in range(self.num_clients)]

    def run_round(self) -> None:
        self._ledger = self.runtime.begin_epoch()
        self._decoded = self.runtime.aggregator.aggregate(self._vectors)
        self._round += 1

    def check_round(self) -> RoundOutcome:
        scheme = self.runtime.plan.scheme
        return RoundOutcome(
            decoded=self._decoded,
            reference=np.sum(self._vectors, axis=0),
            tolerance=self.num_clients * scheme.quantization_step,
            accepted=not self.runtime.aggregator.last_round.partial,
            ledgers=[self._ledger])

    def channels(self) -> list:
        return [self.runtime.channel]


class TenantFanin2x128(Workload):
    """Two tenants of 128 small uploads each over one shared shard pool."""

    name = "tenant_fanin_2x128"
    why = ("Federation-bound: 256 small uploads per round through "
           "admission, per-leaf WAL journaling, FLT3 frames, leaf combine "
           "and root reduce; only 6 decrypts, so per-message Python "
           "overhead is the cost.")
    tenants = (("tenant-a", 1.0), ("tenant-b", 2.0))
    clients_per_tenant = 128
    length = 64
    key_bits = 1024
    queue_capacity = 64
    values_per_round = len(tenants) * clients_per_tenant * length
    suite_rounds = 180

    def build(self) -> None:
        self.clock = VirtualClock()
        self.runtimes: Dict[str, FederationRuntime] = {}
        records = []
        for offset, (tenant_id, weight) in enumerate(self.tenants):
            runtime = FederationRuntime(
                FLBOOSTER_SYSTEM, num_clients=self.clients_per_tenant,
                key_bits=self.key_bits, physical_key_bits=self.key_bits,
                seed=self.seed + 10 * offset, he_backend="auto")
            self.runtimes[tenant_id] = runtime
            # Quota and queue are sized for zero steady-state
            # rejections: a burst holds two full rounds of uploads and
            # refills within any round's modelled duration; with
            # ceil(sqrt(256)) = 16 shards a tenant queues 8 uploads per
            # shard, under the smaller weighted slice (64 / 3 = 21).
            records.append(Tenant(
                tenant_id=tenant_id, weight=weight, quota_rate=1.0e6,
                quota_burst=2 * self.clients_per_tenant,
                key_fingerprint=runtime.aggregator.client_engine
                .fingerprint().hex()))
        self.service = MultiTenantAggregationService(
            TenantRegistry(records), clock=self.clock,
            queue_capacity=self.queue_capacity, elastic=True)
        for offset, tenant_id in enumerate(self.runtimes):
            self.service.attach(tenant_id,
                                self.runtimes[tenant_id].aggregator,
                                seed=self.seed + 10 * offset)

    def prepare_round(self) -> None:
        self._vectors = {
            tenant_id: [self._input_rng.uniform(-1.0, 1.0, self.length)
                        for _ in range(self.clients_per_tenant)]
            for tenant_id in self.runtimes}

    def run_round(self) -> None:
        self._ledgers = {tenant_id: runtime.begin_epoch()
                         for tenant_id, runtime in self.runtimes.items()}
        self._report = self.service.run_round(self._vectors, self._round)
        self.clock.advance(max(ledger.total_seconds
                               for ledger in self._ledgers.values()))
        self._round += 1

    def check_round(self) -> RoundOutcome:
        outcomes = self._report.outcomes
        accepted = (all(outcome.status == "ok"
                        for outcome in outcomes.values())
                    and not any(outcome.report.dropped
                                for outcome in outcomes.values()))
        counters = self.counters()
        accepted = accepted and counters["eventloop.rejected"] == 0 \
            and counters["eventloop.shed"] == 0
        if accepted:
            decoded = np.concatenate([outcomes[t].result
                                      for t in self.runtimes])
        else:
            decoded = np.full(len(self.runtimes) * self.length, np.nan)
        scheme = next(iter(self.runtimes.values())).plan.scheme
        return RoundOutcome(
            decoded=decoded,
            reference=np.concatenate([np.sum(self._vectors[t], axis=0)
                                      for t in self.runtimes]),
            tolerance=self.clients_per_tenant * scheme.quantization_step,
            accepted=accepted,
            ledgers=list(self._ledgers.values()))

    def channels(self) -> list:
        return [runtime.channel for runtime in self.runtimes.values()]

    def counters(self) -> Dict[str, int]:
        counters = super().counters()
        queues = self.service.async_channel.stats.values()
        counters["eventloop.rejected"] = sum(q.rejected for q in queues)
        counters["eventloop.shed"] = sum(q.shed for q in queues)
        counters["tenancy.rebalance_ops"] = sum(
            report.rebalance_ops for report in self.service.round_reports)
        return counters


class CipherHist1024(Workload):
    """SecureBoost-style encrypted histogram on the tensor layer."""

    name = "cipher_hist_1024"
    why = ("Same crypto/tensor layers, used differently: ~32k add_batch "
           "words per round against 32 one-word sends and decrypts and "
           "zero encrypts, so crypto.add and the planner flush dominate.")
    gradients = 8192
    views = 4
    bins = 8
    key_bits = 1024
    bin_size = gradients // bins
    values_per_round = views * gradients
    suite_rounds = 50

    def build(self) -> None:
        # num_clients sizes the overflow guard bits: it must cover the
        # largest bin, because CipherTensor.sum() does not check the
        # summand count and would decode garbage silently.
        self.runtime = FederationRuntime(
            WITHOUT_BC, num_clients=self.bin_size, key_bits=self.key_bits,
            physical_key_bits=self.key_bits, seed=self.seed,
            he_backend="auto")
        safe = self.runtime.plan.packer.max_safe_summands()
        if self.bin_size > safe:
            raise RuntimeError(
                f"bin of {self.bin_size} exceeds the packer's {safe} "
                f"safe summands")
        self._values = self._input_rng.uniform(-1.0, 1.0, self.gradients)
        encrypted = self.runtime.aggregator.encrypt_tensor(self._values)
        self._orders = [self._input_rng.permutation(self.gradients)
                        for _ in range(self.views)]
        self._views = [
            encrypted.with_words([encrypted.words[i] for i in order])
            for order in self._orders]
        self._reference = np.array([
            math.fsum(self._values[order[b * self.bin_size:
                                         (b + 1) * self.bin_size]])
            for order in self._orders for b in range(self.bins)])

    def prepare_round(self) -> None:
        pass

    def run_round(self) -> None:
        self._ledger = self.runtime.begin_epoch()
        size = self.bin_size
        sums = [view[b * size:(b + 1) * size].sum()
                for view in self._views for b in range(self.bins)]
        engine = self.runtime.server_engine
        aggregator = self.runtime.aggregator
        # The host ships each encrypted bin to the guest, who holds the
        # private key (this is also the round's only wire traffic).
        self._decoded = np.array([
            float(aggregator.decrypt_tensor(aggregator.send_tensor(
                lazy.materialize(engine=engine), sender="host",
                receiver="guest", tag="histogram"))[0])
            for lazy in sums])
        self._round += 1

    def check_round(self) -> RoundOutcome:
        scheme = self.runtime.plan.scheme
        return RoundOutcome(
            decoded=self._decoded, reference=self._reference,
            tolerance=self.bin_size * scheme.quantization_step,
            accepted=True, ledgers=[self._ledger])

    def channels(self) -> list:
        return [self.runtime.channel]


#: Name -> class, in reporting order.
WORKLOADS = {cls.name: cls for cls in (
    HomoLrPooled2048, AggFresh1024, TenantFanin2x128, CipherHist1024)}
