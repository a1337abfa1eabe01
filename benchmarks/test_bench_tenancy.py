"""Beyond-the-paper ablation: multi-tenant isolation and pool sharing.

Two claims, both snapshotted to ``BENCH_tenancy.json`` at the repo root:

1. **Noisy-neighbor latency**: a quiet tenant's per-round modelled
   latency under a co-tenant's sustained retry-storm flood stays within
   a small factor of its dedicated-deployment latency -- tenant-scoped
   admission (weighted queue slices + token-bucket quotas) absorbs the
   storm inside the flooding tenant's own share.
2. **Shared-pool amortization**: one elastic pool sized by the
   *combined* load (``ceil(sqrt(sum P_t))`` leaves) serves every tenant
   with fewer leaf aggregators than the sum of dedicated per-tenant
   pools, while the per-tenant root cost stays in the same regime.
"""

import json
from pathlib import Path

from benchmarks.common import (
    bench_rng,
    bench_seed,
    label_figures,
    publish,
)
from repro.experiments.harness import format_table
from repro.federation.eventloop import VirtualClock
from repro.federation.faults import FaultPlan
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import MultiTenantAggregationService
from repro.federation.tenancy import Tenant, TenantRegistry

REPO_ROOT = Path(__file__).parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_tenancy.json"

ROUNDS = 3
VECTOR_SIZE = 8
KEY_BITS = 256
PHYSICAL_KEY_BITS = 128
QUEUE_CAPACITY = 32
FLOOD_INTENSITY = 3
SEED_STREAM = 97

#: (tenant_id, num_clients, weight, noisy?)
TENANT_GRID = (("tenant-noisy", 4, 1.0, True),
               ("tenant-quiet", 4, 2.0, False))


def build_world(tenant_rows):
    """One shared pool serving ``tenant_rows``; returns its pieces."""
    seed = bench_seed(SEED_STREAM)
    clock = VirtualClock()
    runtimes = {}
    tenants = []
    for offset, (tenant_id, clients, weight, noisy) in \
            enumerate(tenant_rows):
        plan = None
        if noisy:
            plan = FaultPlan(seed=seed + 1)
            for round_index in range(ROUNDS):
                plan = plan.tenant_flood(tenant_id, round_index,
                                         intensity=FLOOD_INTENSITY)
        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=clients, key_bits=KEY_BITS,
            physical_key_bits=PHYSICAL_KEY_BITS,
            seed=seed + 10 * offset, fault_plan=plan,
            min_quorum=1 if noisy else None)
        runtimes[tenant_id] = runtime
        tenants.append(Tenant(
            tenant_id=tenant_id, weight=weight, quota_rate=4.0,
            quota_burst=8,
            key_fingerprint=runtime.aggregator.client_engine
            .fingerprint().hex()))
    service = MultiTenantAggregationService(
        TenantRegistry(tenants), clock=clock,
        queue_capacity=QUEUE_CAPACITY)
    for offset, (tenant_id, _clients, _weight, _noisy) in \
            enumerate(tenant_rows):
        service.attach(tenant_id, runtimes[tenant_id].aggregator,
                       seed=seed + 10 * offset)
    return clock, runtimes, service


def run_rounds(tenant_rows):
    """Drive ``ROUNDS`` rounds; returns per-tenant per-round seconds
    and the pool/root cost profile."""
    clock, runtimes, service = build_world(tenant_rows)
    seed = bench_seed(SEED_STREAM)
    round_seconds = {row[0]: [] for row in tenant_rows}
    partial_uploads = {row[0]: 0 for row in tenant_rows}
    for round_index in range(ROUNDS):
        ledgers = {tenant_id: runtime.begin_epoch()
                   for tenant_id, runtime in runtimes.items()}
        vectors = {}
        for tenant_id, clients, _weight, _noisy in tenant_rows:
            rng = bench_rng(SEED_STREAM + hash(tenant_id) % 1_000
                            + round_index)
            vectors[tenant_id] = [
                rng.uniform(-0.5, 0.5, size=VECTOR_SIZE)
                for _ in range(clients)]
        service.run_round(vectors, round_index)
        for tenant_id, ledger in ledgers.items():
            round_seconds[tenant_id].append(ledger.total_seconds)
            partial_uploads[tenant_id] += ledger.count("comm.partial")
        clock.advance(max(ledger.total_seconds
                          for ledger in ledgers.values()))
    return {
        "seed": seed,
        "round_seconds": round_seconds,
        "mean_seconds": {t: sum(s) / len(s)
                         for t, s in round_seconds.items()},
        "partial_uploads": partial_uploads,
        "pool_leaves": len(service.pool.active),
    }


def test_bench_tenancy_noisy_neighbor_and_pool_sharing(benchmark):
    quiet_row = next(row for row in TENANT_GRID if not row[3])
    shared, dedicated = benchmark.pedantic(
        lambda: (run_rounds(TENANT_GRID), run_rounds((quiet_row,))),
        rounds=1, iterations=1)

    quiet = quiet_row[0]
    noisy_latency = shared["mean_seconds"][quiet]
    solo_latency = dedicated["mean_seconds"][quiet]
    latency_ratio = noisy_latency / solo_latency

    # Dedicated deployments: one elastic pool per tenant.
    dedicated_leaves = sum(
        run_rounds((row,))["pool_leaves"] for row in TENANT_GRID)

    table = format_table(
        ["Deployment", "Leaves", f"{quiet} (s/round)", "Ratio"],
        [["shared pool + flood", shared["pool_leaves"],
          f"{noisy_latency:.4f}", f"{latency_ratio:.2f}x"],
         ["dedicated pools", dedicated_leaves,
          f"{solo_latency:.4f}", "1.00x"]],
        title="Quiet-tenant latency under a noisy neighbor")
    publish("bench_tenancy", table)

    snapshot = {
        "benchmark": "tenancy_isolation",
        "seed": shared["seed"],
        "rounds": ROUNDS,
        "key_bits": KEY_BITS,
        "physical_key_bits": PHYSICAL_KEY_BITS,
        "flood_intensity": FLOOD_INTENSITY,
        "tenants": [{"tenant_id": t, "num_clients": c, "weight": w,
                     "noisy": n} for t, c, w, n in TENANT_GRID],
        "shared_pool": {
            "leaves": shared["pool_leaves"],
            "mean_round_seconds": shared["mean_seconds"],
            "partial_uploads": shared["partial_uploads"],
        },
        "dedicated_pools": {
            "leaves": dedicated_leaves,
            "quiet_mean_round_seconds": solo_latency,
            "quiet_partial_uploads": dedicated["partial_uploads"][quiet],
        },
        "quiet_tenant": quiet,
        "quiet_latency_ratio": latency_ratio,
        "pool_amortization": dedicated_leaves / shared["pool_leaves"],
    }
    # Every second here is charged by the cost ledger on the virtual
    # clock; leaf and upload counts are read off the runs themselves.
    snapshot = label_figures(snapshot, SEED_STREAM, {
        "shared_pool.leaves": "measured",
        "shared_pool.mean_round_seconds": "modelled",
        "shared_pool.partial_uploads": "measured",
        "dedicated_pools.leaves": "measured",
        "dedicated_pools.quiet_mean_round_seconds": "modelled",
        "dedicated_pools.quiet_partial_uploads": "measured",
        "quiet_latency_ratio": "modelled",
        "pool_amortization": "measured",
    }, inputs=("tenants",))
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")

    # The quiet tenant's latency under its neighbour's flood stays in
    # the same regime as a dedicated deployment (the shared pool holds
    # more leaves, so its rounds are not byte-equal in *time* -- only
    # in decoded weights, which the isolation tests pin exactly).
    assert 0.5 < latency_ratio < 2.0, latency_ratio
    # One shared pool needs fewer leaf aggregators than the sum of
    # dedicated per-tenant pools: ceil(sqrt(sum P)) < sum ceil(sqrt(P)).
    assert shared["pool_leaves"] < dedicated_leaves
