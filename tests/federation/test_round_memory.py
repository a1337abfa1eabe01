"""What a kept round costs: a multi-tenant service's reports share the
``client-<i>`` names instead of holding fresh copies per round."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.federation.eventloop import VirtualClock
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import MultiTenantAggregationService
from repro.federation.tenancy import Tenant, TenantRegistry

TENANTS = (("tenant-a", 1.0), ("tenant-b", 2.0))
SHARDS = 4
WARM_ROUNDS = 5
MEASURED_ROUNDS = 20


def two_tenant_service(clients):
    """``tenant_fanin_2x128``'s shape at small keys, over a fixed pool
    of :data:`SHARDS` shards, so only the cohort size differs.  Returns
    the service and the tenants' runtimes."""
    service = MultiTenantAggregationService(
        TenantRegistry([Tenant(tenant_id, weight=weight, quota_rate=1.0e6,
                               quota_burst=2 * clients)
                        for tenant_id, weight in TENANTS]),
        clock=VirtualClock(), queue_capacity=64, initial_shards=SHARDS,
        elastic=False)
    runtimes = []
    for offset, (tenant_id, _) in enumerate(TENANTS):
        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=clients, key_bits=256,
            physical_key_bits=128, seed=11 + 10 * offset)
        service.attach(tenant_id, runtime.aggregator, seed=7 + offset)
        runtimes.append(runtime)
    return service, runtimes


def run_rounds(clients):
    """Run warm-up and measured rounds; returns the service and the
    bytes each measured round added to what the service keeps.

    Tracing starts before the first round and both readings are taken
    between rounds, so the state one round hands to the next -- the
    open round's frames, the epoch's device sums -- is in both and
    cancels: what is left is what every round adds for good."""
    service, runtimes = two_tenant_service(clients)
    rng = np.random.default_rng(3)
    vectors = {tenant_id: [rng.uniform(-0.5, 0.5, 4)
                           for _ in range(clients)]
               for tenant_id, _ in TENANTS}

    def run_round(round_index):
        # A fresh ledger per round, as the benchmark runs it: the
        # device's sums belong to the epoch, not to the service.
        for runtime in runtimes:
            runtime.begin_epoch()
        service.run_round(vectors, round_index)

    tracemalloc.start()
    try:
        for round_index in range(WARM_ROUNDS):
            run_round(round_index)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for round_index in range(WARM_ROUNDS,
                                 WARM_ROUNDS + MEASURED_ROUNDS):
            run_round(round_index)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return service, (after - before) / MEASURED_ROUNDS


@pytest.fixture(scope="module")
def runs():
    return {clients: run_rounds(clients) for clients in (16, 64)}


def test_kept_rounds_do_not_grow_with_the_cohort(runs):
    """Per kept round, a service retains a few pointers per client and
    its journals' per-round digests -- not a name string per client per
    report field, which made the growth scale with the cohort."""
    small, large = runs[16][1], runs[64][1]
    assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("clients", [16, 64])
def test_reports_name_every_client(runs, clients):
    service = runs[clients][0]
    names = [f"client-{i}" for i in range(clients)]
    assert len(service.round_reports) == WARM_ROUNDS + MEASURED_ROUNDS
    first = service.round_reports[0].outcomes["tenant-a"].report
    for multi in service.round_reports:
        assert {o.status for o in multi.outcomes.values()} == {"ok"}
        for outcome in multi.outcomes.values():
            report = outcome.report
            assert report.cohort == names
            assert len(report.shard_groups) == SHARDS
            grouped = [name for group in report.shard_groups.values()
                       for name in group]
            assert sorted(grouped) == sorted(names)
            assert sorted(report.survivors) == sorted(names)
            assert report.dropped == []
            # One string per client, shared by every round and field.
            assert all(a is b for a, b in zip(report.cohort, first.cohort))
            assert all(name is first.cohort[names.index(name)]
                       for name in report.survivors)
