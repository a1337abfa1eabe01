"""Golden journals: every WAL byte, digest and charge pinned across commits.

The crash sweeps compare a run against *another run of the same code*,
so a refactor that changed what both runs journal would pass them.  This
file pins literals instead: per scenario, ``crc32(wal.image())`` and the
final ``machine.digest()`` of every node, the shard pool's digest, the
result checksum, the modelled ``final_time``, the failover list, and a
CRC over each round's ledger category totals plus the injector's
``triggered`` sequence.  The literals were captured at commit
``fc37bc0`` (py3.11.7 / numpy 2.4.6) and are stable across processes and
``PYTHONHASHSEED``; a restructuring of the aggregation or simulation
stack must leave every one of them untouched.  Two changes amended
literals since, each with its mapping from the old values pinned by a
test: ``durable-failover.final_time`` lost the flat failover's 1.0 s
lease grace when the flat and tree nodes came to share one supervisor;
and once a round node compacted its journal when its next round opens,
every ``crc32(wal.image())`` of a node that ran more than one round and
the ``runtime-durable*`` ``trail`` CRCs moved.  Their mapping is
mechanical -- the new image is the old image compacted at its last
``round_open``, the new trail the old trail from that ``round_open``'s
LSN on -- and :func:`test_new_literals_are_the_old_journals_compacted`
applies it to the old journals themselves, committed beside this file
as ``journal_images_pre_checkpoint.zlib``: zlib-compressed JSON,
``{scenario: {"images": {node: image hex}, "trail": [digest, ...]}}``,
captured at commit ``7ea0927`` by running every scenario with
:func:`node_prints` (and :func:`coordinator_print`) also recording each
node's ``wal.image()`` (and ``digest_trail``).

A third change moved ciphertext bytes: the key holder's obfuscator of a
draw ``r`` became ``sigma(r)^n`` instead of ``r^n`` (same distribution,
two library powers instead of four).  :data:`GOLDEN` keeps the literals
captured before it, which the two tests above read;
:data:`MOVED` lists what moved and :data:`LIFTED` is what this code
journals.  The mapping is the obfuscator route itself:
:func:`test_textbook_obfuscators_reproduce_the_parent_literals` runs
every scenario with the key holder's obfuscators routed to the textbook
``r^n`` and reproduces every :data:`GOLDEN` literal.

Only :func:`build_simulator`, :func:`simulator_nodes` and
:func:`result_failovers` know how a simulator is built from a spec and
where it keeps a node's coordinator; the federation-layer scenarios
(``DurableCoordinator`` / ``ShardedAggregationService`` /
``MultiTenantAggregationService`` over a runtime's aggregator) touch no
simulator at all.
"""

import json
import zlib

import numpy as np
import pytest

from pathlib import Path

from repro.crypto.keys import PaillierPrivateKey
from repro.federation.coordinator import (
    CoordinatorKilled,
    DurableCoordinator,
    LeaseManager,
    RoundStateMachine,
)
from repro.federation.eventloop import VirtualClock
from repro.federation.faults import FaultPlan
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import (
    MultiTenantAggregationService,
    ShardedAggregationService,
)
from repro.federation.tenancy import Tenant, TenantRegistry
from repro.federation.wal import ROUND_OPEN, WriteAheadLog
from repro.testing.simulator import (
    FederationSimulator,
    FederationSpec,
    SimulationSpec,
)


# ----------------------------------------------------------------------
# The commit-specific seam: simulator construction and node lookup.
# ----------------------------------------------------------------------


def build_simulator(spec):
    return FederationSimulator(spec)


def simulator_nodes(sim):
    """``{node name: its current coordinator}`` for a finished run."""
    return sim.nodes()


def result_failovers(result):
    """``[node, lsn, incarnation, recovered_digest]`` per node death."""
    return [[f.node, f.lsn, f.incarnation, f.recovered_digest]
            for f in result.failovers]


# ----------------------------------------------------------------------
# Fingerprinting (identical on every commit).
# ----------------------------------------------------------------------


def service_nodes(service):
    nodes = dict(service.leaves)
    nodes[service.root_name] = service.root
    return nodes


def node_prints(nodes):
    return {name: [len(node.wal), zlib.crc32(node.wal.image()),
                   node.machine.digest()]
            for name, node in sorted(nodes.items())}


def ledger_print(ledger):
    """CRC over the canonical ``(category, seconds, count, bytes)`` rows."""
    rows = [[category, float(entry.seconds).hex(), entry.count,
             entry.payload_bytes] for category, entry in ledger]
    return zlib.crc32(json.dumps(rows).encode("utf-8"))


def record_epochs(runtime):
    """Make ``runtime.begin_epoch`` remember every ledger it hands out."""
    ledgers = []
    begin = runtime.begin_epoch

    def recording_begin():
        ledger = begin()
        ledgers.append(ledger)
        return ledger

    runtime.begin_epoch = recording_begin
    return ledgers


def triggered(runtime):
    if runtime.injector is None:
        return []
    return [list(event) for event in runtime.injector.triggered]


def vectors_for(num_clients, round_index, length=6, seed=3):
    rng = np.random.default_rng(seed * 1_000_003 + round_index)
    return [rng.uniform(-0.5, 0.5, size=length)
            for _ in range(num_clients)]


def weights_print(rounds):
    digest = 0
    for weights in rounds:
        digest = zlib.crc32(
            np.ascontiguousarray(weights, dtype=np.float64).tobytes(),
            digest)
    return digest


# ----------------------------------------------------------------------
# Simulator-driven scenarios.
# ----------------------------------------------------------------------

#: Every client-gate branch at once: a permanent crash, a transient
#: dropout, a straggler that is waited out, one the deadline excludes,
#: and a lossy channel.
GATE_PLAN = (FaultPlan(seed=5)
             .crash("client-5", 1)
             .dropout("client-1", 0, 1)
             .straggler("client-2", 1, 4.0)
             .straggler("client-3", 0, 25.0)
             .with_message_loss(0.05))
GATE = dict(num_clients=6, min_quorum=2, round_deadline_seconds=10.0,
            fault_plan=GATE_PLAN)


def one(topology="plain", spec=None, **federation):
    """A one-federation spec: ``spec`` holds the spec's own fields."""
    return SimulationSpec(topology=topology, **(spec or {}),
                          federations=(FederationSpec(**federation),))


SIMULATIONS = {
    "plain": one(),
    "plain-gate": one(**GATE),
    "durable": one("durable"),
    "durable-gate": one("durable", **GATE),
    "durable-crash": one(
        "durable",
        fault_plan=FaultPlan(seed=7).coordinator_crash(1, after_record=10)),
    "durable-failover": one(
        "durable",
        fault_plan=FaultPlan(seed=7).failover(0, after_record=3)),
    "durable-crash-at-close": one(
        "durable",
        fault_plan=FaultPlan(seed=7).coordinator_crash(0, after_record=7)),
    "sharded": one("sharded", num_clients=6),
    "sharded-gate": one("sharded", **GATE),
    "sharded-leaf-kill": one(
        "sharded", num_clients=6,
        fault_plan=FaultPlan(seed=7).shard_crash("shard-0", 1,
                                                 after_record=9)),
    "sharded-root-failover": one(
        "sharded", num_clients=6,
        fault_plan=FaultPlan(seed=7).failover(1, after_record=8,
                                              party="root")),
    "sharded-leaf-racing-root": one(
        "sharded", num_clients=6,
        fault_plan=(FaultPlan(seed=7)
                    .shard_crash("shard-1", 0, after_record=2)
                    .failover(0, after_record=1, party="root"))),
    "sharded-cohort": one("sharded", num_clients=9, min_quorum=3,
                          spec=dict(cohort_size=5, num_shards=2)),
}


def simulation_print(spec):
    sim = build_simulator(spec)
    runtime, = sim.runtimes.values()
    ledgers = record_epochs(runtime)
    result = sim.run()
    return {
        "nodes": node_prints(simulator_nodes(sim)),
        "checksum": result.checksum(),
        "final_time": result.final_time,
        "failovers": result_failovers(result),
        "ledgers": [ledger_print(ledger) for ledger in ledgers],
        "triggered": triggered(runtime),
    }


TENANCY = SimulationSpec(
    topology="pool",
    federations=(FederationSpec("tenant-a", seed=11),
                 FederationSpec("tenant-b", seed=23)),
    rebalance_targets=(3, 1, 2))
NOISY_TENANCY = SimulationSpec(
    topology="pool",
    rounds=3, vector_size=6, key_bits=256, physical_key_bits=128,
    queue_capacity=32,
    federations=(
        FederationSpec("tenant-a", num_clients=3, quota_rate=2.0,
                       quota_burst=8, seed=11, min_quorum=1,
                       fault_plan=(FaultPlan(seed=3)
                                   .tenant_flood("tenant-a", 1, intensity=3)
                                   .tenant_crash("tenant-a", 2))),
        FederationSpec("tenant-b", num_clients=4, weight=2.0, seed=23)))

TENANCIES = {
    "tenancy": TENANCY,
    "tenancy-pool-kill": SimulationSpec.from_dict(
        {**TENANCY.to_dict(), "pool_kill_after_lsn": 2}),
    "tenancy-noisy": NOISY_TENANCY,
}


def tenancy_service_print(service, runtimes, ledgers, clock):
    nodes = {}
    for tenant_service in service.services.values():
        for name, node in service_nodes(tenant_service).items():
            # Leaf keys are bare shard names; qualify them per tenant.
            key = name if name == tenant_service.root_name \
                else f"{tenant_service.node_prefix}{name}"
            nodes[key] = node
    return {
        "nodes": node_prints(nodes),
        "pool": [len(service.pool.wal),
                 zlib.crc32(service.pool.wal.image()),
                 service.pool.digest(), len(service.failover_log)],
        "final_time": clock.now,
        "failovers": {
            tenant_id: [[f.node, f.lsn, f.incarnation, f.recovered_digest]
                        for f in tenant_service.failover_log]
            for tenant_id, tenant_service in service.services.items()},
        "ledgers": {tenant_id: [ledger_print(ledger) for ledger in rows]
                    for tenant_id, rows in ledgers.items()},
        "platform_ledger": ledger_print(service.platform_ledger),
        "triggered": {tenant_id: triggered(runtime)
                      for tenant_id, runtime in runtimes.items()},
    }


def tenancy_print(spec):
    sim = build_simulator(spec)
    ledgers = {tenant_id: record_epochs(runtime)
               for tenant_id, runtime in sim.runtimes.items()}
    result = sim.run()
    data = tenancy_service_print(sim.service, sim.runtimes, ledgers,
                                 sim.clock)
    data["checksum"] = result.checksum()
    data["statuses"] = result.statuses
    return data


# ----------------------------------------------------------------------
# Federation-layer scenarios (no simulator involved).
# ----------------------------------------------------------------------


def make_runtime(num_clients, seed=11, **kwargs):
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=num_clients,
                             key_bits=256, physical_key_bits=128,
                             seed=seed, **kwargs)


def coordinator_print(runtime, coordinator, rounds, extra=None):
    data = {
        "nodes": node_prints({"coordinator": coordinator}),
        "trail": zlib.crc32(json.dumps(
            coordinator.digest_trail).encode("utf-8")),
        "weights": weights_print(rounds),
        "ledger": ledger_print(runtime.ledger),
        "triggered": triggered(runtime),
    }
    data.update(extra or {})
    return data


def runtime_durable():
    runtime = make_runtime(4, min_quorum=2, round_deadline_seconds=10.0,
                           fault_plan=(FaultPlan(seed=2)
                                       .crash("client-3", 1)
                                       .straggler("client-1", 0, 3.0)
                                       .straggler("client-2", 1, 30.0)))
    coordinator = DurableCoordinator(runtime.aggregator)
    rounds = [coordinator.run_round(vectors_for(4, r)) for r in range(2)]
    return coordinator_print(runtime, coordinator, rounds)


def runtime_durable_recovered():
    """Kill after record 2, recover from the image, finish both rounds."""
    runtime = make_runtime(3)
    coordinator = DurableCoordinator(runtime.aggregator)
    coordinator.kill_after_lsn = 2
    with pytest.raises(CoordinatorKilled):
        coordinator.run_round(vectors_for(3, 0))
    successor = DurableCoordinator(
        runtime.aggregator,
        wal=WriteAheadLog.from_bytes(coordinator.wal.image()))
    recovered_digest = successor.machine.digest()
    rounds = [successor.run_round(vectors_for(3, r), round_index=r)
              for r in range(2)]
    return coordinator_print(runtime, successor, rounds,
                             {"recovered_digest": recovered_digest,
                              "incarnation": successor.incarnation})


def runtime_durable_standby():
    """Kill at the commit record; the hot standby takes the round over."""
    runtime = make_runtime(3)
    clock = VirtualClock()
    lease = LeaseManager(timeout_seconds=30.0, clock=lambda: clock.now)
    lease.acquire("coordinator")
    coordinator = DurableCoordinator(runtime.aggregator,
                                     lease_manager=lease)
    coordinator.heartbeat(channel=runtime.channel)
    coordinator.kill_after_lsn = 5
    with pytest.raises(CoordinatorKilled):
        coordinator.run_round(vectors_for(3, 0))
    clock.advance(31.0)
    # Promoted as NodeSupervisor promotes a standby.
    wal = WriteAheadLog.from_bytes(coordinator.wal.image())
    successor = DurableCoordinator(
        runtime.aggregator, wal=wal, name="standby",
        incarnation=lease.acquire("standby").incarnation,
        lease_manager=lease)
    recovered_digest = successor.machine.digest()
    rounds = [successor.run_round(vectors_for(3, r), round_index=r)
              for r in range(2)]
    return coordinator_print(runtime, successor, rounds,
                             {"recovered_digest": recovered_digest,
                              "incarnation": successor.incarnation,
                              "name": successor.name})


def sharded_runtime_print(plan=None, rounds=2, num_clients=6, **kwargs):
    runtime = make_runtime(num_clients, fault_plan=plan, **kwargs)
    clock = VirtualClock()
    service = ShardedAggregationService(runtime.aggregator, clock=clock,
                                        seed=runtime.seed)
    weights = [service.run_round(vectors_for(num_clients, r),
                                 round_index=r) for r in range(rounds)]
    return {
        "nodes": node_prints(service_nodes(service)),
        "weights": weights_print(weights),
        "clock": clock.now,
        "failovers": [[f.node, f.lsn, f.incarnation, f.recovered_digest]
                      for f in service.failover_log],
        "ledger": ledger_print(runtime.ledger),
        "triggered": triggered(runtime),
        "stats": zlib.crc32(json.dumps(
            {shard: sorted(vars(stats).items()) for shard, stats
             in sorted(service.async_channel.stats.items())},
            default=str).encode("utf-8")),
    }


def runtime_tenancy(pool_kill=None):
    clock = VirtualClock()
    runtimes = {"tenant-a": make_runtime(3, seed=11),
                "tenant-b": make_runtime(4, seed=23)}
    registry = TenantRegistry([Tenant(tenant_id=tenant_id)
                               for tenant_id in runtimes])
    service = MultiTenantAggregationService(
        registry, clock=clock, queue_capacity=32, elastic=False)
    for tenant_id, runtime in runtimes.items():
        service.attach(tenant_id, runtime.aggregator, seed=11)
    service.pool.kill_after_lsn = pool_kill
    weights = []
    for round_index, target in enumerate((3, 1, 2)):
        service.rebalance(target, round_index)
        report = service.run_round(
            {tenant_id: vectors_for(runtime.num_clients, round_index)
             for tenant_id, runtime in runtimes.items()}, round_index)
        weights.extend(report.outcomes[tenant_id].result
                       for tenant_id in runtimes)
    data = tenancy_service_print(
        service, runtimes,
        {tenant_id: [runtime.ledger]
         for tenant_id, runtime in runtimes.items()}, clock)
    data["weights"] = weights_print(weights)
    return data


FEDERATION = {
    "runtime-durable": runtime_durable,
    "runtime-durable-recovered": runtime_durable_recovered,
    "runtime-durable-standby": runtime_durable_standby,
    "runtime-sharded": sharded_runtime_print,
    "runtime-sharded-interleave":
        lambda: sharded_runtime_print(packing_codec="interleave"),
    "runtime-sharded-leaf-kill": lambda: sharded_runtime_print(
        FaultPlan(seed=11).shard_crash("shard-1", 0, after_record=3)),
    "runtime-sharded-root-failover": lambda: sharded_runtime_print(
        FaultPlan(seed=11).failover(1, after_record=7, party="root")),
    "runtime-sharded-gate": lambda: sharded_runtime_print(
        GATE_PLAN.queue_overload("shard-1", 1), min_quorum=2,
        round_deadline_seconds=10.0),
    "runtime-tenancy": runtime_tenancy,
    "runtime-tenancy-pool-kill": lambda: runtime_tenancy(pool_kill=3),
}


def scenario_print(name):
    if name in SIMULATIONS:
        return simulation_print(SIMULATIONS[name])
    if name in TENANCIES:
        return tenancy_print(TENANCIES[name])
    return FEDERATION[name]()


SCENARIOS = sorted([*SIMULATIONS, *TENANCIES, *FEDERATION])

GOLDEN = {
    "durable": {
        "checksum": 904145964,
        "failovers": [],
        "final_time": 0.008819289091197433,
        "ledgers": [2362328453, 2362328453, 2362328453],
        "nodes": {"coordinator": [24, 3678397252, 2535598544]},
        "triggered": [],
    },
    "durable-crash": {
        "checksum": 904145964,
        "failovers": [["coordinator", 10, 1, 396201337]],
        "final_time": 0.008819289091197433,
        "ledgers": [2362328453, 1084151145, 2362328453],
        "nodes": {"coordinator": [24, 2227813336, 2706029230]},
        "triggered": [["coordinator_crash", "coordinator", 1]],
    },
    "durable-crash-at-close": {
        "checksum": 904145964,
        "failovers": [["coordinator", 7, 1, 2243163425]],
        "final_time": 0.008819289091197433,
        "ledgers": [1084151145, 2362328453, 2362328453],
        "nodes": {"coordinator": [24, 2227813336, 2706029230]},
        "triggered": [["coordinator_crash", "coordinator", 0]],
    },
    "durable-failover": {
        "checksum": 904145964,
        "failovers": [["coordinator", 3, 1, 3910647757]],
        "final_time": 30.008819289091193,
        "ledgers": [245227241, 2362328453, 2362328453],
        "nodes": {"coordinator": [24, 4288225702, 3427276074]},
        "triggered": [["failover", "coordinator", 0]],
    },
    "durable-gate": {
        "checksum": 1925839551,
        "failovers": [],
        "final_time": 43.169455281118594,
        "ledgers": [2328201023, 1852418365, 775146722],
        "nodes": {"coordinator": [26, 837136654, 499973705]},
        "triggered": [["dropout", "client-1", 0], ["deadline", "client-3",
            0], ["straggler", "client-2", 1], ["crash", "client-5", 1],
            ["crash", "client-5", 2]],
    },
    "plain": {
        "checksum": 904145964,
        "failovers": [],
        "final_time": 0.00794500337691172,
        "ledgers": [1021500100, 1021500100, 1021500100],
        "nodes": {},
        "triggered": [],
    },
    "plain-gate": {
        "checksum": 1925839551,
        "failovers": [],
        "final_time": 43.168580995404305,
        "ledgers": [3883672317, 1156086820, 2742604800],
        "nodes": {},
        "triggered": [["dropout", "client-1", 0], ["deadline", "client-3",
            0], ["straggler", "client-2", 1], ["crash", "client-5", 1],
            ["crash", "client-5", 2]],
    },
    "runtime-durable": {
        "ledger": 2999844436,
        "nodes": {"coordinator": [14, 2333800967, 3150700375]},
        "trail": 786146907,
        "triggered": [["straggler", "client-1", 0], ["deadline", "client-2",
            1], ["crash", "client-3", 1]],
        "weights": 2919714246,
    },
    "runtime-durable-recovered": {
        "incarnation": 1,
        "ledger": 2595044071,
        "nodes": {"coordinator": [14, 1550632707, 2151611835]},
        "recovered_digest": 3029713793,
        "trail": 3187833654,
        "triggered": [],
        "weights": 2081636579,
    },
    "runtime-durable-standby": {
        "incarnation": 1,
        "ledger": 804530070,
        "name": "standby",
        "nodes": {"coordinator": [14, 1550632707, 2151611835]},
        "recovered_digest": 4178562215,
        "trail": 3187833654,
        "triggered": [],
        "weights": 2081636579,
    },
    "runtime-sharded": {
        "clock": 1.2000000000000002e-05,
        "failovers": [],
        "ledger": 268351327,
        "nodes": {"root": [14, 2029072265, 551548984], "shard-0": [12,
            1234024212, 291221087], "shard-1": [12, 2034962417, 3907602567],
            "shard-2": [12, 3615206772, 1096275112]},
        "stats": 150381558,
        "triggered": [],
        "weights": 1010087874,
    },
    "runtime-sharded-gate": {
        "clock": 6.999999999999999e-06,
        "failovers": [],
        "ledger": 2100862459,
        "nodes": {"root": [13, 1796022842, 1923381633], "shard-0": [11,
            1130699069, 1844295519], "shard-1": [5, 3457095088, 261389691],
            "shard-2": [11, 4012075493, 1586354254]},
        "stats": 3175859980,
        "triggered": [["dropout", "client-1", 0], ["deadline", "client-3",
            0], ["straggler", "client-2", 1], ["queue_overload", "shard-1",
            1], ["crash", "client-5", 1]],
        "weights": 176925435,
    },
    "runtime-sharded-interleave": {
        "clock": 1.2000000000000002e-05,
        "failovers": [],
        "ledger": 952836645,
        "nodes": {"root": [14, 2006156167, 2051813014], "shard-0": [12,
            3735694512, 341980843], "shard-1": [12, 1632229155, 3529268621],
            "shard-2": [12, 7245684, 3364232567]},
        "stats": 150381558,
        "triggered": [],
        "weights": 1010087874,
    },
    "runtime-sharded-leaf-kill": {
        "clock": 30.000012000000005,
        "failovers": [["shard-1", 3, 1, 1834487739]],
        "ledger": 3192566869,
        "nodes": {"root": [14, 2029072265, 551548984], "shard-0": [12,
            1234024212, 291221087], "shard-1": [12, 2643898156, 3886273441],
            "shard-2": [12, 3615206772, 1096275112]},
        "stats": 150381558,
        "triggered": [["shard_crash", "shard-1", 0]],
        "weights": 1010087874,
    },
    "runtime-sharded-root-failover": {
        "clock": 30.000012,
        "failovers": [["root", 7, 1, 3729822314]],
        "ledger": 3376933905,
        "nodes": {"root": [14, 2674759112, 4143360762], "shard-0": [12,
            1234024212, 291221087], "shard-1": [12, 2034962417, 3907602567],
            "shard-2": [12, 3615206772, 1096275112]},
        "stats": 150381558,
        "triggered": [["failover", "root", 1]],
        "weights": 1010087874,
    },
    "runtime-tenancy": {
        "failovers": {"tenant-a": [], "tenant-b": []},
        "final_time": 2.1000000000000006e-05,
        "ledgers": {"tenant-a": [161028548], "tenant-b": [4294695915]},
        "nodes": {"tenant-a/root": [18, 601682204, 2062033599],
            "tenant-a/shard-2": [5, 2798795741, 1943930038],
            "tenant-a/shard-3": [5, 1886420659, 3351913685],
            "tenant-a/shard-4": [5, 3820476715, 1827744190],
            "tenant-a/shard-6": [7, 2680040661, 1706401907],
            "tenant-a/shard-7": [6, 3836501873, 3489097434],
            "tenant-a/shard-8": [5, 2269902410, 238257886], "tenant-b/root":
            [18, 2372805815, 2491983045], "tenant-b/shard-2": [5, 3773161039,
            3542394433], "tenant-b/shard-3": [6, 2105570932, 4204881267],
            "tenant-b/shard-4": [5, 2690220545, 2002151224],
            "tenant-b/shard-6": [8, 4174874437, 1968808129],
            "tenant-b/shard-7": [6, 2011962412, 2395284649],
            "tenant-b/shard-8": [6, 4270884939, 2244841724]},
        "platform_ledger": 223132457,
        "pool": [5, 388869528, 2433745248, 0],
        "triggered": {"tenant-a": [], "tenant-b": []},
        "weights": 3672982905,
    },
    "sharded": {
        "checksum": 3574509080,
        "failovers": [],
        "final_time": 0.016357666984808988,
        "ledgers": [1303513582, 1303513582, 1303513582],
        "nodes": {"root": [21, 1155996494, 2449090184], "shard-0": [18,
            3037909911, 3998647967], "shard-1": [18, 2261038173, 2203006142],
            "shard-2": [18, 1468858053, 1125438971]},
        "triggered": [],
    },
    "sharded-cohort": {
        "checksum": 554481120,
        "failovers": [],
        "final_time": 0.013167880953605136,
        "ledgers": [232362901, 232362901, 232362901],
        "nodes": {"root": [18, 2748556545, 681809721], "shard-0": [21,
            840684413, 1741199826], "shard-1": [18, 2741884007, 55905743]},
        "triggered": [],
    },
    "sharded-gate": {
        "checksum": 1925839551,
        "failovers": [],
        "final_time": 43.119226379974414,
        "ledgers": [1677215621, 3976246386, 2181434145],
        "nodes": {"root": [21, 3005294867, 2610010558], "shard-0": [17,
            3006143723, 3387223957], "shard-1": [17, 2231276723, 4214924687],
            "shard-2": [16, 4203684407, 824730241]},
        "triggered": [["dropout", "client-1", 0], ["deadline", "client-3",
            0], ["straggler", "client-2", 1], ["crash", "client-5", 1],
            ["crash", "client-5", 2]],
    },
    "sharded-leaf-kill": {
        "checksum": 3574509080,
        "failovers": [["shard-0", 9, 1, 3622855975]],
        "final_time": 30.016357666984817,
        "ledgers": [1303513582, 1604109491, 1303513582],
        "nodes": {"root": [21, 1155996494, 2449090184], "shard-0": [18,
            1332565677, 3708652754], "shard-1": [18, 2261038173, 2203006142],
            "shard-2": [18, 1468858053, 1125438971]},
        "triggered": [["shard_crash", "shard-0", 1]],
    },
    "sharded-leaf-racing-root": {
        "checksum": 3574509080,
        "failovers": [["shard-1", 2, 1, 732825548], ["root", 1, 1,
            668929891]],
        "final_time": 30.01635766698482,
        "ledgers": [4127660172, 1303513582, 1303513582],
        "nodes": {"root": [21, 1690060021, 2004059980], "shard-0": [18,
            3037909911, 3998647967], "shard-1": [18, 555718093,
            1642094886], "shard-2": [18, 1468858053, 1125438971]},
        "triggered": [["shard_crash", "shard-1", 0], ["failover", "root",
            0]],
    },
    "sharded-root-failover": {
        "checksum": 3574509080,
        "failovers": [["root", 8, 1, 2243624356]],
        "final_time": 30.016357666984817,
        "ledgers": [1303513582, 4235503799, 1303513582],
        "nodes": {"root": [21, 561783688, 3500028136], "shard-0": [18,
            3037909911, 3998647967], "shard-1": [18, 2261038173, 2203006142],
            "shard-2": [18, 1468858053, 1125438971]},
        "triggered": [["failover", "root", 1]],
    },
    "tenancy": {
        "checksum": 1581309248,
        "failovers": {"tenant-a": [], "tenant-b": []},
        "final_time": 0.009419236883428576,
        "ledgers": {"tenant-a": [1886333272, 2569419306, 2040430928],
            "tenant-b": [1662969393, 2221999410, 1794068025]},
        "nodes": {"tenant-a/root": [18, 1060604414, 3631729261],
            "tenant-a/shard-2": [5, 174536636, 1633374738],
            "tenant-a/shard-3": [6, 1022267368, 518198635],
            "tenant-a/shard-4": [5, 528535500, 564362829],
            "tenant-a/shard-6": [8, 2191586314, 385541138],
            "tenant-a/shard-7": [6, 2120489747, 3711681308],
            "tenant-a/shard-8": [6, 4245589463, 215142018], "tenant-b/root":
            [18, 3830755644, 2346855920], "tenant-b/shard-2": [5,
            3291690097, 1585182601], "tenant-b/shard-3": [6, 2807873112,
            4210860293], "tenant-b/shard-4": [5, 257741142, 1794633029],
            "tenant-b/shard-6": [8, 1874591445, 4228584518],
            "tenant-b/shard-7": [6, 2165833685, 2261906454],
            "tenant-b/shard-8": [6, 190479385, 3095782940]},
        "platform_ledger": 223132457,
        "pool": [5, 388869528, 2433745248, 0],
        "statuses": {"tenant-a": ["ok", "ok", "ok"], "tenant-b": ["ok",
            "ok", "ok"]},
        "triggered": {"tenant-a": [], "tenant-b": []},
    },
    "tenancy-noisy": {
        "checksum": 722262437,
        "failovers": {"tenant-a": [], "tenant-b": []},
        "final_time": 0.011524403444455858,
        "ledgers": {"tenant-a": [3922419983, 4082205199, 2015167136],
            "tenant-b": [2238892451, 2238892451, 2238892451]},
        "nodes": {"tenant-a/root": [13, 2373468396, 1033038239],
            "tenant-a/shard-2": [5, 4275441293, 4148938785],
            "tenant-a/shard-3": [10, 3730013844, 3095764261],
            "tenant-a/shard-4": [10, 3242103187, 2598744192],
            "tenant-b/root": [21, 2153909650, 204538018],
            "tenant-b/shard-2": [15, 591875306, 1764194323],
            "tenant-b/shard-3": [18, 873436660, 2759357186],
            "tenant-b/shard-4": [15, 460636507, 414532591]},
        "platform_ledger": 223132457,
        "pool": [2, 1810196156, 808249340, 0],
        "statuses": {"tenant-a": ["ok", "ok", "crashed"], "tenant-b": ["ok",
            "ok", "ok"]},
        "triggered": {"tenant-a": [["tenant_flood", "tenant-a", 1],
            ["tenant_crash", "tenant-a", 2]], "tenant-b": []},
    },
}

# A pool killed mid-handoff and recovered moves nothing but its own
# journal image (the heir's incarnation) and the platform's failover
# charge: every tenant node's WAL is byte-identical to the clean run's.
GOLDEN["tenancy-pool-kill"] = {
    **GOLDEN["tenancy"],
    "platform_ledger": 122954199,
    "pool": [5, 2163760315, 2433745248, 1],
}
GOLDEN["runtime-tenancy-pool-kill"] = {
    **GOLDEN["runtime-tenancy"],
    "platform_ledger": 122954199,
    "pool": [5, 1721135234, 2433745248, 1],
}


#: The literals that moved when the key holder's obfuscator of a draw
#: ``r`` became ``sigma(r)^n`` (Teichmuller lifts of ``r mod p`` and
#: ``r mod q``, :meth:`repro.crypto.keys.PaillierPrivateKey.obfuscators`)
#: instead of ``r^n``.  Ciphertext bytes moved, so every node journal's
#: CRC and state digest, each failover's recovered digest and the
#: ``runtime-durable*`` trails moved; record counts, checksums (the
#: decrypted results), ``final_time``, ledgers, the pool's topology
#: journal and the injector's ``triggered`` sequences did not.
MOVED = {
    "durable": {
        "nodes": {"coordinator": [24, 956691102, 3576089310]},
    },
    "durable-crash": {
        "failovers": [["coordinator", 10, 1, 2808584874]],
        "nodes": {"coordinator": [24, 4243304910, 224541454]},
    },
    "durable-crash-at-close": {
        "failovers": [["coordinator", 7, 1, 2056258440]],
        "nodes": {"coordinator": [24, 4243304910, 224541454]},
    },
    "durable-failover": {
        "failovers": [["coordinator", 3, 1, 1443966947]],
        "nodes": {"coordinator": [24, 2447456071, 3537187457]},
    },
    "durable-gate": {
        "nodes": {"coordinator": [26, 827850777, 2673072832]},
    },
    "runtime-durable": {
        "nodes": {"coordinator": [14, 3066664756, 2461591832]},
        "trail": 1933349839,
    },
    "runtime-durable-recovered": {
        "nodes": {"coordinator": [14, 566080452, 2598321895]},
        "recovered_digest": 3795170541,
        "trail": 3171002953,
    },
    "runtime-durable-standby": {
        "nodes": {"coordinator": [14, 566080452, 2598321895]},
        "recovered_digest": 2212457992,
        "trail": 3171002953,
    },
    "runtime-sharded": {
        "nodes": {"root": [14, 110064068, 2048828027], "shard-0": [12,
            3196020877, 397573038], "shard-1": [12, 703901440, 994894254],
            "shard-2": [12, 2137933631, 4056744214]},
    },
    "runtime-sharded-gate": {
        "nodes": {"root": [13, 144424734, 2337863024], "shard-0": [11,
            2355062232, 3966950822], "shard-1": [5, 478417496, 653827262],
            "shard-2": [11, 2789171137, 927278018]},
    },
    "runtime-sharded-interleave": {
        "nodes": {"root": [14, 2707074438, 2713067743], "shard-0": [12,
            3218155969, 4107938796], "shard-1": [12, 2571991799,
            2341969749], "shard-2": [12, 1480830529, 2048935082]},
    },
    "runtime-sharded-leaf-kill": {
        "failovers": [["shard-1", 3, 1, 1786344544]],
        "nodes": {"root": [14, 110064068, 2048828027], "shard-0": [12,
            3196020877, 397573038], "shard-1": [12, 2457114154, 2732148637],
            "shard-2": [12, 2137933631, 4056744214]},
    },
    "runtime-sharded-root-failover": {
        "failovers": [["root", 7, 1, 2179957134]],
        "nodes": {"root": [14, 3776170885, 331241662], "shard-0": [12,
            3196020877, 397573038], "shard-1": [12, 703901440, 994894254],
            "shard-2": [12, 2137933631, 4056744214]},
    },
    "runtime-tenancy": {
        "nodes": {"tenant-a/root": [18, 2132969248, 4252475263],
            "tenant-a/shard-2": [5, 3787665069, 4271722400],
            "tenant-a/shard-3": [5, 3602996106, 1849830295],
            "tenant-a/shard-4": [5, 134166999, 1767446577],
            "tenant-a/shard-6": [7, 1570000936, 2591900392],
            "tenant-a/shard-7": [6, 2229387578, 1598096942],
            "tenant-a/shard-8": [5, 724934233, 3418774374], "tenant-b/root":
            [18, 3416138130, 1368056049], "tenant-b/shard-2": [5,
            2514795981, 2123175264], "tenant-b/shard-3": [6, 2144514920,
            4034857013], "tenant-b/shard-4": [5, 2187629190, 2364132513],
            "tenant-b/shard-6": [8, 223218889, 3681730904],
            "tenant-b/shard-7": [6, 1781989203, 2551762981],
            "tenant-b/shard-8": [6, 242776618, 1444442913]},
    },
    "sharded": {
        "nodes": {"root": [21, 1600533505, 3125556807], "shard-0": [18,
            2675912119, 2102896015], "shard-1": [18, 440575642, 2733126725],
            "shard-2": [18, 3699762124, 2907195314]},
    },
    "sharded-cohort": {
        "nodes": {"root": [18, 3612462813, 2692320327], "shard-0": [21,
            1474080795, 2604765542], "shard-1": [18, 3910038214,
            714156447]},
    },
    "sharded-gate": {
        "nodes": {"root": [21, 3145316754, 3848783349], "shard-0": [17,
            484916155, 4046212939], "shard-1": [17, 2241099325, 3285975975],
            "shard-2": [16, 4163184139, 292051664]},
    },
    "sharded-leaf-kill": {
        "failovers": [["shard-0", 9, 1, 4098137218]],
        "nodes": {"root": [21, 1600533505, 3125556807], "shard-0": [18,
            1572411007, 3188783752], "shard-1": [18, 440575642, 2733126725],
            "shard-2": [18, 3699762124, 2907195314]},
    },
    "sharded-leaf-racing-root": {
        "failovers": [["shard-1", 2, 1, 782190702], ["root", 1, 1,
            4215319081]],
        "nodes": {"root": [21, 908070432, 2669252734], "shard-0": [18,
            2675912119, 2102896015], "shard-1": [18, 3938493633, 953832371],
            "shard-2": [18, 3699762124, 2907195314]},
    },
    "sharded-root-failover": {
        "failovers": [["root", 8, 1, 1028840590]],
        "nodes": {"root": [21, 690231129, 2256597598], "shard-0": [18,
            2675912119, 2102896015], "shard-1": [18, 440575642, 2733126725],
            "shard-2": [18, 3699762124, 2907195314]},
    },
    "tenancy": {
        "nodes": {"tenant-a/root": [18, 327019553, 391310543],
            "tenant-a/shard-2": [5, 1364944828, 774868330],
            "tenant-a/shard-3": [6, 1382867861, 1457432697],
            "tenant-a/shard-4": [5, 2968646568, 617496621],
            "tenant-a/shard-6": [8, 3402377158, 2865098074],
            "tenant-a/shard-7": [6, 2333589242, 180716451],
            "tenant-a/shard-8": [6, 664037452, 2730708451], "tenant-b/root":
            [18, 1416959563, 72515152], "tenant-b/shard-2": [5, 437829030,
            2477545282], "tenant-b/shard-3": [6, 1130422006, 486558193],
            "tenant-b/shard-4": [5, 374236355, 922033033],
            "tenant-b/shard-6": [8, 1711150748, 1890327200],
            "tenant-b/shard-7": [6, 1394078341, 1083399274],
            "tenant-b/shard-8": [6, 1544764242, 1377747466]},
    },
    "tenancy-noisy": {
        "nodes": {"tenant-a/root": [13, 196337657, 1477115854],
            "tenant-a/shard-2": [5, 1491860060, 1497056268],
            "tenant-a/shard-3": [10, 577104545, 4020506757],
            "tenant-a/shard-4": [10, 632931986, 2857671655],
            "tenant-b/root": [21, 2121317902, 1126514171],
            "tenant-b/shard-2": [15, 3011486069, 3871246319],
            "tenant-b/shard-3": [18, 3726198641, 565473776],
            "tenant-b/shard-4": [15, 2496433367, 2673020444]},
    },
}

# A pool kill moves no tenant node's journal (see GOLDEN above).
MOVED["tenancy-pool-kill"] = MOVED["tenancy"]
MOVED["runtime-tenancy-pool-kill"] = MOVED["runtime-tenancy"]

#: What this code journals: :data:`GOLDEN` with :data:`MOVED` applied.
LIFTED = {name: {**golden, **MOVED.get(name, {})}
          for name, golden in GOLDEN.items()}


#: ``durable-failover.final_time`` as captured up to commit ``9bb9484``,
#: when the flat coordinator's failover waited out the lease plus a
#: fixed 1.0 s grace; the tree's rule it now shares waits out the lease
#: alone.  Nothing else in any golden moved with it.
PRE_SUPERVISOR_FAILOVER_FINAL_TIME = 31.008819289091193
LEASE_GRACE_SECONDS = 1.0


def test_flat_failover_final_time_maps_from_the_lease_grace_era():
    """Old literal minus one grace per standby promotion is the new one,
    exactly."""
    golden = GOLDEN["durable-failover"]
    promotions = sum(kind == "failover" for kind, _, _ in golden["triggered"])
    assert promotions == 1
    assert (PRE_SUPERVISOR_FAILOVER_FINAL_TIME
            - LEASE_GRACE_SECONDS * promotions) == golden["final_time"]


#: Every scenario's node journals (and ``runtime-durable*`` trails) as
#: captured at commit ``7ea0927``, before round nodes compacted.
PRE_CHECKPOINT = json.loads(zlib.decompress(
    (Path(__file__).parent / "journal_images_pre_checkpoint.zlib")
    .read_bytes()))


def compacted(image):
    """A pre-checkpoint journal as this code leaves it: every record
    before the last ``round_open`` replaced by the checkpoint a live node
    writes there.  Returns the compacted log."""
    log = WriteAheadLog.from_bytes(image)
    records = log.records
    opens = [lsn for lsn, record in enumerate(records)
             if record.kind == ROUND_OPEN]
    if opens[-1] > 0:
        machine = RoundStateMachine()
        for record in records[:opens[-1]]:
            machine.apply(record)
        log.compact(machine.checkpoint(opens[-1], records[opens[-1]]))
    return log


@pytest.mark.parametrize("name", SCENARIOS)
def test_new_literals_are_the_old_journals_compacted(name):
    """Rule (b): every moved literal is its old journal, compacted."""
    old = PRE_CHECKPOINT[name]
    nodes = GOLDEN[name]["nodes"]
    assert sorted(old.get("images", {})) == sorted(nodes)
    for node, image in old.get("images", {}).items():
        log = compacted(bytes.fromhex(image))
        assert zlib.crc32(log.image()) == nodes[node][1], node
        assert len(log) == nodes[node][0], node
    if "trail" in GOLDEN[name]:
        (image,) = old["images"].values()
        first = compacted(bytes.fromhex(image)).first_lsn
        assert first > 0
        assert zlib.crc32(json.dumps(old["trail"][first:]).encode(
            "utf-8")) == GOLDEN[name]["trail"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_pre_checkpoint_journal_still_replays(name):
    """A journal written before compaction existed -- no checkpoint,
    every round in it -- opens under this code on the same record count
    and state digest the live node reports."""
    for node, image in PRE_CHECKPOINT[name].get("images", {}).items():
        log = WriteAheadLog.from_bytes(bytes.fromhex(image))
        assert log.checkpoint is None and log.first_lsn == 0
        machine = RoundStateMachine()
        for record in log.records:
            machine.apply(record)
        length, _crc, digest = GOLDEN[name]["nodes"][node]
        assert (len(log), machine.digest()) == (length, digest), node


@pytest.mark.parametrize("name", SCENARIOS)
def test_journal_matches_golden(name):
    # Through JSON so tuples and int keys compare as the literal holds them.
    actual = json.loads(json.dumps(scenario_print(name)))
    assert actual == LIFTED[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_textbook_obfuscators_reproduce_the_parent_literals(name,
                                                           monkeypatch):
    """Rule (b): the key holder's obfuscator is the only change.  Routed
    back to the textbook ``r^n`` of the public key, every scenario
    journals :data:`GOLDEN`, the literals captured before it."""
    monkeypatch.setattr(
        PaillierPrivateKey, "obfuscators",
        lambda self, randomizers: self.public_key.obfuscators(randomizers))
    actual = json.loads(json.dumps(scenario_print(name)))
    assert actual == GOLDEN[name]


def test_issue_headline_values():
    """The figures the refactor's issue quotes, spelled out."""
    durable = GOLDEN["durable"]
    assert durable["checksum"] == 904145964
    assert durable["nodes"]["coordinator"][1] == 3678397252
    assert durable["final_time"] == 0.008819289091197433
    sharded = GOLDEN["sharded"]
    assert sharded["checksum"] == 3574509080
    assert sharded["nodes"]["root"][1] == 1155996494
    killed = GOLDEN["sharded-leaf-kill"]
    assert killed["failovers"] == [["shard-0", 9, 1, 3622855975]]
    assert killed["final_time"] == 30.016357666984817
    tenancy = GOLDEN["tenancy"]
    assert tenancy["checksum"] == 1581309248
    assert tenancy["pool"][2] == 2433745248


if __name__ == "__main__":
    # Capture mode: prints, as a MOVED table, every literal the
    # checked-out code journals that differs from GOLDEN.  GOLDEN stays
    # the textbook-obfuscator capture that the pre-checkpoint and
    # textbook tests replay; what moves on purpose goes in MOVED.
    import textwrap

    print("# The checked-out code's literals that differ from GOLDEN.")
    print("MOVED = {")
    for scenario in SCENARIOS:
        fresh = json.loads(json.dumps(scenario_print(scenario)))
        moved = {key: value for key, value in sorted(fresh.items())
                 if value != GOLDEN[scenario].get(key)}
        if not moved:
            continue
        print(f'    "{scenario}": {{')
        for key, value in moved.items():
            print(textwrap.fill(
                f'"{key}": {json.dumps(value)},', width=76,
                initial_indent=" " * 8, subsequent_indent=" " * 12,
                break_long_words=False, break_on_hyphens=False))
        print("    },")
    print("}")
