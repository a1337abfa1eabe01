"""Exact work counts on the warm paths the e2e benchmark times.

Each test reads what a real 1024-bit round did from the work counters
(:mod:`repro.counters`) or from state that already holds the number: a
device's launches, a ledger's operation counts, a journal's records.  A
regression here would still compute the right answer and would show in
a round time only as noise, so the count is the assertion.  (CI's
``bench-e2e-smoke`` job runs this file on a runner where the native
library is known to bind.)
"""

import dataclasses

import numpy as np
import pytest

from repro.counters import (
    CHECKPOINTS, CODEC_LOOKUPS, CONVERSIONS, DIGESTS, FRAMES_DECODED,
    JOURNAL_PARSES, LAUNCH_PRICES, METAS_BUILT, MONTGOMERY_CONTEXTS,
    OBFUSCATORS, OVERFLOW_BITS, POWER_PAIRS, POWMODS, RECORDS_REPLAYED,
    RESIDENT_PRODUCTS, STANDBYS_BUILT, WORDS_ENTERED, WORKER_SUBMISSIONS,
    counted)
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.keys import generate_paillier_keypair
from repro.datasets.generators import synthetic_like
from repro.federation.coordinator import (
    CoordinatorKilled,
    DurableCoordinator,
    LeaseManager,
    NodeSupervisor,
)
from repro.federation.eventloop import LEASE_TIMEOUT_SECONDS, VirtualClock
from repro.federation.faults import COORDINATOR_CRASH, FAILOVER, FaultPlan
from repro.federation.runtime import (
    FLBOOSTER_SYSTEM,
    WITHOUT_BC,
    FederationRuntime,
    cached_keypair,
)
from repro.federation.shard import (
    MultiTenantAggregationService,
    ShardedAggregationService,
)
from repro.federation.tenancy import Tenant, TenantRegistry
from repro.federation.wal import ROUND_CLOSE, UPLOAD_ACCEPTED, WriteAheadLog
from repro.gpu.kernels import GpuKernels
from repro.ledger import CAT_HE_DECRYPT
from repro.models.homo_lr import HomoLogisticRegression
from repro.mpint import native
from repro.mpint.primes import LimbRandom
from repro.testing.simulator import (
    FederationSimulator,
    FederationSpec,
    SimulationSpec,
)


@pytest.mark.skipif(not native.HAVE_NATIVE,
                    reason="residency needs the native library")
def test_a_1024_word_sum_stays_resident_at_every_level():
    """A reduction that silently left the library would still sum
    correctly, 3-4x slower."""
    engine = GpuPaillierEngine(cached_keypair(1024, seed=1),
                               randomizer_pool_size=8)
    words = engine.encrypt_batch(list(range(1024)))
    launches = engine.kernels.device.launches
    with counted() as added:
        total = engine.sum_ciphertexts(words)
    # One launch per level, and every level multiplied in the library.
    assert added[RESIDENT_PRODUCTS] == \
        engine.kernels.device.launches - launches == 10
    assert engine.decrypt_batch([total]) == [1023 * 512]


@pytest.mark.skipif(not native.HAVE_NATIVE,
                    reason="library powers need the native library")
def test_a_fresh_key_holder_encrypt_takes_two_library_powers_a_word():
    """One Teichmuller lift per prime, ``a^p mod p^2`` and ``b^q mod
    q^2``; the textbook ``r^n`` by the same lifts took four."""
    engine = GpuPaillierEngine(cached_keypair(1024, seed=1),
                               randomizer_pool_size=0)
    with counted() as added:
        engine.encrypt_batch(list(range(63)))
    assert added[OBFUSCATORS] == 63
    assert added[POWMODS] == 126


@pytest.mark.skipif(not native.HAVE_NATIVE,
                    reason="library powers need the native library")
def test_a_warm_agg_fresh_round_builds_no_montgomery_context():
    """``agg_fresh_1024``'s shape: every modulus a round raises powers
    under -- ``p^2`` and ``q^2``, for the lifts and the CRT decrypt --
    has the context the private key holds."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=2,
                                key_bits=1024, physical_key_bits=1024,
                                seed=7, randomizer_pool_size=0,
                                he_backend="auto")
    rng = np.random.default_rng(7)

    def one_round():
        runtime.begin_epoch()
        runtime.aggregator.aggregate([rng.uniform(-1.0, 1.0, 2048)
                                      for _ in range(2)])

    one_round()
    with counted() as added:
        one_round()
    # 2 x 63 words: two powers per obfuscator, two per decryption of
    # the 63-word sum.
    assert added[POWMODS] == 2 * 126 + 2 * 63
    assert added[MONTGOMERY_CONTEXTS] == 0


@pytest.mark.skipif(not native.HAVE_NATIVE,
                    reason="residency needs the native library")
def test_a_warm_cipher_hist_round_converts_no_word():
    """``cipher_hist_1024``'s shape: bins of permuted views of one
    encrypted tensor.  The first round enters the source's words into
    the library once; a warm round reduces every bin from the handles
    the source kept, converting nothing."""
    runtime = FederationRuntime(WITHOUT_BC, num_clients=128, key_bits=1024,
                                physical_key_bits=1024, seed=7,
                                he_backend="auto")
    aggregator = runtime.aggregator
    encrypted = aggregator.encrypt_tensor(np.linspace(-0.9, 0.9, 1024))
    rng = np.random.default_rng(7)
    views = [encrypted.with_words([encrypted.words[i]
                                   for i in rng.permutation(1024)])
             for _ in range(2)]

    def one_round():
        return [aggregator.decrypt_tensor(aggregator.send_tensor(
            view[start:start + 128].sum().materialize(
                engine=runtime.server_engine),
            sender="host", receiver="guest", tag="histogram"))[0]
            for view in views for start in range(0, 1024, 128)]

    with counted() as cold:
        first = one_round()
    # The source's words in one conversion, then at most the one
    # one-word R^(d+1) fixup.
    assert (cold[CONVERSIONS], cold[WORDS_ENTERED]) in {(1, 1024),
                                                        (2, 1025)}
    with counted() as warm:
        assert one_round() == first
    assert warm[CONVERSIONS] == warm[WORDS_ENTERED] == 0


def test_a_warm_upload_encodes_without_rederiving_its_geometry():
    """Slot widths, masks and shifts are fixed when the scheme and the
    codec are built; a log2 back on the encode path is what this
    catches."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=128,
                                key_bits=1024)
    upload = np.linspace(-0.9, 0.9, 64)
    runtime.aggregator.encrypt_tensor(upload)   # first of its layout
    with counted() as added:
        runtime.aggregator.encrypt_tensor(upload)
    assert added[OVERFLOW_BITS] == 0


def test_a_warm_uploads_word_count_builds_no_codec():
    """A meta derives its codec and word count when it is built, so
    reading them along the upload path -- the message's ciphertext
    count, the tensor's own -- looks nothing up."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=128,
                                key_bits=1024)
    tensor = runtime.aggregator.encrypt_tensor(np.linspace(-0.9, 0.9, 64))
    with counted() as added:
        runtime.aggregator.send_tensor(tensor, sender="client-0",
                                       receiver="server",
                                       tag="upload.gradients")
    assert tensor.num_words == tensor.meta.num_words == 3
    assert added[CODEC_LOOKUPS] == 0


def test_a_repeated_launch_shape_is_priced_once():
    """Every launch is still recorded; only its geometry and modelled
    seconds are looked up once a shape has been priced.  The prices are
    memoized by shape, so the first pass prices each distinct shape of
    its launches once, and the identical passes after it price none."""
    engine = GpuPaillierEngine(cached_keypair(1024, seed=1),
                               randomizer_pool_size=8)
    priced = []
    for _ in range(3):
        with counted() as added:
            words = engine.encrypt_batch([1, 2, 3])
            engine.add_batch(words, words)
        priced.append(added[LAUNCH_PRICES])
    assert engine.kernels.device.launches == 12
    assert priced == [2, 0, 0]


def test_a_warm_upload_builds_no_tensor_meta():
    """A layout's plaintext meta is built once per (codec, shape) and its
    encrypted meta once per plaintext meta, so a warm upload's encode
    and encrypt share the first upload's metas."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=128,
                                key_bits=1024)
    upload = np.linspace(-0.9, 0.9, 64)
    first = runtime.aggregator.encrypt_tensor(upload)
    with counted() as added:
        warm = runtime.aggregator.encrypt_tensor(-upload)
    assert added[METAS_BUILT] == 0
    assert warm.meta is first.meta


def test_repeated_launches_of_one_shape_build_one_record():
    """Every launch is counted, but one shape is one memoized price:
    five launches of it price it once."""
    kernels = GpuKernels()
    with counted() as added:
        seconds = {kernels.charge_mod_mul(tasks=64, modulus_bits=2048)
                   for _ in range(5)}
    assert added[LAUNCH_PRICES] == 1 and len(seconds) == 1
    assert kernels.device.launches == 5


# The worker splits the CRT halves of a decrypt batch (one submission a
# batch) and of a key holder's obfuscation batch; at a 2048-bit key even
# a one-word batch is over the crossover, so there every decrypt batch
# splits.  A decrypt_tensor is one decrypt batch.
needs_two_cores = pytest.mark.skipif(
    not native.HAVE_NATIVE or native._cpus() < 2,
    reason="the CRT split needs the native library and two CPUs")


@needs_two_cores
def test_a_2048_bit_homo_lr_epoch_splits_each_decrypt_batch_once():
    """``homo_lr_pooled_2048``'s shape: each 16-word decrypt puts its
    p-half on the worker, and the warm epoch obfuscates nothing."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                key_bits=2048, physical_key_bits=2048,
                                seed=7, he_backend="auto")
    model = HomoLogisticRegression(synthetic_like(256, 1024, seed=7),
                                   num_clients=4, rounds_per_epoch=1,
                                   seed=7)
    runtime.begin_epoch()
    model.run_epoch(runtime)            # set-up: fills the pools
    ledger = runtime.begin_epoch()
    with counted() as added:
        model.run_epoch(runtime)
    assert ledger.count(CAT_HE_DECRYPT) == 16
    assert (added[WORKER_SUBMISSIONS], added[OBFUSCATORS]) == (1, 0)


@needs_two_cores
@pytest.mark.skipif(getattr(native._lib, native._PAIR, None) is None,
                    reason="the bound library has no pair power")
def test_a_2048_bit_key_pairs_its_powers_and_speculates_a_short_tail():
    """``homo_lr_pooled_2048``'s key: the serial search's 335 powers
    (209 first witnesses, 63 more for each prime), plus the 7 first
    witnesses drawn past each prime's in its batch of twelve; all but
    two of them ran two to a library call, in 18 speculative batches
    and 2 confirmations split over the worker."""
    with counted() as added:
        generate_paillier_keypair(2048, LimbRandom(seed=7))
    assert added[POWMODS] == 335 + 7
    assert added[POWER_PAIRS] == 170
    assert added[WORKER_SUBMISSIONS] == 18 + 2


@needs_two_cores
def test_a_cipher_hist_round_splits_nothing():
    """``cipher_hist_1024``'s shape: one-word bins decrypt under the
    crossover, where waking the worker would cost more than it saves."""
    runtime = FederationRuntime(WITHOUT_BC, num_clients=128, key_bits=1024,
                                physical_key_bits=1024, seed=7,
                                he_backend="auto")
    encrypted = runtime.aggregator.encrypt_tensor(
        np.linspace(-0.9, 0.9, 1024))
    with counted() as added:
        for start in range(0, 1024, 128):
            bin_sum = encrypted[start:start + 128].sum()
            runtime.aggregator.decrypt_tensor(
                runtime.aggregator.send_tensor(
                    bin_sum.materialize(engine=runtime.server_engine),
                    sender="host", receiver="guest", tag="histogram"))
    assert runtime.ledger.count(CAT_HE_DECRYPT) == 8
    assert added[WORKER_SUBMISSIONS] == 0


@needs_two_cores
def test_a_tenant_fanin_round_splits_nothing():
    """``tenant_fanin_2x128``'s shape: each tenant's 3-word root decrypt
    sits under the crossover; only set-up's pool fills split."""
    tenants = (("tenant-a", 1.0), ("tenant-b", 2.0))
    runtimes = {tenant_id: FederationRuntime(
        FLBOOSTER_SYSTEM, num_clients=128, key_bits=1024,
        physical_key_bits=1024, seed=7 + 10 * offset, he_backend="auto")
        for offset, (tenant_id, _) in enumerate(tenants)}
    service = MultiTenantAggregationService(
        TenantRegistry([Tenant(tenant_id, weight=weight, quota_rate=1.0e6,
                               quota_burst=256)
                        for tenant_id, weight in tenants]),
        clock=VirtualClock(), queue_capacity=64, elastic=True)
    for tenant_id, runtime in runtimes.items():
        service.attach(tenant_id, runtime.aggregator)
    rng = np.random.default_rng(7)
    for round_index in range(2):       # round 0 is set-up
        decrypted = [runtime.ledger.count(CAT_HE_DECRYPT)
                     for runtime in runtimes.values()]
        vectors = {tenant_id: [rng.uniform(-1.0, 1.0, 64)
                               for _ in range(128)]
                   for tenant_id in runtimes}
        with counted() as added:
            report = service.run_round(vectors, round_index)
        assert {o.status for o in report.outcomes.values()} == {"ok"}
    assert [runtime.ledger.count(CAT_HE_DECRYPT) - before
            for runtime, before in zip(runtimes.values(), decrypted)] == \
        [3, 3]
    assert added[WORKER_SUBMISSIONS] == 0


SHARDED = SimulationSpec(rounds=2, topology="sharded",
                         federations=(FederationSpec(num_clients=6),))


def simulate(spec):
    """Run ``spec``: the simulator, its result and the counts it added."""
    simulator = FederationSimulator(spec)
    with counted() as added:
        result = simulator.run()
    return simulator, result, added


def test_a_fault_free_sharded_run_decodes_no_journaled_frame():
    """Each node sums the uploads it accepted and the partial it
    committed; nothing reads a frame back while its writer lives."""
    _, _, added = simulate(SHARDED)
    assert added[FRAMES_DECODED] == 0


def test_a_leaf_takeover_decodes_each_dead_leafs_upload_once():
    """The successor decodes what only the log holds -- the upload the
    dead leaf journaled -- once, and holds what it accepts itself."""
    plan = FaultPlan(seed=7).shard_crash("shard-1", 0, after_record=1)
    simulator, result, added = simulate(dataclasses.replace(
        SHARDED.replace_federation(fault_plan=plan), rounds=1))
    assert [(f.node, f.lsn) for f in result.failovers] == [("shard-1", 1)]
    journaled = [record for record in simulator.nodes()["shard-1"].wal.records
                 if record.kind == UPLOAD_ACCEPTED]
    # The dead leaf (incarnation 0) journaled the first, the successor
    # accepted the second; the one decode is the frame only the log held.
    assert [record.incarnation for record in journaled] == [0, 1]
    assert added[FRAMES_DECODED] == 1


def test_a_warm_journaled_round_digests_only_at_round_close():
    """The per-record digest trail is the crash sweep's witness and is
    read off the journal on demand; a digest back on the append path
    re-serialises the whole open round for every record."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=8,
                                key_bits=1024)
    service = ShardedAggregationService(runtime.aggregator,
                                        seed=runtime.seed)
    uploads = [np.linspace(-0.9, 0.9, 64) * (i + 1) / 8 for i in range(8)]
    service.run_round(uploads, round_index=0)   # builds the nodes
    with counted() as added:
        service.run_round(uploads, round_index=1)
    closes = sum(record.kind == ROUND_CLOSE and record.round_index == 1
                 for node in (*service.leaves.values(), service.root)
                 for record in node.wal.records)
    assert added[DIGESTS] == closes > 0


def test_a_fault_free_sharded_run_builds_no_standby_and_parses_nothing():
    """A tree node's standby exists from its primary's death; nothing
    re-reads a journal nobody lost."""
    simulator, _, added = simulate(SHARDED)
    assert len(simulator.nodes()) == 4
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (0, 0)


def test_a_fault_free_six_round_run_checkpoints_once_per_node_and_round():
    """Compaction rides on the ``round_open`` a node appends anyway: one
    checkpoint per node per round after the first, and still no journal
    parsed and no standby built."""
    simulator, _, added = simulate(dataclasses.replace(SHARDED, rounds=6))
    nodes = simulator.nodes().values()
    assert len(nodes) == 4
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (0, 0)
    assert added[CHECKPOINTS] == 5 * 4
    assert {node.wal.checkpoint.round_index for node in nodes} == {5}


def test_a_shard_crash_parses_the_dead_leafs_image_once():
    """One parse per takeover and one standby per death, named as the
    eagerly built ones were."""
    plan = (FaultPlan(seed=7)
            .shard_crash("shard-1", 0, after_record=2)
            .shard_crash("shard-1", 1, after_record=8))
    simulator, result, added = simulate(
        SHARDED.replace_federation(fault_plan=plan))
    assert [(f.node, f.lsn, f.incarnation) for f in result.failovers] == \
        [("shard-1", 2, 1), ("shard-1", 8, 2)]
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (2, 2)
    assert simulator.nodes()["shard-1"].name == "shard-1-standby-1"


def test_a_takeover_replays_each_journaled_record_once():
    """The successor's replay of the dead primary's log is the only one:
    no second coordinator or machine is fed the same records to compare
    digests."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=3,
                                key_bits=1024)
    clock = VirtualClock()
    lease = LeaseManager(LEASE_TIMEOUT_SECONDS, clock=lambda: clock.now)
    lease.acquire("coordinator")
    primary = DurableCoordinator(runtime.aggregator, lease_manager=lease)
    primary.kill_after_lsn = 3
    with pytest.raises(CoordinatorKilled):
        primary.run_round([np.linspace(-0.9, 0.9, 64)] * 3)
    clock.advance(LEASE_TIMEOUT_SECONDS)
    with counted() as added:
        wal = WriteAheadLog.from_bytes(primary.wal.image())
        successor = DurableCoordinator(
            runtime.aggregator, wal=wal, name="coordinator-standby",
            incarnation=lease.acquire("coordinator-standby").incarnation,
            lease_manager=lease)
    assert added[RECORDS_REPLAYED] == len(successor.wal.records) == 4
    assert (added[JOURNAL_PARSES], added[DIGESTS]) == (1, 0)


def test_a_leaf_killed_twice_in_one_round_fails_over_twice():
    """The supervisor arms each successor with the node's next kill in
    the round, so a second death in the same round fires too."""
    plan = (FaultPlan(seed=7)
            .shard_crash("shard-1", 0, after_record=2)
            .shard_crash("shard-1", 0, after_record=4))
    simulator, result, added = simulate(
        SHARDED.replace_federation(fault_plan=plan))
    assert [(f.node, f.lsn, f.incarnation) for f in result.failovers] == \
        [("shard-1", 2, 1), ("shard-1", 4, 2)]
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (2, 2)
    assert simulator.nodes()["shard-1"].name == "shard-1-standby-1"


def test_a_root_coordinator_crash_restarts_the_root_in_place():
    """Recovery follows the kill's kind: a crashed root restarts under
    its own name at the next incarnation, with no standby."""
    plan = FaultPlan(seed=7).coordinator_crash(
        0, after_record=1, party="root")
    simulator, result, added = simulate(
        SHARDED.replace_federation(fault_plan=plan))
    assert [(f.node, f.kind, f.lsn, f.incarnation)
            for f in result.failovers] == \
        [("root", COORDINATOR_CRASH, 1, 1)]
    runtime, = simulator.runtimes.values()
    assert runtime.injector.triggered == \
        [(COORDINATOR_CRASH, "root", 0)]
    root = simulator.nodes()["root"]
    assert (root.name, root.incarnation) == ("root", 1)
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (1, 0)


@pytest.mark.parametrize("rounds", [1, 3, 6])
def test_a_fault_free_flat_durable_run_parses_nothing(rounds):
    """The flat coordinator's standby exists from its death, like a
    tree node's: no per-round re-read of a journal nobody lost."""
    _, _, added = simulate(SimulationSpec(rounds=rounds,
                                          topology="durable"))
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (0, 0)


@pytest.mark.parametrize("kind", [FAILOVER, COORDINATOR_CRASH])
def test_a_flat_coordinator_kill_parses_its_image_once(kind, monkeypatch):
    """Standby takeover or in-place restart alike: the dead
    coordinator's image is read once, at the kill, and nowhere else.
    Only the standby waits out the dead primary's live lease, one
    timeout on the clock; a restart re-acquires its own lease at once."""
    waits = []
    recover = NodeSupervisor._recover

    def timed(supervisor, *args):
        before = supervisor.clock.now
        recover(supervisor, *args)
        waits.append(supervisor.clock.now - before)

    monkeypatch.setattr(NodeSupervisor, "_recover", timed)
    plan = FaultPlan(seed=7)
    plan = (plan.failover if kind == FAILOVER
            else plan.coordinator_crash)(0, after_record=3)
    simulator, result, added = simulate(SimulationSpec(
        rounds=1).replace_federation(fault_plan=plan))
    assert [f.kind for f in result.failovers] == [kind]
    standby = kind == FAILOVER
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (1, int(standby))
    assert waits == [LEASE_TIMEOUT_SECONDS if standby else 0.0]
    assert simulator.nodes()["coordinator"].name == \
        ("coordinator-standby" if standby else "coordinator")


def test_the_flat_failover_golden_parses_once_and_builds_one_standby():
    """The ``durable-failover`` journal-golden scenario: three rounds,
    one standby promotion."""
    plan = FaultPlan(seed=7).failover(0, after_record=3)
    simulator, _, added = simulate(SimulationSpec(
        topology="durable").replace_federation(fault_plan=plan))
    assert (added[JOURNAL_PARSES], added[STANDBYS_BUILT]) == (1, 1)
    assert simulator.nodes()["coordinator"].name == "coordinator-standby"
