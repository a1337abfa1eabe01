"""Exact work counts on the warm paths the e2e benchmark times.

Each test wraps one callable and counts what a real 1024-bit round does
with it.  A regression here would still compute the right answer and
would show in a round time only as noise, so the count is the assertion.
(CI's ``bench-e2e-smoke`` job runs this file on a runner where the
native library is known to bind.)
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.federation import coordinator, wal
from repro.federation.coordinator import (
    RoundStateMachine,
    StandbyCoordinator,
)
from repro.federation.faults import COORDINATOR_CRASH, FAILOVER, FaultPlan
from repro.federation.runtime import (
    FLBOOSTER_SYSTEM,
    FederationRuntime,
    cached_keypair,
)
from repro.federation.shard import ShardedAggregationService
from repro.federation.wal import ROUND_CLOSE, UPLOAD_ACCEPTED, WriteAheadLog
from repro.gpu.cost_model import HardwareProfile
from repro.mpint import native
from repro.quantization import encoding
from repro.tensor import meta
from repro.testing.simulator import FederationSimulator, SimulationSpec


@pytest.mark.skipif(not native.HAVE_NATIVE,
                    reason="residency needs the native library")
def test_a_1024_word_sum_stays_resident_at_every_level(monkeypatch):
    """A reduction that silently left the library would still sum
    correctly, 3-4x slower."""
    engine = GpuPaillierEngine(cached_keypair(1024, seed=1),
                               randomizer_pool_size=8)
    words = engine.encrypt_batch(list(range(1024)))
    levels = []

    def spy(a, b, modulus):
        levels.append(type(a) is type(b) is native.ResidueBatch)
        return native.mulmod_batch(a, b, modulus)

    monkeypatch.setattr("repro.gpu.kernels.mulmod_batch", spy)
    assert engine.decrypt_batch([engine.sum_ciphertexts(words)]) == \
        [1023 * 512]
    assert levels == [True] * 10


def test_a_warm_upload_encodes_without_rederiving_its_geometry(monkeypatch):
    """Slot widths, masks and shifts are fixed when the scheme and the
    codec are built; a log2 back on the encode path is what this
    catches."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=128,
                                key_bits=1024)
    upload = np.linspace(-0.9, 0.9, 64)
    runtime.aggregator.encrypt_tensor(upload)   # first of its layout
    calls = []
    derive = encoding.overflow_bits_for
    monkeypatch.setattr(encoding, "overflow_bits_for",
                        lambda p: calls.append(p) or derive(p))
    runtime.aggregator.encrypt_tensor(upload)
    assert calls == []


def test_a_warm_uploads_word_count_builds_no_codec(monkeypatch):
    """A meta derives its codec and word count when it is built, so
    reading them along the upload path -- the message's ciphertext
    count, the tensor's own -- looks nothing up."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=128,
                                key_bits=1024)
    tensor = runtime.aggregator.encrypt_tensor(np.linspace(-0.9, 0.9, 64))
    calls = []
    build = meta.build_codec
    monkeypatch.setattr(meta, "build_codec",
                        lambda layout: calls.append(layout) or build(layout))
    runtime.aggregator.send_tensor(tensor, sender="client-0",
                                   receiver="server", tag="upload.gradients")
    assert tensor.num_words == tensor.meta.num_words == 3
    assert calls == []


def test_a_repeated_launch_shape_is_priced_once(monkeypatch):
    """Every launch is still recorded; only its geometry and modelled
    seconds are looked up once a shape has been priced."""
    engine = GpuPaillierEngine(cached_keypair(1024, seed=1),
                               randomizer_pool_size=8)
    priced = []
    price = HardwareProfile.gpu_seconds

    def counting(profile, tasks, words, bytes_in, bytes_out, plan,
                 **kwargs):
        priced.append((tasks, words, bytes_in, bytes_out))
        return price(profile, tasks, words, bytes_in, bytes_out, plan,
                     **kwargs)

    monkeypatch.setattr(HardwareProfile, "gpu_seconds", counting)
    for _ in range(3):
        words = engine.encrypt_batch([1, 2, 3])
        engine.add_batch(words, words)
    launches = engine.kernels.device.launches
    assert len(launches) == 12
    assert sorted(priced) == sorted({
        (launch.tasks, launch.word_multiplications, launch.bytes_in,
         launch.bytes_out) for launch in launches})
    assert len(priced) == 2


@pytest.fixture
def frame_decodes(monkeypatch):
    """Every journaled frame decoded back into a tensor, as it happens."""
    decoded = []
    decode = coordinator.deserialize_tensor
    monkeypatch.setattr(
        coordinator, "deserialize_tensor",
        lambda blob, *args: decoded.append(blob) or decode(blob, *args))
    return decoded


def test_a_fault_free_sharded_run_decodes_no_journaled_frame(
        frame_decodes):
    """Each node sums the uploads it accepted and the partial it
    committed; nothing reads a frame back while its writer lives."""
    FederationSimulator(SHARDED).run()
    assert frame_decodes == []


def test_a_leaf_takeover_decodes_each_dead_leafs_upload_once(
        frame_decodes):
    """The successor decodes what only the log holds -- the upload the
    dead leaf journaled -- once, and holds what it accepts itself."""
    plan = FaultPlan(seed=SHARDED.seed).shard_crash("shard-1", 0,
                                                    after_record=1)
    simulator = FederationSimulator(
        dataclasses.replace(SHARDED, rounds=1, fault_plan=plan))
    result = simulator.run()
    assert [(f.node, f.lsn) for f in result.failovers] == [("shard-1", 1)]
    journaled = [record for record in simulator.nodes()["shard-1"].wal.records
                 if record.kind == UPLOAD_ACCEPTED]
    assert len(journaled) == 2
    assert frame_decodes == [bytes.fromhex(journaled[0].payload["frame"])]


def test_a_warm_journaled_round_digests_only_at_round_close(monkeypatch):
    """The per-record digest trail is the crash sweep's witness and is
    read off the journal on demand; a digest back on the append path
    re-serialises the whole open round for every record."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=8,
                                key_bits=1024)
    service = ShardedAggregationService(runtime.aggregator,
                                        seed=runtime.seed)
    uploads = [np.linspace(-0.9, 0.9, 64) * (i + 1) / 8 for i in range(8)]
    service.run_round(uploads, round_index=0)   # builds the nodes
    calls = []
    digest = RoundStateMachine.digest
    monkeypatch.setattr(
        RoundStateMachine, "digest",
        lambda machine: calls.append(machine) or digest(machine))
    service.run_round(uploads, round_index=1)
    closes = sum(record.kind == ROUND_CLOSE and record.round_index == 1
                 for node in (*service.leaves.values(), service.root)
                 for record in node.wal.records)
    assert len(calls) == closes > 0


@pytest.fixture
def takeover_work(monkeypatch):
    """Every journal image parsed and every standby built, as they
    happen: ``(parses, standbys)``, the latter by name."""
    parses, standbys = [], []
    replay = wal.replay_wal
    monkeypatch.setattr(
        wal, "replay_wal", lambda blob: parses.append(len(blob))
        or replay(blob))
    build = StandbyCoordinator.__init__

    def counting_build(standby, *args, **kwargs):
        build(standby, *args, **kwargs)
        standbys.append(standby.name)

    monkeypatch.setattr(StandbyCoordinator, "__init__", counting_build)
    return parses, standbys


SHARDED = SimulationSpec(num_clients=6, rounds=2, sharded=True)


def test_a_fault_free_sharded_run_builds_no_standby_and_parses_nothing(
        takeover_work):
    """A tree node's standby exists from its primary's death; nothing
    re-reads a journal nobody lost."""
    simulator = FederationSimulator(SHARDED)
    simulator.run()
    assert len(simulator.nodes()) == 4
    assert takeover_work == ([], [])


def test_a_fault_free_six_round_run_checkpoints_once_per_node_and_round(
        takeover_work, monkeypatch):
    """Compaction rides on the ``round_open`` a node appends anyway: one
    checkpoint per node per round after the first, and still no journal
    parsed and no standby built."""
    checkpoints = Counter()
    compact = WriteAheadLog.compact

    def counting(log, checkpoint):
        checkpoints[id(log), checkpoint.round_index] += 1
        compact(log, checkpoint)

    monkeypatch.setattr(WriteAheadLog, "compact", counting)
    simulator = FederationSimulator(dataclasses.replace(SHARDED, rounds=6))
    simulator.run()
    assert len(simulator.nodes()) == 4
    assert takeover_work == ([], [])
    assert set(checkpoints.values()) == {1}
    assert sorted(round_index for _, round_index in checkpoints) == \
        sorted(list(range(1, 6)) * 4)


def test_a_shard_crash_parses_the_dead_leafs_image_once(takeover_work):
    """One parse per takeover and one standby per death, named as the
    eagerly built ones were."""
    plan = (FaultPlan(seed=SHARDED.seed)
            .shard_crash("shard-1", 0, after_record=2)
            .shard_crash("shard-1", 1, after_record=8))
    result = FederationSimulator(
        dataclasses.replace(SHARDED, fault_plan=plan)).run()
    parses, standbys = takeover_work
    assert [(f.node, f.lsn, f.incarnation) for f in result.failovers] == \
        [("shard-1", 2, 1), ("shard-1", 8, 2)]
    assert len(parses) == 2
    assert standbys == ["shard-1-standby", "shard-1-standby-1"]


def test_a_takeover_replays_each_journaled_record_once(monkeypatch):
    """The successor's replay of the dead primary's log is the only one:
    no second machine is fed the same records to compare digests."""
    applied, takeovers = [], []
    apply = RoundStateMachine.apply
    monkeypatch.setattr(
        RoundStateMachine, "apply",
        lambda machine, record: applied.append(record)
        or apply(machine, record))
    take_over = StandbyCoordinator.take_over

    def counting(standby, image):
        applied.clear()
        successor = take_over(standby, image)
        takeovers.append((len(applied), len(successor.wal.records)))
        return successor

    monkeypatch.setattr(StandbyCoordinator, "take_over", counting)
    plan = FaultPlan(seed=7).failover(0, after_record=3)
    FederationSimulator(SimulationSpec(rounds=1, fault_plan=plan)).run()
    (applies, records), = takeovers
    assert applies == records == 4


def test_a_leaf_killed_twice_in_one_round_fails_over_twice(takeover_work):
    """The supervisor arms each successor with the node's next kill in
    the round, so a second death in the same round fires too."""
    plan = (FaultPlan(seed=SHARDED.seed)
            .shard_crash("shard-1", 0, after_record=2)
            .shard_crash("shard-1", 0, after_record=4))
    result = FederationSimulator(
        dataclasses.replace(SHARDED, fault_plan=plan)).run()
    parses, standbys = takeover_work
    assert [(f.node, f.lsn, f.incarnation) for f in result.failovers] == \
        [("shard-1", 2, 1), ("shard-1", 4, 2)]
    assert len(parses) == 2
    assert standbys == ["shard-1-standby", "shard-1-standby-1"]


def test_a_root_coordinator_crash_restarts_the_root_in_place(takeover_work):
    """Recovery follows the kill's kind: a crashed root restarts under
    its own name at the next incarnation, with no standby."""
    plan = FaultPlan(seed=SHARDED.seed).coordinator_crash(
        0, after_record=1, party="root")
    simulator = FederationSimulator(
        dataclasses.replace(SHARDED, fault_plan=plan))
    result = simulator.run()
    parses, standbys = takeover_work
    assert [(f.node, f.kind, f.lsn, f.incarnation)
            for f in result.failovers] == \
        [("root", COORDINATOR_CRASH, 1, 1)]
    assert simulator.runtime.injector.triggered == \
        [(COORDINATOR_CRASH, "root", 0)]
    root = simulator.nodes()["root"]
    assert (root.name, root.incarnation) == ("root", 1)
    assert (len(parses), standbys) == (1, [])


@pytest.mark.parametrize("rounds", [1, 3, 6])
def test_a_fault_free_flat_durable_run_parses_nothing(takeover_work,
                                                      rounds):
    """The flat coordinator's standby exists from its death, like a
    tree node's: no per-round re-read of a journal nobody lost."""
    FederationSimulator(SimulationSpec(rounds=rounds, durable=True)).run()
    assert takeover_work == ([], [])


@pytest.mark.parametrize("kind", [FAILOVER, COORDINATOR_CRASH])
def test_a_flat_coordinator_kill_parses_its_image_once(takeover_work,
                                                      kind):
    """Standby takeover or in-place restart alike: the dead
    coordinator's image is read once, at the kill, and nowhere else."""
    plan = FaultPlan(seed=7)
    plan = (plan.failover if kind == FAILOVER
            else plan.coordinator_crash)(0, after_record=3)
    result = FederationSimulator(
        SimulationSpec(rounds=1, fault_plan=plan)).run()
    parses, standbys = takeover_work
    assert [f.kind for f in result.failovers] == [kind]
    assert len(parses) == 1
    assert standbys == (["coordinator-standby"] if kind == FAILOVER
                        else [])


def test_the_flat_failover_golden_parses_once_and_builds_one_standby(
        takeover_work):
    """The ``durable-failover`` journal-golden scenario: three rounds,
    one standby promotion."""
    plan = FaultPlan(seed=7).failover(0, after_record=3)
    FederationSimulator(SimulationSpec(durable=True, fault_plan=plan)).run()
    parses, standbys = takeover_work
    assert len(parses) == 1
    assert standbys == ["coordinator-standby"]
