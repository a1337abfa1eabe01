"""Durable coordinator: state machine, exactly-once, lease failover,
one-round journals."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.counters import DIGESTS, FRAMES_DECODED, counted
from repro.federation.coordinator import (
    CoordinatorKilled,
    DurableCoordinator,
    InvalidTransitionError,
    LeaseError,
    LeaseManager,
    RoundStateMachine,
    StaleIncarnationError,
)
from repro.federation import wal as wal_module
from repro.federation.faults import QuorumError
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import ShardedAggregationService
from repro.federation.wal import (
    CHECKPOINT,
    DECRYPT_COMMITTED,
    QUORUM_REACHED,
    ROUND_CLOSE,
    ROUND_OPEN,
    UPLOAD_ACCEPTED,
    WAL_MAGIC,
    WalRecord,
    WriteAheadLog,
    encode_record,
)


def make_runtime(num_clients=3, seed=11, **kwargs):
    kwargs.setdefault("key_bits", 256)
    kwargs.setdefault("physical_key_bits", 128)
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=num_clients,
                             seed=seed, **kwargs)


def client_vectors(num_clients, length=5, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.5, 0.5, size=length)
            for _ in range(num_clients)]


def open_record(round_index=0, clients=2, quorum=2, incarnation=0):
    return WalRecord(ROUND_OPEN, round_index, incarnation=incarnation,
                     payload={"tag": "gradients", "num_clients": clients,
                              "quorum": quorum})


def upload_record(client, round_index=0, incarnation=0, frame="aa"):
    return WalRecord(UPLOAD_ACCEPTED, round_index,
                     incarnation=incarnation,
                     payload={"client": client,
                              "dedupe_key": f"r{round_index}:{client}",
                              "frame": frame})


class TestRoundStateMachine:
    def test_legal_lifecycle(self):
        machine = RoundStateMachine()
        assert machine.apply(open_record())
        assert machine.apply(upload_record("client-0"))
        assert machine.apply(upload_record("client-1"))
        assert machine.apply(WalRecord(
            QUORUM_REACHED, 0,
            payload={"survivors": ["client-0", "client-1"],
                     "summands": 2}))
        assert machine.apply(WalRecord(
            DECRYPT_COMMITTED, 0, payload={"result": [1.0, 2.0]}))
        assert machine.apply(WalRecord(ROUND_CLOSE, 0))
        assert machine.round.closed
        assert 0 in machine.closed_rounds

    def test_duplicate_upload_is_exactly_once(self):
        machine = RoundStateMachine()
        machine.apply(open_record())
        assert machine.apply(upload_record("client-0"))
        before = machine.digest()
        assert machine.apply(upload_record("client-0")) is False
        assert machine.digest() == before
        assert machine.round.survivors == ["client-0"]

    def test_digest_is_the_crc_of_the_whole_canonical_blob(self):
        """After every record of 12 rounds (string key order puts "10"
        before "2") the digest is the one-shot CRC of the full blob."""
        import json
        import zlib

        def one_shot(machine):
            state = {
                "round": (machine.round.to_state_dict()
                          if machine.round is not None else None),
                "closed_rounds": {str(k): v for k, v
                                  in machine.closed_rounds.items()},
                "max_incarnation": machine.max_incarnation,
            }
            return zlib.crc32(json.dumps(
                state, sort_keys=True,
                separators=(",", ":")).encode("utf-8"))

        machine = RoundStateMachine()
        assert machine.digest() == one_shot(machine)
        for index in range(12):
            for record in (
                    open_record(index, incarnation=index // 5),
                    upload_record("client-0", index,
                                  incarnation=index // 5),
                    WalRecord(ROUND_CLOSE, index,
                              incarnation=index // 5,
                              payload={"aborted": "quorum"})):
                machine.apply(record)
                assert machine.digest() == one_shot(machine)
        assert len(machine.closed_rounds) == 12

    def test_upload_without_open_rejected(self):
        with pytest.raises(InvalidTransitionError, match="no round open"):
            RoundStateMachine().apply(upload_record("client-0"))

    def test_open_while_open_rejected(self):
        machine = RoundStateMachine()
        machine.apply(open_record(0))
        with pytest.raises(InvalidTransitionError, match="still open"):
            machine.apply(open_record(1))

    def test_reopen_of_closed_round_rejected(self):
        machine = RoundStateMachine()
        machine.apply(open_record(0))
        machine.apply(WalRecord(ROUND_CLOSE, 0,
                                payload={"aborted": "quorum"}))
        with pytest.raises(InvalidTransitionError, match="already closed"):
            machine.apply(open_record(0))

    def test_commit_before_quorum_rejected(self):
        machine = RoundStateMachine()
        machine.apply(open_record())
        with pytest.raises(InvalidTransitionError,
                           match="before quorum_reached"):
            machine.apply(WalRecord(DECRYPT_COMMITTED, 0,
                                    payload={"result": [0.0]}))

    def test_quorum_survivor_mismatch_rejected(self):
        machine = RoundStateMachine()
        machine.apply(open_record())
        machine.apply(upload_record("client-0"))
        with pytest.raises(InvalidTransitionError, match="survivors"):
            machine.apply(WalRecord(
                QUORUM_REACHED, 0,
                payload={"survivors": ["client-1"], "summands": 1}))

    def test_wrong_round_index_rejected(self):
        machine = RoundStateMachine()
        machine.apply(open_record(0))
        with pytest.raises(InvalidTransitionError, match="names round"):
            machine.apply(upload_record("client-0", round_index=2))

    def test_stale_incarnation_fenced_on_replay(self):
        machine = RoundStateMachine()
        machine.apply(open_record(incarnation=2))
        with pytest.raises(StaleIncarnationError):
            machine.apply(upload_record("client-0", incarnation=1))

    def test_a_checkpoint_only_as_the_first_record(self):
        machine = RoundStateMachine()
        machine.apply(open_record())
        checkpoint = WalRecord(CHECKPOINT, 1, payload={
            "closed_rounds": {"0": 1}, "lsn": 2, "max_incarnation": 0})
        with pytest.raises(InvalidTransitionError, match="first record"):
            machine.apply(checkpoint)

    def test_digest_depends_on_applied_prefix(self):
        a, b = RoundStateMachine(), RoundStateMachine()
        a.apply(open_record())
        b.apply(open_record())
        assert a.digest() == b.digest()
        a.apply(upload_record("client-0"))
        assert a.digest() != b.digest()


class TestLeaseManager:
    def clock(self):
        state = {"now": 0.0}
        return state, (lambda: state["now"])

    def test_acquire_heartbeat_fence(self):
        state, clock = self.clock()
        manager = LeaseManager(timeout_seconds=10.0, clock=clock)
        lease = manager.acquire("primary")
        assert lease.incarnation == 0
        manager.heartbeat("primary", 0)
        with pytest.raises(StaleIncarnationError):
            manager.fence(0, holder="intruder")

    def test_live_lease_blocks_other_holder(self):
        state, clock = self.clock()
        manager = LeaseManager(timeout_seconds=10.0, clock=clock)
        manager.acquire("primary")
        with pytest.raises(LeaseError):
            manager.acquire("standby")

    def test_expired_lease_can_be_taken_with_bumped_incarnation(self):
        state, clock = self.clock()
        manager = LeaseManager(timeout_seconds=10.0, clock=clock)
        manager.acquire("primary")
        state["now"] = 11.0
        assert manager.expired()
        lease = manager.acquire("standby")
        assert lease.incarnation == 1
        with pytest.raises(StaleIncarnationError):
            manager.heartbeat("primary", 0)

    def test_heartbeat_charges_channel(self):
        runtime = make_runtime()
        manager = LeaseManager(timeout_seconds=10.0, clock=lambda: 0.0)
        manager.acquire("primary")
        before = runtime.channel.ledger.count("comm")
        manager.heartbeat("primary", 0, channel=runtime.channel)
        assert runtime.channel.ledger.count("comm") == before + 1
        assert runtime.channel.ledger.payload_bytes(
            "comm.coordinator.heartbeat") > 0

    def test_heartbeat_is_addressed_to_the_standby(self):
        sent = []

        class Recorder:
            send = staticmethod(sent.append)

        manager = LeaseManager(timeout_seconds=10.0, clock=lambda: 0.0)
        manager.acquire("primary")
        manager.heartbeat("primary", 0, channel=Recorder())
        [message] = sent
        assert (message.sender, message.receiver, message.tag) == (
            "primary", "standby", "coordinator.heartbeat")
        assert message.payload == {"holder": "primary", "incarnation": 0}

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            LeaseManager(timeout_seconds=0.0, clock=lambda: 0.0)


class TestDurableRound:
    def test_round_matches_plain_aggregate(self):
        vectors = client_vectors(3)
        plain = make_runtime().aggregator.aggregate(vectors)
        durable_runtime = make_runtime()
        coordinator = DurableCoordinator(durable_runtime.aggregator)
        durable = coordinator.run_round(vectors)
        assert np.array_equal(durable, plain)
        # One clean 3-client round journals open, 3 uploads, quorum,
        # commit, close.
        assert len(coordinator.wal) == 7

    def test_accepted_uploads_are_decoded_only_by_a_rebuilt_coordinator(
            self):
        """The live primary sums the tensors it accepted and decodes
        nothing; a coordinator rebuilt from its image decodes each
        journaled frame once, and the round comes out the same."""
        vectors = client_vectors(3)
        live = DurableCoordinator(make_runtime().aggregator)
        with counted() as added:
            expected = live.run_round(vectors)
        assert added[FRAMES_DECODED] == 0

        aggregator = make_runtime().aggregator
        dying = DurableCoordinator(aggregator)
        dying.kill_after_lsn = 3  # round_open + three uploads
        with pytest.raises(CoordinatorKilled):
            dying.run_round(vectors)
        with counted() as added:
            rebuilt = DurableCoordinator(
                aggregator, wal=WriteAheadLog.from_bytes(dying.wal.image()))
            result = rebuilt.run_round(vectors, round_index=0)
        # Three journaled frames and three decodes: a frame decoded
        # twice would leave another out of the sum.
        assert len(rebuilt.machine.round.upload_frames) == 3
        assert added[FRAMES_DECODED] == 3
        assert np.array_equal(result, expected)

    def test_fault_free_round_digests_once_per_node(self):
        """Only ``round_close`` takes the state digest on the round
        path: appending the other records of an 8-upload round pays
        nothing for the crash sweep's witness."""
        vectors = client_vectors(8)
        coordinator = DurableCoordinator(make_runtime(8).aggregator)
        with counted() as added:
            coordinator.run_round(vectors)
        assert len(coordinator.wal) == 12  # open, 8 uploads, quorum, ...
        assert added[DIGESTS] == 1
        assert list(coordinator.machine.closed_rounds) == [0]

        runtime = make_runtime(8)
        service = ShardedAggregationService(runtime.aggregator,
                                            seed=runtime.seed)
        with counted() as added:
            service.run_round(vectors)
        nodes = [*service.leaves.values(), service.root]
        assert len(nodes) == 4  # ceil(sqrt(8)) leaves and the root
        assert added[DIGESTS] == 4
        assert all(list(node.machine.closed_rounds) == [0]
                   for node in nodes)

    def test_digest_trail_is_the_replayed_journal(self):
        """``digest_trail`` holds no state: at every LSN the journal
        still holds it is what a coordinator recovered from the image up
        to that record computes, and what a machine that replayed every
        record ever appended computes -- the checkpoint stands in for
        the dropped ones exactly."""
        runtime = make_runtime()
        reference = DurableCoordinator(runtime.aggregator)
        appended = []
        append = reference.wal.append
        reference.wal.append = \
            lambda record: appended.append(record) or append(record)
        trails = []
        for round_index in range(2):
            reference.run_round(client_vectors(3, seed=round_index))
            trails.append((reference.wal.first_lsn, reference.digest_trail))
        assert [(first, len(trail)) for first, trail in trails] == \
            [(0, 7), (7, 7)]
        assert len(reference.wal) == len(appended) == 14
        assert trails[-1][1][-1] == reference.machine.digest()
        uninterrupted, everything = RoundStateMachine(), []
        for record in appended:
            uninterrupted.apply(record)
            everything.append(uninterrupted.digest())
        assert trails[0][1] + trails[1][1] == everything
        with pytest.raises(AttributeError):
            reference.digest_trail = []
        first, trail = trails[-1]
        held = reference.wal.records
        assert held[0].kind == "checkpoint"
        for index in range(1, len(held)):
            prefix = WAL_MAGIC + b"".join(
                encode_record(record) for record in held[:index + 1])
            recovered = DurableCoordinator(
                runtime.aggregator, wal=WriteAheadLog.from_bytes(prefix))
            assert len(recovered.wal) == first + index
            assert recovered.machine.digest() == trail[index - 1]
            assert recovered.digest_trail == trail[:index]

    def test_duplicate_upload_not_journaled(self):
        runtime = make_runtime()
        coordinator = DurableCoordinator(runtime.aggregator)
        vectors = client_vectors(3)
        coordinator._log(
            "round_open", 0,
            tag="gradients", num_clients=3, quorum=3)
        tensor = runtime.aggregator.encrypt_tensor(vectors[0])
        assert coordinator.accept_upload(0, "client-0", tensor)
        length = len(coordinator.wal)
        assert coordinator.accept_upload(0, "client-0", tensor) is False
        assert len(coordinator.wal) == length

    @pytest.mark.parametrize("kill_lsn", range(7))
    def test_kill_at_every_boundary_recovers_bit_identical(self,
                                                           kill_lsn):
        vectors = client_vectors(3)
        reference = DurableCoordinator(make_runtime().aggregator)
        expected = reference.run_round(vectors)

        runtime = make_runtime()
        coordinator = DurableCoordinator(runtime.aggregator)
        coordinator.kill_after_lsn = kill_lsn
        with pytest.raises(CoordinatorKilled) as info:
            coordinator.run_round(vectors)
        assert info.value.lsn == kill_lsn

        successor = DurableCoordinator(
            runtime.aggregator,
            wal=WriteAheadLog.from_bytes(coordinator.wal.image()))
        assert successor.machine.digest() == \
            reference.digest_trail[kill_lsn]
        assert successor.incarnation == 1
        recovered = successor.run_round(vectors)
        assert np.array_equal(recovered, expected)

    def test_recovery_reuses_logged_ciphertexts_verbatim(self):
        vectors = client_vectors(3)
        runtime = make_runtime()
        coordinator = DurableCoordinator(runtime.aggregator)
        coordinator.kill_after_lsn = 3  # open + 3 uploads journaled
        with pytest.raises(CoordinatorKilled):
            coordinator.run_round(vectors)
        logged = coordinator.machine.round.upload_frames.copy()
        successor = DurableCoordinator(
            runtime.aggregator,
            wal=WriteAheadLog.from_bytes(coordinator.wal.image()))
        assert successor.machine.round.upload_frames == logged
        successor.run_round(vectors)
        # The pre-crash frames are still byte-identical in the log.
        for record in successor.wal.records:
            if record.kind == "upload_accepted":
                client = record.payload["client"]
                assert record.payload["frame"] == logged[client]

    def test_quorum_failure_closes_round_and_raises(self):
        from repro.federation.faults import FaultPlan

        plan = FaultPlan(seed=0).crash("client-2", 0)
        runtime = make_runtime(fault_plan=plan, min_quorum=3)
        coordinator = DurableCoordinator(runtime.aggregator)
        with pytest.raises(QuorumError):
            coordinator.run_round(client_vectors(3))
        assert coordinator.machine.round.closed
        assert coordinator.machine.round.aborted == "quorum"
        assert runtime.aggregator.round_cursor == 1

    def test_fenced_coordinator_cannot_write(self):
        runtime = make_runtime()
        manager = LeaseManager(timeout_seconds=10.0, clock=lambda: 0.0)
        lease = manager.acquire("coordinator")
        coordinator = DurableCoordinator(runtime.aggregator,
                                         lease_manager=manager)
        assert coordinator.incarnation == lease.incarnation
        # A successor bumps the lease; the deposed primary is fenced.
        manager.lease.expires_at = -1.0
        manager.acquire("standby")
        with pytest.raises(StaleIncarnationError):
            coordinator.run_round(client_vectors(3))

    def test_successor_below_log_incarnation_rejected(self):
        log = WriteAheadLog()
        log.append(open_record(incarnation=3))
        with pytest.raises(StaleIncarnationError):
            DurableCoordinator(make_runtime().aggregator, wal=log,
                               incarnation=1)


def promote(aggregator, manager, image, name="standby"):
    """Promote a standby as ``NodeSupervisor`` does: parse the dead
    node's image once, acquire the lease, build the node's class."""
    wal = WriteAheadLog.from_bytes(image)
    lease = manager.acquire(name)
    return DurableCoordinator(aggregator, wal=wal, name=name,
                              incarnation=lease.incarnation,
                              lease_manager=manager)


class TestStandbyFailover:
    def test_hot_standby_takeover_mid_round(self):
        vectors = client_vectors(3)
        expected = DurableCoordinator(
            make_runtime().aggregator).run_round(vectors)

        runtime = make_runtime()
        clock = {"now": 0.0}
        manager = LeaseManager(timeout_seconds=5.0,
                               clock=lambda: clock["now"])
        manager.acquire("coordinator")
        primary = DurableCoordinator(runtime.aggregator,
                                     lease_manager=manager)
        primary.kill_after_lsn = 2
        with pytest.raises(CoordinatorKilled):
            primary.run_round(vectors)

        # Takeover before the lease lapses is illegal...
        with pytest.raises(LeaseError):
            promote(runtime.aggregator, manager, primary.wal.image())
        # ...after it lapses the standby resumes the round.
        clock["now"] = 6.0
        successor = promote(runtime.aggregator, manager,
                            primary.wal.image())
        assert successor.incarnation == 1
        recovered = successor.run_round(vectors)
        assert np.array_equal(recovered, expected)
        # The deposed primary can no longer write.
        with pytest.raises(StaleIncarnationError):
            primary.run_round(vectors, round_index=1)

    def test_duplicated_upload_after_failover_applied_once(self):
        vectors = client_vectors(3)
        runtime = make_runtime()
        clock = {"now": 0.0}
        manager = LeaseManager(timeout_seconds=5.0,
                               clock=lambda: clock["now"])
        manager.acquire("coordinator")
        primary = DurableCoordinator(runtime.aggregator,
                                     lease_manager=manager)
        primary.kill_after_lsn = 2  # open + client-0 + client-1 logged
        with pytest.raises(CoordinatorKilled):
            primary.run_round(vectors)
        clock["now"] = 6.0
        successor = promote(runtime.aggregator, manager,
                            primary.wal.image())

        # client-0 retransmits its upload to the new primary: dropped.
        tensor = runtime.aggregator.encrypt_tensor(vectors[0])
        assert successor.accept_upload(0, "client-0", tensor) is False
        assert successor.machine.round.survivors.count("client-0") == 1

        result = successor.run_round(vectors)
        summed = sum(vectors)
        step = runtime.aggregator.scheme.quantization_step
        assert np.allclose(result, summed, atol=3 * step)
        assert runtime.aggregator.last_round.summands == 3


class Killed(BaseException):
    """The writing process, dying inside a compaction."""


class TestOneRoundJournal:
    """A round node's ``round_open`` after a closed round compacts its
    log to a checkpoint and that ``round_open``."""

    def test_a_sharded_run_keeps_every_node_one_round_long(self):
        runtime = make_runtime(8)
        service = ShardedAggregationService(runtime.aggregator,
                                            seed=runtime.seed)
        appended = Counter()    # node name -> records ever appended
        for round_index in range(6):
            service.run_round(client_vectors(8, seed=round_index),
                              round_index=round_index)
            nodes = [*service.leaves.values(), service.root]
            assert len(nodes) == 4
            for node in nodes:
                this_round = len(node.wal) - appended[node.name]
                appended[node.name] = len(node.wal)
                assert len(node.wal.records) <= this_round + 1
                assert [record.round_index for record in node.wal.records
                        if record.kind != CHECKPOINT] == \
                    [round_index] * this_round
                assert (node.wal.checkpoint is None) == (round_index == 0)

    def test_a_file_backed_coordinator_file_is_its_image_after_every_compaction(
            self, tmp_path, monkeypatch):
        path = tmp_path / "coordinator.wal"
        coordinator = DurableCoordinator(make_runtime().aggregator,
                                         wal=WriteAheadLog(path=path))
        compactions = []
        compact = WriteAheadLog.compact

        def checked(log, checkpoint):
            compact(log, checkpoint)
            compactions.append(checkpoint.payload["lsn"])
            assert path.read_bytes() == log.image()

        monkeypatch.setattr(WriteAheadLog, "compact", checked)
        for round_index in range(4):
            coordinator.run_round(client_vectors(3, seed=round_index))
            assert path.read_bytes() == coordinator.wal.image()
        assert compactions == [7, 14, 21]
        reopened = DurableCoordinator(make_runtime().aggregator,
                                      wal=WriteAheadLog(path=path))
        assert len(reopened.wal) == 28
        assert reopened.machine.digest() == coordinator.machine.digest()

    @pytest.mark.parametrize("where", ["temp-write", "rename",
                                       "directory-fsync"])
    def test_a_writer_killed_inside_the_compaction_recovers_either_image(
            self, tmp_path, monkeypatch, where):
        """The compaction swaps images through ``replace_durably``: dying
        before the rename leaves the old image (plus the ``round_open``
        already appended), after it the new one -- and both recover to
        the uninterrupted digest at that ``round_open``."""
        reference = DurableCoordinator(make_runtime().aggregator)
        expected = [reference.run_round(client_vectors(3, seed=r))
                    for r in range(2)]
        assert reference.wal.first_lsn == 7
        open_digest = reference.digest_trail[0]

        path = tmp_path / "coordinator.wal"
        runtime = make_runtime()
        coordinator = DurableCoordinator(runtime.aggregator,
                                         wal=WriteAheadLog(path=path))
        coordinator.run_round(client_vectors(3, seed=0))

        def dying_on_temp(name, mode):
            handle = open(name, mode)
            if Path(name).suffix == ".tmp":
                handle.write(b"FWL1")
                handle.close()
                raise Killed
            return handle

        def die(*args):
            raise Killed

        with monkeypatch.context() as patch:
            if where == "temp-write":
                patch.setattr(wal_module, "open", dying_on_temp,
                              raising=False)
            elif where == "rename":
                patch.setattr(wal_module.os, "replace", die)
            else:
                patch.setattr(wal_module, "_fsync_directory", die)
            with pytest.raises(Killed):
                coordinator.run_round(client_vectors(3, seed=1))
        survivor = WriteAheadLog(path=path)
        assert (survivor.checkpoint is not None) == \
            (where == "directory-fsync")
        successor = DurableCoordinator(runtime.aggregator, wal=survivor)
        assert len(successor.wal) == 8
        assert successor.machine.digest() == open_digest
        result = successor.run_round(client_vectors(3, seed=1),
                                     round_index=1)
        assert np.array_equal(result, expected[1])
