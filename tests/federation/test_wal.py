"""WAL codec and replay: framing, torn tails, mid-log corruption,
checkpoints and compaction."""

import errno
import json
import os
import stat
import tracemalloc
import zlib

import pytest

from repro.federation import wal as wal_module
from repro.federation.serialization import FrameError
from repro.federation.wal import (
    CHECKPOINT,
    MAX_PAYLOAD_BYTES,
    RECORD_HEADER,
    RECORD_KINDS,
    ROUND_CLOSE,
    ROUND_OPEN,
    UPLOAD_ACCEPTED,
    WAL_MAGIC,
    WalError,
    WalRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
    replay_wal,
)


def spying_open(on_write):
    """An ``open`` whose files hand every ``write`` to
    ``on_write(real_handle, data)`` -- to count the bytes an append
    writes, or to die inside the write."""
    class SpiedFile:
        def __init__(self, handle):
            self.handle = handle

        def write(self, data):
            return on_write(self.handle, data)

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self.handle.__exit__(*exc_info)

    return lambda path, mode: SpiedFile(open(path, mode))


class Killed(BaseException):
    """The writing process, dying inside a ``write``."""


def dying_open(landed):
    """An ``open`` whose files die in their first ``write``, after
    ``landed`` bytes of it reached the file."""
    def dying_write(handle, data):
        handle.write(data[:landed])
        handle.flush()
        raise Killed

    return spying_open(dying_write)


def full_disk(handle, data):
    """A ``write`` that lands half the frame, then runs out of space."""
    handle.write(data[:len(data) // 2])
    handle.flush()
    raise OSError(errno.ENOSPC, "No space left on device")


def raw_frame(data):
    """Frame any JSON value as a record, CRC and all: how a lying field
    gets past the CRC to the field checks."""
    payload = json.dumps(data, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def checkpoint_record(lsn=3, incarnation=1, **payload):
    fields = {"closed_rounds": {"0": 12345}, "lsn": lsn,
              "max_incarnation": 1}
    fields.update(payload)
    return WalRecord(CHECKPOINT, 1, incarnation=incarnation, payload=fields)


def sample_records():
    return [
        WalRecord(ROUND_OPEN, 0, payload={"tag": "gradients",
                                          "num_clients": 3, "quorum": 3}),
        WalRecord(UPLOAD_ACCEPTED, 0, payload={
            "client": "client-0", "dedupe_key": "r0:client-0",
            "frame": "deadbeef"}),
        WalRecord(ROUND_CLOSE, 0, incarnation=1),
    ]


class TestRecordCodec:
    @pytest.mark.parametrize("kind", RECORD_KINDS)
    def test_roundtrip_every_kind(self, kind):
        record = WalRecord(kind, 3, incarnation=2,
                           payload={"x": [1, 2], "y": "z"})
        assert decode_record(encode_record(record)) == record

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown WAL record kind"):
            WalRecord("round_reopen", 0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError, match="round_index"):
            WalRecord(ROUND_OPEN, -1)
        with pytest.raises(ValueError, match="incarnation"):
            WalRecord(ROUND_OPEN, 0, incarnation=-1)

    def test_crc_mismatch_is_typed(self):
        blob = bytearray(encode_record(WalRecord(ROUND_OPEN, 0)))
        blob[-1] ^= 0x01
        with pytest.raises(WalError, match="CRC"):
            decode_record(bytes(blob))

    def test_truncated_header_is_typed(self):
        with pytest.raises(WalError, match="truncated record header"):
            decode_record(b"\x00\x00")

    def test_truncated_payload_is_typed(self):
        blob = encode_record(WalRecord(ROUND_OPEN, 0))
        with pytest.raises(WalError, match="truncated record"):
            decode_record(blob[:-2])

    def test_trailing_bytes_rejected(self):
        blob = encode_record(WalRecord(ROUND_OPEN, 0))
        with pytest.raises(WalError, match="oversized"):
            decode_record(blob + b"\x00")

    def test_implausible_length_rejected_before_allocation(self):
        header = RECORD_HEADER.pack(MAX_PAYLOAD_BYTES + 1, 0)
        with pytest.raises(WalError, match="implausible"):
            decode_record(header)

    def test_non_canonical_json_rejected(self):
        # Same data, non-sorted key order: CRC is valid but the frame is
        # not what the encoder produces.
        record = WalRecord(ROUND_OPEN, 1)
        canonical = encode_record(record)
        payload = canonical[RECORD_HEADER.size:]
        assert payload.startswith(b"{")
        noncanonical = (b'{"round_index":1,"kind":"round_open",'
                        b'"incarnation":0,"payload":{}}')
        framed = RECORD_HEADER.pack(len(noncanonical),
                                    zlib.crc32(noncanonical)) + noncanonical
        with pytest.raises(WalError, match="canonical"):
            decode_record(framed)

    def test_wal_error_is_frame_error(self):
        assert issubclass(WalError, FrameError)
        assert issubclass(WalError, ValueError)


class TestReplay:
    def image(self, records):
        return WAL_MAGIC + b"".join(encode_record(r) for r in records)

    def test_empty_image_is_empty_log(self):
        replayed = replay_wal(b"")
        assert replayed.records == []
        assert not replayed.torn_tail

    def test_full_replay(self):
        records = sample_records()
        replayed = replay_wal(self.image(records))
        assert replayed.records == records
        assert not replayed.torn_tail
        assert replayed.consumed_bytes == len(self.image(records))

    def test_bad_magic_rejected(self):
        with pytest.raises(WalError, match="magic"):
            replay_wal(b"NOPE" + encode_record(sample_records()[0]))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 12, -1])
    def test_first_append_torn_inside_the_magic_is_the_empty_log(
            self, length):
        """Or past it, inside record 0's frame: the magic is record 0's,
        so with no record there is no prefix to keep."""
        replayed = replay_wal(self.image(sample_records()[:1])[:length])
        assert replayed.records == []
        assert replayed.consumed_bytes == 0
        assert replayed.torn_tail

    @pytest.mark.parametrize("blob", [b"N", b"FX", b"FWX", b"FWL2"])
    def test_short_or_wrong_magic_is_still_rejected(self, blob):
        with pytest.raises(WalError, match="magic"):
            replay_wal(blob)

    @pytest.mark.parametrize("cut", [1, 4, 9])
    def test_torn_tail_trimmed(self, cut):
        records = sample_records()
        blob = self.image(records)
        torn = blob[:len(blob) - cut]
        replayed = replay_wal(torn)
        assert replayed.records == records[:-1]
        assert replayed.torn_tail

    def test_corrupt_final_record_is_torn_tail(self):
        blob = bytearray(self.image(sample_records()))
        blob[-1] ^= 0xFF  # damage inside the last record's payload
        replayed = replay_wal(bytes(blob))
        assert replayed.records == sample_records()[:-1]
        assert replayed.torn_tail

    def test_mid_log_corruption_is_typed_error(self):
        records = sample_records()
        frames = [encode_record(r) for r in records]
        # Flip a payload bit in the FIRST record; intact records follow.
        damaged = bytearray(frames[0])
        damaged[-1] ^= 0x01
        blob = WAL_MAGIC + bytes(damaged) + frames[1] + frames[2]
        with pytest.raises(WalError, match="mid-log corruption"):
            replay_wal(blob)

    def test_consumed_prefix_reencodes_byte_exactly(self):
        blob = self.image(sample_records()) + b"\x99"  # torn garbage
        replayed = replay_wal(blob)
        rebuilt = WAL_MAGIC + b"".join(encode_record(r)
                                       for r in replayed.records)
        assert rebuilt == blob[:replayed.consumed_bytes]


class TestWriteAheadLog:
    def test_append_and_read_back(self):
        log = WriteAheadLog()
        lsns = [log.append(r) for r in sample_records()]
        assert lsns == [0, 1, 2]
        assert list(log.records) == sample_records()
        assert len(log) == 3

    def test_image_roundtrips_through_from_bytes(self):
        log = WriteAheadLog()
        for record in sample_records():
            log.append(record)
        clone = WriteAheadLog.from_bytes(log.image())
        assert list(clone.records) == sample_records()
        assert not clone.torn_tail_dropped
        assert clone.image() == log.image()

    def test_from_bytes_trims_torn_tail(self):
        log = WriteAheadLog()
        for record in sample_records():
            log.append(record)
        clone = WriteAheadLog.from_bytes(log.image()[:-3])
        assert list(clone.records) == sample_records()[:-1]
        assert clone.torn_tail_dropped

    def test_file_backed_log_survives_reopen(self, tmp_path):
        path = tmp_path / "round.wal"
        log = WriteAheadLog(path=path)
        for record in sample_records():
            log.append(record)
        reopened = WriteAheadLog(path=path)
        assert list(reopened.records) == sample_records()

    def test_file_backed_log_persists_torn_tail_trim(self, tmp_path):
        path = tmp_path / "round.wal"
        log = WriteAheadLog(path=path)
        for record in sample_records():
            log.append(record)
        torn = path.read_bytes()[:-3]
        path.write_bytes(torn)
        reopened = WriteAheadLog(path=path)
        assert reopened.torn_tail_dropped
        assert list(reopened.records) == sample_records()[:-1]
        # The trim was persisted: a third open sees a clean log.
        third = WriteAheadLog(path=path)
        assert not third.torn_tail_dropped
        assert list(third.records) == sample_records()[:-1]

    def test_torn_tail_trim_fsyncs_the_directory(self, tmp_path,
                                                 monkeypatch):
        """The trim renames a new inode over the journal; until the
        directory entry is fsynced that rename -- and every record later
        fsynced into the new file -- can be lost on power loss."""
        path = tmp_path / "round.wal"
        log = WriteAheadLog(path=path)
        for record in sample_records():
            log.append(record)
        path.write_bytes(path.read_bytes()[:-3])
        synced = []
        fsync = os.fsync

        def spying_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        WriteAheadLog(path=path)
        assert synced == [False, True]   # the trimmed file, then its dir
        assert not (tmp_path / "round.wal.tmp").exists()

    def test_one_append_writes_one_frame(self, tmp_path, monkeypatch):
        """The journal is appended to, not rewritten: a log of n records
        costs n frames of writes, not n images."""
        written = []
        monkeypatch.setattr(
            wal_module, "open", spying_open(
                lambda handle, data: (written.append(len(data)),
                                      handle.write(data))),
            raising=False)
        log = WriteAheadLog(path=tmp_path / "round.wal")
        for record in sample_records():
            log.append(record)
        frames = [len(encode_record(r)) for r in sample_records()]
        assert written == [len(WAL_MAGIC) + frames[0], *frames[1:]]
        assert (tmp_path / "round.wal").read_bytes() == log.image()

    @pytest.mark.parametrize("landed", [0, 5],
                             ids=["before-write", "mid-frame"])
    def test_writer_killed_inside_append_loses_no_earlier_record(
            self, tmp_path, monkeypatch, landed):
        """The crash the WAL exists for: the process dies inside the
        fourth append's write.  The three records already journaled stay
        readable; what the dying write left is at most a torn tail,
        trimmed (atomically) by the next open."""
        path = tmp_path / "round.wal"
        log = WriteAheadLog(path=path)
        for record in sample_records():
            log.append(record)
        intact = path.read_bytes()

        with monkeypatch.context() as patch:
            patch.setattr(wal_module, "open", dying_open(landed),
                          raising=False)
            with pytest.raises(Killed):
                log.append(WalRecord(ROUND_OPEN, 1))
        assert path.read_bytes()[:len(intact)] == intact

        reopened = WriteAheadLog(path=path)
        assert list(reopened.records) == sample_records()
        assert reopened.torn_tail_dropped == (landed > 0)
        assert path.read_bytes() == intact
        assert [p.name for p in tmp_path.iterdir()] == ["round.wal"]
        assert reopened.append(WalRecord(ROUND_OPEN, 1)) == 3
        assert len(WriteAheadLog(path=path)) == 4

    @pytest.mark.parametrize("landed", [1, 2, 3, 4, 5, 12, -1])
    def test_writer_killed_inside_the_magic_reopens_empty(
            self, tmp_path, monkeypatch, landed):
        """Killed anywhere inside its very first append -- in the magic
        (1-3), right after it (4), or in record 0's frame (5, 12, all
        but the last byte) -- a writer has recorded nothing: the node
        reopens on an empty log (the stub trimmed away, magic included,
        since the next append brings its own), not on a corrupt one, and
        journals on from LSN 0 into a file that is its image."""
        path = tmp_path / "round.wal"
        first = WAL_MAGIC + encode_record(sample_records()[0])

        with monkeypatch.context() as patch:
            patch.setattr(wal_module, "open", dying_open(landed),
                          raising=False)
            with pytest.raises(Killed):
                WriteAheadLog(path=path).append(sample_records()[0])
        assert path.read_bytes() == first[:landed]

        reopened = WriteAheadLog(path=path)
        assert reopened.torn_tail_dropped
        assert len(reopened) == 0
        assert path.read_bytes() == reopened.image() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["round.wal"]
        assert reopened.append(sample_records()[0]) == 0
        assert path.read_bytes() == reopened.image() == first
        again = WriteAheadLog(path=path)
        assert not again.torn_tail_dropped
        assert list(again.records) == sample_records()[:1]

    def test_empty_file_is_valid_empty_log(self, tmp_path):
        path = tmp_path / "empty.wal"
        path.write_bytes(b"")
        log = WriteAheadLog(path=path)
        assert len(log) == 0

    def test_file_bytes_and_both_derived_images_agree(self, tmp_path):
        """The image is derived from the records, so it has to be what
        the appends wrote: for every record kind, the file, the
        file-backed log's image and an in-memory log's image are the
        same bytes -- as appended, after a reopen, and after a torn
        tail was trimmed."""
        records = [WalRecord(kind, index // 3, incarnation=index // 5,
                             payload={"frame": f"{index:02x}" * index,
                                      "survivors": ["client-0"] * index})
                   for index, kind in enumerate(RECORD_KINDS)]
        path = tmp_path / "round.wal"
        on_disk, in_memory = WriteAheadLog(path=path), WriteAheadLog()
        assert on_disk.image() == in_memory.image() == b""
        for record in records:
            on_disk.append(record)
            in_memory.append(record)
            assert path.read_bytes() == on_disk.image() == in_memory.image()

        reopened = WriteAheadLog(path=path)
        assert path.read_bytes() == reopened.image() == in_memory.image()

        path.write_bytes(path.read_bytes()[:-3])
        trimmed = WriteAheadLog(path=path)
        assert trimmed.torn_tail_dropped
        assert path.read_bytes() == trimmed.image() == \
            WriteAheadLog.from_bytes(in_memory.image()[:-3]).image()
        trimmed.append(records[-1])
        assert path.read_bytes() == trimmed.image() == in_memory.image()

    def test_a_failed_append_leaves_no_trace(self, tmp_path, monkeypatch):
        """A write that fails half way through its frame (a full disk)
        is cut back off: the log neither counts the record nor keeps its
        bytes, so the next acknowledged append lands right after the
        last one and a reopen returns every acknowledged record."""
        path = tmp_path / "round.wal"
        log = WriteAheadLog(path=path)
        first, second, third = sample_records()
        log.append(first)
        with monkeypatch.context() as patch:
            patch.setattr(wal_module, "open", spying_open(full_disk),
                          raising=False)
            with pytest.raises(OSError, match="No space"):
                log.append(second)
        assert len(log) == 1
        assert path.read_bytes() == log.image()
        assert log.append(third) == 1
        assert path.read_bytes() == log.image()
        reopened = WriteAheadLog(path=path)
        assert not reopened.torn_tail_dropped
        assert list(reopened.records) == [first, third]

    def test_a_failed_append_that_cannot_be_cut_back_refuses_the_next(
            self, tmp_path, monkeypatch):
        """If the torn half-frame cannot be truncated away either, no
        later append may land behind it (a reopen would trim it as part
        of the torn tail): the log refuses them, typed."""
        path = tmp_path / "round.wal"
        log = WriteAheadLog(path=path)
        first, second, third = sample_records()
        log.append(first)
        spied = spying_open(full_disk)

        def opener(path, mode):
            if mode == "r+b":
                raise OSError(errno.EIO, "Input/output error")
            return spied(path, mode)

        with monkeypatch.context() as patch:
            patch.setattr(wal_module, "open", opener, raising=False)
            with pytest.raises(OSError, match="No space"):
                log.append(second)
        with pytest.raises(WalError, match="refuses appends"):
            log.append(third)
        assert len(log) == 1
        reopened = WriteAheadLog(path=path)
        assert reopened.torn_tail_dropped
        assert list(reopened.records) == [first]

    def test_the_journal_is_held_once(self):
        """The accepted frames are the journal's bulk, and the records
        already hold them: a second copy (a byte image kept beside the
        records) doubles what every node retains per round."""
        log = WriteAheadLog()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(200):
                client = f"client-{index}"
                log.append(WalRecord(UPLOAD_ACCEPTED, 0, payload={
                    "client": client, "dedupe_key": f"r0:{client}",
                    "frame": f"{index:04x}" * 512}))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        framed = sum(len(encode_record(r)) for r in log.records)
        assert retained < 1.5 * framed


class TestCheckpoint:
    """Compaction: one checkpoint stands for every dropped record, LSNs
    stay absolute, and a checkpoint anywhere else is typed damage."""

    def compacted_log(self, path=None):
        """Round 0 journaled, round 1 opened, then compacted."""
        log = WriteAheadLog(path=path)
        for record in sample_records():
            log.append(record)
        log.append(WalRecord(ROUND_OPEN, 1, incarnation=1))
        log.compact(checkpoint_record())
        return log

    def test_compaction_keeps_lsns_absolute(self):
        log = self.compacted_log()
        assert (len(log), log.first_lsn) == (4, 3)
        assert list(log.records) == [checkpoint_record(),
                                     WalRecord(ROUND_OPEN, 1, incarnation=1)]
        upload = WalRecord(UPLOAD_ACCEPTED, 1, incarnation=1)
        assert log.append(upload) == 4
        clone = WriteAheadLog.from_bytes(log.image())
        assert clone.records == log.records
        assert (len(clone), clone.first_lsn) == (5, 3)
        assert clone.image() == log.image()

    @pytest.mark.parametrize("lsn", [2, 3, 4])
    def test_a_compaction_drops_a_record_and_keeps_one(self, lsn):
        log = self.compacted_log()   # holds LSN 3 only
        with pytest.raises(ValueError, match="drop a record and keep one"):
            log.compact(checkpoint_record(lsn=lsn))

    def test_a_checkpoint_is_never_appended(self):
        with pytest.raises(WalError, match="never appended"):
            WriteAheadLog().append(checkpoint_record())

    def test_file_backed_compaction_writes_the_image(self, tmp_path):
        path = tmp_path / "round.wal"
        log = self.compacted_log(path)
        assert path.read_bytes() == log.image()
        assert [p.name for p in tmp_path.iterdir()] == ["round.wal"]
        log.append(WalRecord(UPLOAD_ACCEPTED, 1, incarnation=1))
        assert path.read_bytes() == log.image()
        reopened = WriteAheadLog(path=path)
        assert reopened.records == log.records and len(reopened) == 5

    @pytest.mark.parametrize("where", ["second", "last", "twice"])
    def test_a_checkpoint_anywhere_but_first_is_typed(self, where):
        frames = [encode_record(record) for record in sample_records()]
        checkpoint = encode_record(checkpoint_record())
        if where == "second":
            frames.insert(1, checkpoint)
        elif where == "last":
            frames.append(checkpoint)   # intact: damage, not a torn tail
        else:
            frames[:0] = [checkpoint, checkpoint]
        with pytest.raises(WalError, match="only a log's first record"):
            replay_wal(WAL_MAGIC + b"".join(frames))

    @pytest.mark.parametrize("lie", [
        {"closed_rounds": []}, {"closed_rounds": "0"},
        {"closed_rounds": {}}, {"closed_rounds": {"00": 1}},
        {"closed_rounds": {"-1": 1}}, {"closed_rounds": {"0": -1}},
        {"closed_rounds": {"0": 1 << 32}}, {"closed_rounds": {"0": True}},
        {"lsn": -1}, {"lsn": 1}, {"lsn": "7"}, {"lsn": True},
        {"lsn": 2.5}, {"lsn": None},
        {"max_incarnation": 2}, {"max_incarnation": -1},
        {"extra": 0},
    ], ids=lambda lie: json.dumps(lie))
    def test_a_lying_checkpoint_is_typed(self, lie):
        """Each lie passes the CRC; the field checks catch it."""
        data = checkpoint_record().to_dict()
        data["payload"].update(lie)
        with pytest.raises(WalError, match="rejected"):
            decode_record(raw_frame(data))
        with pytest.raises(ValueError):
            WalRecord(CHECKPOINT, 1, incarnation=1, payload=data["payload"])

    def test_a_missing_checkpoint_field_is_typed(self):
        data = checkpoint_record().to_dict()
        del data["payload"]["max_incarnation"]
        with pytest.raises(WalError, match="rejected"):
            decode_record(raw_frame(data))
