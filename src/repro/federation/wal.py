"""Write-ahead log for the durable coordinator.

The coordinator journals every round transition *before* applying it, so
a crash at any point leaves a log from which a successor reconstructs
the exact in-flight state (accepted uploads included, ciphertext words
and all).  The format is deliberately boring and fully self-checking:

    file  := [magic "FWL1"] [checkpoint] record*  (magic only when non-empty)
    record:= [u32 payload_len][u32 crc32(payload)][payload]

(a checkpoint is framed like any record).  The payload is canonical JSON
(sorted keys, compact separators) of a :class:`WalRecord` -- kind, round
index, coordinator incarnation, and a kind-specific payload dict.
Accepted client uploads embed the full serialized ``FLT3`` tensor frame
(hex), which is what makes recovery *bit-identical*: the successor
re-sums the very ciphertext words the dead coordinator had accepted
instead of asking clients to resend.

Log sequence numbers are *absolute*: the record with LSN ``k`` is the
``k``-th the log ever appended, however much was dropped since.  A round
node keeps its journal one round long: when its next round opens, it
compacts the log (:meth:`WriteAheadLog.compact`) to one ``checkpoint``
record followed by the new ``round_open``.  The checkpoint carries what
replay cannot re-derive once the records before it are gone -- the
closed rounds' digests, the highest incarnation seen, and the LSN at
which the log resumes -- and takes no LSN itself.  It is legal only as a
log's first record; anywhere else it is a :class:`WalError`.  An image
without one (a log that never compacted) replays as it always did.

Replay semantics (:func:`replay_wal`) distinguish the two corruption
shapes a crash can leave:

- a **torn tail** -- the final record is incomplete (its declared length
  runs past end-of-file, or a first append stopped inside the magic) or
  fails its CRC with nothing after it.  That is the signature of a
  coordinator killed mid-``write``; the tail is dropped and replay
  succeeds with the records before it.
- **mid-log corruption** -- a record fails validation but intact records
  follow it.  No crash produces that (appends are sequential), so it is
  a :class:`WalError`, never silently skipped.

Every decoder in this module raises the *typed* :class:`WalError` (a
:class:`~repro.federation.serialization.FrameError` subclass) on
malformed input; the wire fuzzer asserts that no mutation ever escalates
to a different exception class or decodes into bytes the encoder would
not produce.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.federation.serialization import FrameError

#: File magic; written before the first record.
WAL_MAGIC = b"FWL1"
#: Per-record frame header: payload length, crc32 of the payload.
RECORD_HEADER = struct.Struct(">II")
#: Hard ceiling on one record's payload -- anything larger is a length
#: lie, not a real record (the biggest genuine records are accepted
#: uploads, well under a mebibyte at benchmark key sizes).
MAX_PAYLOAD_BYTES = 1 << 26

#: The round-lifecycle record kinds, in their only legal order.  A
#: round commits exactly one of ``decrypt_committed`` (a decrypting
#: coordinator: the flat path, or the sharded root) or
#: ``partial_committed`` (a leaf shard that combines ciphertexts but
#: never holds the key: its commit is the combined ciphertext frame,
#: forwarded to the root).
ROUND_OPEN = "round_open"
UPLOAD_ACCEPTED = "upload_accepted"
QUORUM_REACHED = "quorum_reached"
DECRYPT_COMMITTED = "decrypt_committed"
PARTIAL_COMMITTED = "partial_committed"
ROUND_CLOSE = "round_close"
#: Elastic-rebalancing handoff records (PR 9).  These belong to the
#: *shard pool's* topology journal, never to a round coordinator's log:
#: ``shard_split`` pins a parent shard's replacement by two children
#: (and the deterministic assignment of its in-flight queue entries),
#: ``shard_merge`` pins two source shards' replacement by one target.
#: :class:`~repro.federation.coordinator.RoundStateMachine` explicitly
#: rejects both kinds.
SHARD_SPLIT = "shard_split"
SHARD_MERGE = "shard_merge"

RECORD_KINDS = (ROUND_OPEN, UPLOAD_ACCEPTED, QUORUM_REACHED,
                DECRYPT_COMMITTED, PARTIAL_COMMITTED, ROUND_CLOSE,
                SHARD_SPLIT, SHARD_MERGE)

#: The subset legal in a shard-pool topology journal.
REBALANCE_KINDS = (SHARD_SPLIT, SHARD_MERGE)

#: Stands for every record a compaction dropped (module docstring).  Not
#: one of :data:`RECORD_KINDS`: nothing appends it, it takes no LSN, and
#: only a log's first record may be one.
CHECKPOINT = "checkpoint"
#: A checkpoint's payload fields, exactly.
CHECKPOINT_FIELDS = ("closed_rounds", "lsn", "max_incarnation")


class WalError(FrameError):
    """A WAL frame failed validation (malformed, lying, or corrupt).

    The typed rejection the WAL decoders must produce for hostile or
    damaged input.  Subclasses
    :class:`~repro.federation.serialization.FrameError` (itself a
    ``ValueError``) so the fuzzer's typed-rejection oracle covers it.
    """


@dataclass(frozen=True)
class WalRecord:
    """One journaled round transition.

    Attributes:
        kind: One of :data:`RECORD_KINDS`.
        round_index: The aggregation round the record belongs to.
        incarnation: The writing coordinator's incarnation number; a
            successor's records carry a strictly larger incarnation, so
            replay can tell which coordinator wrote what and fencing can
            reject a deposed primary.
        payload: Kind-specific fields (client name and tensor frame for
            ``upload_accepted``, survivor list for ``quorum_reached``,
            the decoded result for ``decrypt_committed``, ...).
    """

    kind: str
    round_index: int
    incarnation: int = 0
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS and self.kind != CHECKPOINT:
            raise ValueError(f"unknown WAL record kind {self.kind!r}; "
                             f"choose from {RECORD_KINDS + (CHECKPOINT,)}")
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")
        if self.incarnation < 0:
            raise ValueError("incarnation must be non-negative")
        if self.kind == CHECKPOINT:
            _check_checkpoint(self)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "round_index": self.round_index,
                "incarnation": self.incarnation, "payload": self.payload}


def _natural(value) -> bool:
    """A non-negative JSON integer (Python's ``bool`` is not one here)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _check_checkpoint(record: WalRecord) -> None:
    """Refuse (``ValueError``) a checkpoint no compaction would write."""
    payload = record.payload
    if not isinstance(payload, dict) or \
            tuple(sorted(payload)) != CHECKPOINT_FIELDS:
        raise ValueError(
            f"a checkpoint's payload holds exactly {CHECKPOINT_FIELDS}")
    closed = payload["closed_rounds"]
    if not isinstance(closed, dict) or not closed:
        raise ValueError("a checkpoint's closed_rounds must be a "
                         "non-empty object: a compaction follows a "
                         "closed round")
    for index, digest in closed.items():
        if not (isinstance(index, str) and index.isascii()
                and index.isdigit() and index == str(int(index))):
            raise ValueError(f"closed round {index!r} is not a round "
                             f"index in canonical decimal")
        if not (_natural(digest) and digest < 1 << 32):
            raise ValueError(f"closed round {index} has digest "
                             f"{digest!r}, not a CRC-32")
    most = payload["max_incarnation"]
    if not (_natural(most) and most <= record.incarnation):
        raise ValueError(
            f"a checkpoint's max_incarnation {most!r} must be an integer "
            f"in [0, {record.incarnation}] (its writer's incarnation)")
    lsn = payload["lsn"]
    if not (_natural(lsn) and lsn >= 2 * len(closed)):
        raise ValueError(
            f"a checkpoint resuming at LSN {lsn!r} cannot stand for "
            f"{len(closed)} closed rounds of at least two records each")


def encode_record(record: WalRecord) -> bytes:
    """Frame one record: length prefix, CRC, canonical-JSON payload."""
    payload = json.dumps(record.to_dict(), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return RECORD_HEADER.pack(len(payload),
                              zlib.crc32(payload)) + payload


def decode_record(blob: bytes) -> WalRecord:
    """Strictly invert :func:`encode_record` on exactly one frame.

    The frame must consume the whole input, the CRC must match, the
    payload must be the *canonical* JSON encoding (re-encoding must be
    byte-identical), and every field must validate.  Anything else is a
    :class:`WalError`.
    """
    record, consumed = _decode_one(blob, offset=0)
    if consumed != len(blob):
        raise WalError(
            f"oversized record frame: {consumed} bytes consumed, "
            f"{len(blob)} supplied")
    return record


def _decode_one(blob: bytes, offset: int) -> Tuple[WalRecord, int]:
    """Decode the record framed at ``offset``; returns (record, end).

    Raises :class:`WalError` on any malformation; the *caller* decides
    whether a failure at end-of-log is a torn tail or corruption.
    """
    header_end = offset + RECORD_HEADER.size
    if header_end > len(blob):
        raise WalError(
            f"truncated record header at offset {offset}: needs "
            f"{RECORD_HEADER.size} bytes, {len(blob) - offset} left")
    length, crc = RECORD_HEADER.unpack(blob[offset:header_end])
    if length > MAX_PAYLOAD_BYTES:
        raise WalError(
            f"record at offset {offset} declares an implausible "
            f"{length}-byte payload (ceiling {MAX_PAYLOAD_BYTES})")
    end = header_end + length
    if end > len(blob):
        raise WalError(
            f"truncated record at offset {offset}: payload declares "
            f"{length} bytes, {len(blob) - header_end} left")
    payload = blob[header_end:end]
    if zlib.crc32(payload) != crc:
        raise WalError(
            f"record at offset {offset} failed its CRC "
            f"(stored 0x{crc:08x}, computed 0x{zlib.crc32(payload):08x})")
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WalError(
            f"record at offset {offset} holds invalid JSON "
            f"({error})") from error
    if not isinstance(data, dict):
        raise WalError(
            f"record at offset {offset} decodes to "
            f"{type(data).__name__}, not an object")
    try:
        record = WalRecord(
            kind=data["kind"], round_index=data["round_index"],
            incarnation=data.get("incarnation", 0),
            payload=data.get("payload", {}))
    except (KeyError, TypeError, ValueError) as error:
        raise WalError(
            f"record at offset {offset} rejected: "
            f"{type(error).__name__}: {error}") from error
    if encode_record(record) != blob[offset:end]:
        # Same CRC, different canonical form (e.g. reordered keys or
        # extra fields the dataclass drops): refuse rather than invent
        # an interpretation the encoder would never produce.
        raise WalError(
            f"record at offset {offset} is not in canonical form")
    return record, end


@dataclass
class WalReplay:
    """Outcome of replaying a WAL byte image.

    Attributes:
        records: The intact records, in append order.
        consumed_bytes: Bytes covered by the magic plus intact records
            (0 when there are none); re-encoding :attr:`records`
            reproduces exactly this prefix.
        torn_tail: Whether trailing bytes were dropped as a torn write
            (coordinator killed mid-append).
    """

    records: List[WalRecord]
    consumed_bytes: int
    torn_tail: bool


def replay_wal(blob: bytes) -> WalReplay:
    """Replay a WAL image, tolerating exactly one torn tail.

    An empty image is an empty log.  An image must start with the magic
    (or, when shorter, be a prefix of it), and only its first record may
    be a checkpoint (a :class:`WalError` otherwise).  A record that fails
    validation is dropped as a torn tail only when nothing intact
    follows it; otherwise the log is corrupt and :class:`WalError` is
    raised.  The magic travels with record 0, so when no record
    survives, whatever the first append left -- part of the magic, all
    of it, part of record 0's frame -- recorded nothing: the empty log
    with a torn tail and nothing consumed.
    """
    if not WAL_MAGIC.startswith(blob[:len(WAL_MAGIC)]):
        raise WalError(
            f"not a WAL image: expected magic {WAL_MAGIC!r}, got "
            f"{blob[:len(WAL_MAGIC)]!r}")
    records: List[WalRecord] = []
    offset = len(WAL_MAGIC)
    torn_tail = False
    while offset < len(blob):
        try:
            record, offset_after = _decode_one(blob, offset)
        except WalError as error:
            if _intact_record_follows(blob, offset):
                raise WalError(
                    f"mid-log corruption: {error} (intact records "
                    f"follow, so this is damage, not a torn "
                    f"write)") from error
            torn_tail = True
            break
        if record.kind == CHECKPOINT and records:
            raise WalError(
                f"checkpoint as record {len(records)} (offset {offset}): "
                f"it stands for the records a compaction dropped, so "
                f"only a log's first record can be one")
        records.append(record)
        offset = offset_after
    if not records:
        return WalReplay(records=[], consumed_bytes=0,
                         torn_tail=bool(blob))
    return WalReplay(records=records, consumed_bytes=offset,
                     torn_tail=torn_tail)


def _intact_record_follows(blob: bytes, failed_offset: int) -> bool:
    """Whether any intact record exists after a failed frame.

    A torn write damages only the *final* append; damage with valid
    records after it means the log body itself was corrupted.  The scan
    resynchronizes on the failed record's declared extent when that is
    available, which is how a sequential writer would have laid out the
    next record.
    """
    header_end = failed_offset + RECORD_HEADER.size
    if header_end > len(blob):
        return False  # not even a full header: pure truncation
    length, _crc = RECORD_HEADER.unpack(blob[failed_offset:header_end])
    if length > MAX_PAYLOAD_BYTES or header_end + length >= len(blob):
        return False  # declared extent swallows the rest of the file
    try:
        _decode_one(blob, header_end + length)
    except WalError:
        return False
    return True


def _write_durably(path: Path, mode: str, data: bytes) -> None:
    with open(path, mode) as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_directory(directory: Path) -> None:
    """Fsync a directory entry so a just-renamed file survives a crash.

    Some filesystems (and all of Windows) refuse ``O_RDONLY`` opens or
    fsync on directories; the rename is already atomic there, so the
    extra durability step is best-effort.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def replace_durably(path: Path, data: bytes) -> None:
    """Atomically and durably make ``data`` the whole of ``path``.

    Write ``<name>.tmp``, fsync it, rename it over ``path``, fsync the
    directory: a crash at any point leaves the old complete file or the
    new complete one, never a torn one, and once this returns the rename
    survives power loss.  A stale ``.tmp`` from an earlier crashed
    replace is overwritten.
    """
    temporary = path.with_name(path.name + ".tmp")
    _write_durably(temporary, "wb", data)
    os.replace(temporary, path)
    _fsync_directory(path.parent)


class WriteAheadLog:
    """An append-only, CRC-framed record journal, compacted by round.

    The log *is* its records, held once, with an optional file
    (``path``) under them: the byte image is derived on demand
    (:meth:`image` re-encodes the records, byte-identical to what was
    written because every frame is canonical), so the deterministic
    simulator can run thousands of crash scenarios without touching
    disk while production use gets a real fsynced file.  A round node
    compacts its log when its next round opens (:meth:`compact`), so it
    holds one checkpoint and one round of records however many rounds
    it ran; LSNs stay absolute -- :meth:`append` returns, and ``len()``
    counts, every record ever appended.

    Args:
        path: Journal file; every append writes its one frame at the end
            of the file, flushed and fsynced before it returns (the
            write-ahead guarantee), so a writer killed mid-append leaves
            every earlier record in place and at most a torn tail.
            ``None`` keeps the log purely in memory.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        #: Stands for every record before :attr:`first_lsn`; ``None``
        #: until the log is compacted.
        self.checkpoint: Optional[WalRecord] = None
        #: The records from :attr:`first_lsn` on, in append order.
        self._records: List[WalRecord] = []
        self.torn_tail_dropped = False
        #: Why appends are refused: a failed append left part of a frame
        #: in the file that could not be cut off again.
        self._unwritable: Optional[OSError] = None
        if self.path is not None and self.path.exists():
            self._load(self.path.read_bytes())

    # ------------------------------------------------------------------
    # Construction from an existing image.
    # ------------------------------------------------------------------

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WriteAheadLog":
        """Open an in-memory log over an existing image.

        A torn tail is trimmed (and flagged on
        :attr:`torn_tail_dropped`); mid-log corruption raises
        :class:`WalError`.
        """
        log = cls()
        log._load(blob)
        return log

    def _load(self, blob: bytes) -> None:
        result = replay_wal(blob)
        records = result.records
        if records and records[0].kind == CHECKPOINT:
            self.checkpoint, records = records[0], records[1:]
        self._records = records
        self.torn_tail_dropped = result.torn_tail
        if result.torn_tail and self.path is not None:
            # Persist the trim so the next reader sees a clean log.  The
            # rewrite goes through a temp file and an atomic rename:
            # dying here leaves the torn file or the trimmed one, never
            # less than the intact prefix -- and the directory fsync
            # keeps the rename, so records appended to the new file
            # later cannot vanish with it on power loss.
            replace_durably(self.path, blob[:result.consumed_bytes])

    # ------------------------------------------------------------------
    # Appending and compacting.
    # ------------------------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Durably append one record; returns its log sequence number.

        A file-backed log holds the record only once its frame is in the
        file, so an append that raises leaves ``len()`` and
        :meth:`image` as they were.  When the write itself fails (an
        ``OSError``: a full disk, say), whatever part of the frame
        reached the file is cut off again, so the next acknowledged
        append lands right after the last one; if even that fails, the
        log refuses every later append rather than journal past a torn
        frame that the next open would trim with them.
        """
        if record.kind == CHECKPOINT:
            raise WalError("a checkpoint is never appended: compact() "
                           "writes it in place of the records it stands "
                           "for")
        if self.path is not None:
            frame = encode_record(record)
            if not len(self):
                frame = WAL_MAGIC + frame  # the magic travels with record 0
            self._write_frame(frame)
        self._records.append(record)
        return len(self) - 1

    def _write_frame(self, frame: bytes) -> None:
        """Append ``frame`` to the file, all of it or none of it."""
        if self._unwritable is not None:
            raise WalError(
                f"journal {self.path} refuses appends: a failed append "
                f"left a partial frame that could not be cut off "
                f"({self._unwritable})")
        intact = self.path.stat().st_size if self.path.exists() else 0
        try:
            _write_durably(self.path, "ab", frame)
        except OSError:
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(intact)
                    os.fsync(handle.fileno())
            except OSError as error:
                self._unwritable = error
            raise

    def compact(self, checkpoint: WalRecord) -> None:
        """Drop every record before ``checkpoint``'s resume LSN; the
        checkpoint stands in for them as the log's first record.

        LSNs do not move: the records kept keep theirs and the next
        append gets the one it would have had.  A file-backed log swaps
        in its new image through :func:`replace_durably`, so a writer
        killed anywhere inside the compaction leaves the old image or
        the new one, and both replay to the same state.
        """
        if checkpoint.kind != CHECKPOINT:
            raise ValueError(f"compact() takes a checkpoint record, not "
                             f"{checkpoint.kind!r}")
        lsn = checkpoint.payload["lsn"]
        if not self.first_lsn < lsn < len(self):
            raise ValueError(
                f"a checkpoint resuming at LSN {lsn} must drop a record "
                f"and keep one; the log holds LSNs "
                f"{self.first_lsn}..{len(self) - 1}")
        kept = self._records[lsn - self.first_lsn:]
        if self.path is not None:
            replace_durably(self.path, _image([checkpoint, *kept]))
        self.checkpoint, self._records = checkpoint, kept

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    @property
    def first_lsn(self) -> int:
        """LSN of the first record the log still holds (0 until it is
        compacted)."""
        return 0 if self.checkpoint is None \
            else self.checkpoint.payload["lsn"]

    @property
    def records(self) -> Tuple[WalRecord, ...]:
        """Every record the log holds, in order: the checkpoint (once
        the log was compacted), then the records from :attr:`first_lsn`."""
        head = () if self.checkpoint is None else (self.checkpoint,)
        return head + tuple(self._records)

    def __len__(self) -> int:
        """Records ever appended: the LSN the next append gets."""
        return self.first_lsn + len(self._records)

    def image(self) -> bytes:
        """The full byte image (what a crashed coordinator leaves)."""
        return _image(self.records)


def _image(records: Sequence[WalRecord]) -> bytes:
    """``FWL1`` and one canonical frame per record; empty for none."""
    if not records:
        return b""
    return WAL_MAGIC + b"".join(encode_record(record) for record in records)
