"""Structured fuzzer for the FLT2 / FLT3 wire formats and the WAL.

Seeded mutation of valid frames -- bit flips, truncation, extension,
length-field lies, fingerprint swaps, magic/version tampering,
FLT3-specific codec-block attacks (codec-id lies, codec-parameter
corruption, sparse-pattern lies: out-of-range / duplicate / unsorted
indices), and WAL-specific CRC lies, record splices and checkpoint lies
(misplaced, doubled, a lying resume LSN, a ``closed_rounds`` that is not
an object) -- with a strict two-sided oracle on every case:

- a decoder may **reject** the mutant, but only with a *typed* error
  (:class:`~repro.federation.serialization.FrameError` or its
  ``ValueError`` family, including
  :class:`~repro.tensor.meta.KeyMismatchError`); any other exception is
  a **crash** finding;
- a decoder may **accept** the mutant, but then canonical
  re-serialization must reproduce the mutated bytes exactly -- the
  mutant was a genuinely valid frame.  An accepted frame that does not
  round-trip is a **silent mis-decode** finding: the decoder invented an
  interpretation the encoder would never produce.  For WAL images the
  accept side covers torn-tail trimming: replay may drop an incomplete
  final record, but the records it keeps must re-encode byte-exactly
  into the consumed prefix.

Determinism: the whole campaign derives from one seed (ints directly;
strings such as ``"ci"`` are hashed), so a finding's ``(seed, case)``
pair reproduces the exact mutant bytes in a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.federation.serialization import (
    FrameError,
    TENSOR_HEADER,
    TENSOR_MAGIC,
    TENSOR_VERSION,
    deserialize_tensor,
    serialize_tensor,
)
from repro.federation.wal import (
    CHECKPOINT,
    RECORD_HEADER,
    RECORD_KINDS,
    WAL_MAGIC,
    WalRecord,
    encode_record,
    replay_wal,
)
from repro.quantization.encoding import QuantizationScheme
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import TensorMeta

#: Mutation strategy names, weighted uniformly per case.
MUTATIONS = (
    "bit_flip",          # one random bit anywhere in the frame
    "header_bit_flip",   # one random bit inside the header
    "truncate",          # cut the frame at a random offset
    "extend",            # append random bytes
    "length_lie",        # overwrite a count/width field with a lie
    "fingerprint_swap",  # swap in a different (valid-shape) fingerprint
    "magic_swap",        # replace the magic with another format's/garbage
    "version_bump",      # change the version byte
    "slice_scramble",    # overwrite a random slice with random bytes
    "crc_lie",           # WAL: overwrite one record's CRC field
    "record_splice",     # WAL: duplicate or delete one record frame
    "codec_id_lie",      # FLT3: rewrite the codec id / its length byte
    "codec_param_corrupt",  # FLT3: corrupt one codec parameter or count
    "sparse_index_lie",  # FLT3: out-of-range/duplicate/unsorted pattern
    "checkpoint_lie",    # WAL: misplaced/doubled/lying checkpoint
)


def resolve_seed(seed: Union[int, str]) -> int:
    """Ints pass through; strings (e.g. ``"ci"``) hash deterministically."""
    if isinstance(seed, int):
        return seed
    digest = hashlib.sha256(seed.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class FuzzFinding:
    """One oracle violation; carries everything needed to reproduce."""

    kind: str  # "crash" | "silent_misdecode"
    case_index: int
    mutation: str
    format: str
    detail: str
    blob_hex: str

    def __str__(self) -> str:
        return (f"[{self.kind}] case {self.case_index} "
                f"({self.format}, {self.mutation}): {self.detail}\n"
                f"  blob: {self.blob_hex}")


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int
    cases: int = 0
    rejected: int = 0
    accepted: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    by_mutation: Dict[str, int] = field(default_factory=dict)
    by_format: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases} cases, seed {self.seed}: "
            f"{self.rejected} typed rejections, {self.accepted} valid "
            f"round-trips, {len(self.findings)} findings",
        ]
        for name in sorted(self.by_mutation):
            lines.append(f"  {name:16s} {self.by_mutation[name]}")
        for finding in self.findings:
            lines.append(str(finding))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Corpus: valid frames the mutations start from.
# ----------------------------------------------------------------------

#: The codec block of a dense FLT3 frame: id length, id, zero params.
_DENSE_CODEC_BLOCK = bytes([len("dense")]) + b"dense" + bytes(4)


def downgrade_to_flt2(frame: bytes) -> bytes:
    """The legacy FLT2 spelling of a dense FLT3 frame: FLT2 magic and
    version byte, codec block dropped (v2 implies dense).  Nothing
    writes FLT2 any more, but the reader still takes it from outside,
    so the fuzzer keeps seeding it."""
    dims_end = TENSOR_HEADER.size + 4 * frame[6]
    body_start = dims_end + len(_DENSE_CODEC_BLOCK)
    if frame[dims_end:body_start] != _DENSE_CODEC_BLOCK:
        raise ValueError(
            "FLT2 frames can only describe the parameterless dense codec")
    return (TENSOR_MAGIC + bytes([TENSOR_VERSION]) + frame[5:dims_end]
            + frame[body_start:])


def _tensor_frame(rng: random.Random) -> Tuple[str, bytes, int]:
    """A valid legacy FLT2 frame with random (but consistent) geometry."""
    capacity = rng.choice([1, 1, 3, 4])
    count = rng.randrange(0, 9)
    num_words = 0 if count == 0 else -(-count // capacity)
    width = rng.choice([8, 16, 32])
    words = [rng.getrandbits(8 * width - 3) for _ in range(num_words)]
    fingerprint = bytes(rng.getrandbits(8) for _ in range(16))
    meta = TensorMeta(
        key_fingerprint=fingerprint,
        nominal_bits=rng.choice([1024, 2048]),
        physical_bits=8 * width // 2,
        scheme=QuantizationScheme(alpha=1.0,
                                  r_bits=rng.choice([16, 30]),
                                  num_parties=rng.randrange(1, 9)),
        capacity=capacity,
        shape=(count,),
        count=count,
        summands=rng.randrange(1, 5),
        packed=capacity > 1,
    )
    tensor = CipherTensor(meta, words=words)
    frame = downgrade_to_flt2(
        serialize_tensor(tensor, ciphertext_bytes=width))
    return "tensor", frame, width


def _tensor3_frame(rng: random.Random) -> Tuple[str, bytes, int]:
    """A valid FLT3 frame under a random registered codec."""
    scheme = QuantizationScheme(alpha=1.0,
                                r_bits=rng.choice([16, 30]),
                                num_parties=rng.randrange(1, 9))
    capacity = rng.choice([1, 2, 3, 4])
    codec = rng.choice(["dense", "interleave", "sparse"])
    if codec == "dense":
        count = rng.randrange(0, 9)
        params: Tuple[int, ...] = ()
    elif codec == "interleave":
        count = rng.randrange(0, 9)
        params = (scheme.overflow_bits + rng.choice([0, 4, 8]),)
    else:
        count = rng.randrange(1, 9)
        nnz = rng.randrange(0, count + 1)
        indices = sorted(rng.sample(range(count), nnz))
        params = (rng.choice([4, 8, 12]), *indices)
    width = rng.choice([8, 16, 32])
    fingerprint = bytes(rng.getrandbits(8) for _ in range(16))
    meta = TensorMeta(
        key_fingerprint=fingerprint,
        nominal_bits=rng.choice([1024, 2048]),
        physical_bits=8 * width // 2,
        scheme=scheme,
        capacity=capacity,
        shape=(count,),
        count=count,
        summands=rng.randrange(1, 5),
        packed=capacity > 1,
        codec=codec,
        codec_params=params,
    )
    words = [rng.getrandbits(8 * width - 3)
             for _ in range(meta.num_words)]
    tensor = CipherTensor(meta, words=words)
    frame = serialize_tensor(tensor, ciphertext_bytes=width)
    return "tensor3", frame, width


def _checkpoint_record(rng: random.Random) -> WalRecord:
    """A valid checkpoint: 1-3 closed rounds, a plausible resume LSN."""
    closed = {str(index): rng.getrandbits(32)
              for index in range(rng.randrange(1, 4))}
    incarnation = rng.randrange(3)
    return WalRecord(
        CHECKPOINT, len(closed), incarnation=incarnation,
        payload={"closed_rounds": closed,
                 "lsn": 2 * len(closed) + rng.randrange(40),
                 "max_incarnation": rng.randrange(incarnation + 1)})


def _wal_frame(rng: random.Random) -> Tuple[str, bytes, int]:
    """A valid WAL image: magic, a third of the time a checkpoint (a
    compacted log), then 1-4 framed records."""
    frames = []
    if rng.random() < 1 / 3:
        frames.append(encode_record(_checkpoint_record(rng)))
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(RECORD_KINDS)
        payload = {}
        if rng.random() < 0.5:
            payload = {"client": f"client-{rng.randrange(8)}",
                       "frame": bytes(rng.getrandbits(8) for _ in
                                      range(rng.randrange(0, 24))).hex()}
        frames.append(encode_record(WalRecord(
            kind=kind, round_index=rng.randrange(4),
            incarnation=rng.randrange(3), payload=payload)))
    return "wal", WAL_MAGIC + b"".join(frames), 0


def _wal_extents(blob: bytes) -> List[Tuple[int, int]]:
    """(start, end) byte extents of each record in a *valid* image."""
    extents = []
    offset = len(WAL_MAGIC)
    while offset < len(blob):
        length, _crc = RECORD_HEADER.unpack(
            blob[offset:offset + RECORD_HEADER.size])
        end = offset + RECORD_HEADER.size + length
        extents.append((offset, end))
        offset = end
    return extents


def _raw_frame(data: dict) -> bytes:
    """Frame a record dict as-is, CRC and all: how a lying field gets
    past the CRC check to the field validation."""
    payload = json.dumps(data, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _checkpoint_lie(rng: random.Random, blob: bytes) -> bytes:
    """A *valid* image's checkpoint (one is added when it has none)
    misplaced, doubled, or re-framed with a lying field."""
    frames = [blob[start:end] for start, end in _wal_extents(blob)]
    if replay_wal(blob).records[0].kind == CHECKPOINT:
        checkpoint = frames.pop(0)
    else:
        checkpoint = encode_record(_checkpoint_record(rng))
    attack = rng.choice(["not_first", "twice", "lsn_lie", "closed_rounds"])
    if attack == "not_first":
        frames.insert(rng.randrange(1, len(frames) + 1), checkpoint)
    elif attack == "twice":
        frames[:0] = [checkpoint, checkpoint]
    else:
        data = json.loads(checkpoint[RECORD_HEADER.size:])
        if attack == "lsn_lie":
            data["payload"]["lsn"] = rng.choice(
                [-1, 0, 1, "7", True, 2.5, None, 1 << 64])
        else:
            data["payload"]["closed_rounds"] = rng.choice(
                [[], [1, 2], "0", 7, None, True])
        frames.insert(0, _raw_frame(data))
    return WAL_MAGIC + b"".join(frames)


def _corpus_frame(rng: random.Random,
                  corpus: str = "all") -> Tuple[str, bytes, int]:
    draw = rng.random()
    if corpus == "packing":
        # The packing-focused campaign: only tensor frames, weighted
        # toward the codec-aware v3 format.
        return _tensor_frame(rng) if draw < 0.35 else _tensor3_frame(rng)
    if draw < 0.25:
        return _tensor_frame(rng)
    if draw < 0.50:
        return _tensor3_frame(rng)
    return _wal_frame(rng)


# ----------------------------------------------------------------------
# Mutations.
# ----------------------------------------------------------------------

def _flip_bit(blob: bytes, index: int, bit: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= 1 << bit
    return bytes(out)


def _codec_block_extent(blob: bytes) -> Tuple[int, int, int, int]:
    """Locate the codec block in a *valid* FLT3 frame.

    Returns ``(block_offset, id_len, params_offset, param_count)`` where
    ``params_offset`` points at the first 8-byte parameter.
    """
    offset = TENSOR_HEADER.size + 4 * blob[6]  # blob[6] is ndim
    id_len = blob[offset]
    params_at = offset + 1 + id_len
    param_count = int.from_bytes(blob[params_at:params_at + 4], "big")
    return offset, id_len, params_at + 4, param_count


def _mutate(rng: random.Random, fmt: str, blob: bytes,
            mutation: str) -> bytes:
    if fmt == "wal":
        header_size = len(WAL_MAGIC) + RECORD_HEADER.size
    else:
        header_size = TENSOR_HEADER.size
    if mutation == "bit_flip" and blob:
        return _flip_bit(blob, rng.randrange(len(blob)), rng.randrange(8))
    if mutation == "header_bit_flip":
        limit = min(header_size, len(blob))
        return _flip_bit(blob, rng.randrange(limit), rng.randrange(8))
    if mutation == "truncate":
        return blob[:rng.randrange(len(blob))] if blob else blob
    if mutation == "extend":
        extra = bytes(rng.getrandbits(8)
                      for _ in range(rng.randrange(1, 40)))
        return blob + extra
    if mutation == "length_lie":
        # Overwrite one of the count / width fields with a lying value.
        if fmt == "wal":
            extents = _wal_extents(blob)
            offset = rng.choice(extents)[0]   # a record's length field
        else:
            offset = rng.choice([8, 20, 24])  # count / num_words / width
        lie = rng.choice([0, 1, 0xFF, 0xFFFF, 0x7FFFFFFF,
                          rng.getrandbits(31)])
        out = bytearray(blob)
        out[offset:offset + 4] = lie.to_bytes(4, "big")
        return bytes(out)
    if mutation == "fingerprint_swap" and fmt in ("tensor", "tensor3"):
        out = bytearray(blob)
        out[48:64] = bytes(rng.getrandbits(8) for _ in range(16))
        return bytes(out)
    if mutation == "magic_swap":
        other = rng.choice([b"FLBP", b"FLT2", b"FLT3", b"FLT1",
                            b"\x00\x00\x00\x00",
                            bytes(rng.getrandbits(8) for _ in range(4))])
        return other + blob[4:]
    if mutation == "version_bump" and fmt in ("tensor", "tensor3"):
        out = bytearray(blob)
        out[4] = rng.choice([0, 1, 2, 3, 0xFF])
        return bytes(out)
    if mutation == "codec_id_lie" and fmt == "tensor3":
        offset, id_len, _params_at, _count = _codec_block_extent(blob)
        out = bytearray(blob)
        if rng.random() < 0.5:
            # Rewrite the id in place (same length, so the block still
            # parses): random lowercase ascii, occasionally a *real*
            # codec name that contradicts the parameters.
            real = [c for c in (b"dense", b"sparse") if len(c) == id_len]
            if real and rng.random() < 0.5:
                lie = rng.choice(real)
            else:
                lie = bytes(rng.randrange(97, 123) for _ in range(id_len))
            out[offset + 1:offset + 1 + id_len] = lie
        else:
            # Lie about the id length itself.
            out[offset] = rng.choice([0, id_len + 1, 0xFF])
        return bytes(out)
    if mutation == "codec_param_corrupt" and fmt == "tensor3":
        offset, _id_len, params_at, count = _codec_block_extent(blob)
        out = bytearray(blob)
        if count and rng.random() < 0.7:
            slot = rng.randrange(count)
            lie = rng.choice([0, 0xFF, 0xFFFFFFFF,
                              rng.getrandbits(63)])
            out[params_at + 8 * slot:params_at + 8 * (slot + 1)] = \
                lie.to_bytes(8, "big")
        else:
            # Lie about the parameter count.
            out[params_at - 4:params_at] = rng.choice(
                [0, 1, count + 1, 0x7FFFFFFF]).to_bytes(4, "big")
        return bytes(out)
    if mutation == "sparse_index_lie" and fmt == "tensor3":
        offset, id_len, params_at, count = _codec_block_extent(blob)
        is_sparse = blob[offset + 1:offset + 1 + id_len] == b"sparse"
        if is_sparse and count >= 2:  # params[0] is the width
            out = bytearray(blob)
            indices = count - 1
            attack = rng.choice(["out_of_range", "duplicate", "unsorted"])
            first = params_at + 8  # first pattern index
            if attack == "out_of_range":
                slot = rng.randrange(indices)
                lie = int.from_bytes(blob[8:12], "big") + rng.randrange(
                    1, 1 << 16)  # header count field + offset
                out[first + 8 * slot:first + 8 * (slot + 1)] = \
                    lie.to_bytes(8, "big")
            elif attack == "duplicate" and indices >= 2:
                slot = rng.randrange(indices - 1)
                out[first + 8 * (slot + 1):first + 8 * (slot + 2)] = \
                    blob[first + 8 * slot:first + 8 * (slot + 1)]
            elif indices >= 2:  # unsorted: swap two adjacent indices
                slot = rng.randrange(indices - 1)
                a = blob[first + 8 * slot:first + 8 * (slot + 1)]
                b = blob[first + 8 * (slot + 1):first + 8 * (slot + 2)]
                out[first + 8 * slot:first + 8 * (slot + 1)] = b
                out[first + 8 * (slot + 1):first + 8 * (slot + 2)] = a
            return bytes(out)
    if mutation == "crc_lie" and fmt == "wal":
        start, _end = rng.choice(_wal_extents(blob))
        out = bytearray(blob)
        out[start + 4:start + 8] = rng.getrandbits(32).to_bytes(4, "big")
        return bytes(out)
    if mutation == "checkpoint_lie" and fmt == "wal":
        return _checkpoint_lie(rng, blob)
    if mutation == "record_splice" and fmt == "wal":
        extents = _wal_extents(blob)
        start, end = rng.choice(extents)
        if rng.random() < 0.5:
            return blob + blob[start:end]     # duplicate a record frame
        return blob[:start] + blob[end:]      # delete a record frame
    if mutation == "slice_scramble" and blob:
        start = rng.randrange(len(blob))
        length = rng.randrange(1, min(16, len(blob) - start) + 1)
        out = bytearray(blob)
        out[start:start + length] = bytes(rng.getrandbits(8)
                                          for _ in range(length))
        return bytes(out)
    # Mutation not applicable to this format: fall back to a bit flip.
    if blob:
        return _flip_bit(blob, rng.randrange(len(blob)), rng.randrange(8))
    return blob


# ----------------------------------------------------------------------
# The oracle.
# ----------------------------------------------------------------------

def _classify(fmt: str, mutant: bytes, original: bytes,
              case_index: int, mutation: str) -> Optional[FuzzFinding]:
    """Apply the two-sided oracle to one mutant; None means clean."""
    def misdecode(canonical_len: int) -> FuzzFinding:
        return FuzzFinding(
            kind="silent_misdecode", case_index=case_index,
            mutation=mutation, format=fmt,
            detail=(f"decode accepted a non-canonical frame "
                    f"(re-serializes to {canonical_len} bytes, mutant "
                    f"is {len(mutant)})"),
            blob_hex=mutant.hex())

    # The word width is read back from the *mutant*, so it is attacker
    # controlled: the canonical length is checked against the mutant's
    # before anything is built, and the oracle never allocates more
    # than O(len(mutant)) however large the declared width.
    try:
        if fmt in ("tensor", "tensor3"):
            tensor = deserialize_tensor(mutant)
            width = int.from_bytes(mutant[24:28], "big")
            # Canonical re-serialization must target the version the
            # accepted mutant actually carries (a mutation may have
            # rewritten the magic), so sniff it rather than trusting
            # the corpus label.
            legacy = mutant[:4] == TENSOR_MAGIC
            meta = tensor.meta
            codec_block = 0 if legacy else (
                1 + len(meta.codec) + 4 + 8 * len(meta.codec_params))
            canonical_len = (TENSOR_HEADER.size + 4 * len(meta.shape)
                             + codec_block + tensor.num_words * width)
            if canonical_len != len(mutant):
                return misdecode(canonical_len)
            canonical = serialize_tensor(tensor, ciphertext_bytes=width)
            if legacy:
                canonical = downgrade_to_flt2(canonical)
        else:
            replayed = replay_wal(mutant)
            # Accepted: the consumed prefix must re-encode byte-exactly
            # (torn-tail trimming drops *only* the unconsumed suffix).
            canonical = b"" if replayed.consumed_bytes == 0 else (
                WAL_MAGIC + b"".join(encode_record(r)
                                     for r in replayed.records))
            mutant = mutant[:replayed.consumed_bytes] \
                if replayed.torn_tail else mutant
    except ValueError:
        # FrameError / KeyMismatchError / plain ValueError: the typed
        # rejection family.  Clean.
        return None
    except Exception as error:  # noqa: BLE001 -- the point of the fuzzer
        return FuzzFinding(
            kind="crash", case_index=case_index, mutation=mutation,
            format=fmt,
            detail=f"{type(error).__name__}: {error}",
            blob_hex=mutant.hex())
    if canonical != mutant:
        return misdecode(len(canonical))
    return None


def run_fuzz(cases: int = 500, seed: Union[int, str] = 0,
             on_case: Optional[Callable[[int], None]] = None,
             corpus: str = "all") -> FuzzReport:
    """Run a fuzz campaign; deterministic in ``(cases, seed, corpus)``.

    Args:
        cases: Mutants to generate and classify.
        seed: Campaign seed; strings are hashed (``--seed ci``).
        on_case: Optional per-case progress hook.
        corpus: ``"all"`` draws every format; ``"packing"`` restricts
            to FLT2/FLT3 tensor frames (the codec-focused campaign).
    """
    if corpus not in ("all", "packing"):
        raise ValueError(f"unknown fuzz corpus {corpus!r}")
    resolved = resolve_seed(seed)
    rng = random.Random(resolved)
    report = FuzzReport(seed=resolved)
    for case_index in range(cases):
        fmt, blob, _width = _corpus_frame(rng, corpus)
        mutation = rng.choice(MUTATIONS)
        mutant = _mutate(rng, fmt, blob, mutation)
        report.cases += 1
        report.by_mutation[mutation] = \
            report.by_mutation.get(mutation, 0) + 1
        report.by_format[fmt] = report.by_format.get(fmt, 0) + 1
        finding = _classify(fmt, mutant, blob, case_index, mutation)
        if finding is not None:
            report.findings.append(finding)
        else:
            # Re-run the cheap accept/reject split for the tally.
            try:
                if fmt in ("tensor", "tensor3"):
                    deserialize_tensor(mutant)
                else:
                    replay_wal(mutant)
                report.accepted += 1
            except ValueError:
                report.rejected += 1
        if on_case is not None:
            on_case(case_index)
    return report
