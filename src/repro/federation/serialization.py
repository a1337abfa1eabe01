"""Wire serialization of ciphertext payloads.

The cost model charges communication from *nominal* ciphertext sizes and
a serialization bloat factor
(:meth:`repro.gpu.cost_model.HardwareProfile.wire_bytes`); this module
is the concrete frame the runtime ships:

- ``tensor`` (v2) -- fixed-width big-endian ciphertext words back to
  back, prefixed by a self-describing header carrying the full
  :class:`~repro.tensor.meta.TensorMeta`: key fingerprint, key
  geometry, quantization scheme, packing capacity, logical shape and
  summand count.  Decoding a v2 frame needs *no*
  caller-supplied metadata, and the decoder validates the key
  fingerprint so cross-key payloads fail loudly.
- ``tensor`` (v3, ``FLT3``) -- the v2 header (same fixed layout and
  offsets, new magic/version) followed by a *codec block*: the packing
  codec's registry id plus its integer wire parameters (guard width
  for the interleaved layout; value width and support pattern for the
  sparse layout).  v3 is the only frame written; v2 frames remain
  readable (they imply the dense codec).

Both versions round-trip exactly.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

from repro.quantization.encoding import QuantizationScheme
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import KeyMismatchError, TensorMeta


class FrameError(ValueError):
    """A wire frame failed validation (malformed, truncated, or lying).

    The *typed* rejection every decoder in this module must produce for
    hostile input -- the fuzzer asserts that no mutation ever escalates
    to a different exception class (a crash) or decodes silently into
    garbage.  Subclasses ``ValueError`` so existing callers keep
    working; :class:`~repro.tensor.meta.KeyMismatchError` stays separate
    (a well-formed frame under the wrong key is a routing error, not a
    framing one).
    """

#: Frame magic + version for the self-describing tensor format.
TENSOR_MAGIC = b"FLT2"
#: Fixed-size part of the v2/v3 tensor header: magic, version, flags,
#: ndim, count, summands, capacity, word count, word width, nominal
#: bits, physical bits, r bits, participant count, alpha, key
#: fingerprint.  v3 reuses this struct byte for byte (only magic and
#: version differ), so field offsets -- and the fuzzer's hardcoded
#: mutation offsets -- are shared across both versions.
TENSOR_HEADER = struct.Struct(">4sBBBxIIIIIIIHHd16s")
#: v2 format version byte.
TENSOR_VERSION = 2
#: Frame magic for the self-describing v3 (codec-aware) tensor format.
TENSOR3_MAGIC = b"FLT3"
#: v3 format version byte.
TENSOR3_VERSION = 3
#: Longest codec id accepted off the wire (one length byte anyway).
MAX_CODEC_ID_LEN = 32


def _int_to_bytes(value: int, length: int) -> bytes:
    return value.to_bytes(length, "big")


def _bytes_to_int(blob: bytes) -> int:
    return int.from_bytes(blob, "big")


def _codec_block(meta: TensorMeta) -> bytes:
    """The v3 codec block: registry id + integer wire parameters."""
    codec_id = meta.codec.encode("ascii")
    if not 1 <= len(codec_id) <= MAX_CODEC_ID_LEN:
        raise ValueError(f"codec id {meta.codec!r} not serializable")
    return (struct.pack(">B", len(codec_id)) + codec_id
            + struct.pack(">I", len(meta.codec_params))
            + b"".join(struct.pack(">Q", param)
                       for param in meta.codec_params))


def serialize_tensor(tensor: CipherTensor,
                     ciphertext_bytes: Optional[int] = None) -> bytes:
    """The packed wire frame (FLT3): self-describing header + body.

    Args:
        tensor: The (materialized or lazy) encrypted tensor; lazy
            expressions are flushed through their attached engine.
        ciphertext_bytes: Fixed word width on the wire; defaults to the
            width of ``n^2`` at the tensor's *physical* key size.
    """
    meta = tensor.meta
    width = (ciphertext_bytes if ciphertext_bytes is not None
             else max(1, 2 * meta.physical_bits // 8 + 1))
    words = tensor.words
    for word in words:
        if word.bit_length() > 8 * width:
            raise ValueError(
                f"ciphertext of {word.bit_length()} bits does not fit "
                f"the {width}-byte wire width")
    header = TENSOR_HEADER.pack(
        TENSOR3_MAGIC, TENSOR3_VERSION,
        1 if meta.packed else 0, len(meta.shape),
        meta.count, meta.summands, meta.capacity, len(words), width,
        meta.nominal_bits, meta.physical_bits,
        meta.scheme.r_bits, meta.scheme.num_parties,
        meta.scheme.alpha, meta.key_fingerprint)
    dims = struct.pack(f">{len(meta.shape)}I", *meta.shape)
    body = b"".join(_int_to_bytes(word, width) for word in words)
    return header + dims + _codec_block(meta) + body


def deserialize_tensor(blob: bytes,
                       expected_fingerprint: Optional[bytes] = None
                       ) -> CipherTensor:
    """Invert :func:`serialize_tensor`, validating the frame end to end.

    The returned :class:`CipherTensor` carries its full metadata, so no
    caller-supplied count / summands / scheme is needed to decode it.

    Args:
        expected_fingerprint: When given (e.g. the receiving engine's
            :meth:`~repro.crypto.engine.HeEngine.fingerprint`), a frame
            encrypted under any other key raises
            :class:`~repro.tensor.meta.KeyMismatchError`.
    """
    if len(blob) < TENSOR_HEADER.size:
        raise FrameError(
            f"truncated frame: tensor header needs {TENSOR_HEADER.size} "
            f"bytes, got {len(blob)}")
    (magic, version, flags, ndim, count, summands, capacity, num_words,
     width, nominal_bits, physical_bits, r_bits, num_parties, alpha,
     fingerprint) = TENSOR_HEADER.unpack(blob[:TENSOR_HEADER.size])
    if magic not in (TENSOR_MAGIC, TENSOR3_MAGIC):
        raise FrameError("not a tensor frame")
    expected_version = (TENSOR_VERSION if magic == TENSOR_MAGIC
                        else TENSOR3_VERSION)
    if version != expected_version:
        raise FrameError(
            f"unsupported tensor frame version {version} under "
            f"{magic.decode('ascii', 'replace')} magic")
    if flags & ~1:
        raise FrameError(f"corrupt frame: unknown flag bits 0x{flags:02x}")
    if blob[7] != 0:
        raise FrameError("corrupt frame: nonzero header padding")
    if num_words and width == 0:
        raise FrameError(
            f"corrupt frame: {num_words} words declared with zero width")
    dims_end = TENSOR_HEADER.size + 4 * ndim
    if len(blob) < dims_end:
        raise FrameError(
            f"truncated frame: {ndim} dims need {dims_end} bytes, got "
            f"{len(blob)}")
    # v2 frames imply the dense codec; v3 frames carry an explicit
    # codec block between the dims and the ciphertext body.
    codec_id, codec_params = "dense", ()
    body_start = dims_end
    if magic == TENSOR3_MAGIC:
        codec_id, codec_params, body_start = _parse_codec_block(
            blob, dims_end)
    expected = body_start + num_words * width
    if len(blob) != expected:
        kind = "truncated" if len(blob) < expected else "oversized"
        raise FrameError(
            f"{kind} frame: {num_words} x {width}-byte words and "
            f"{ndim} dims need {expected} bytes, got {len(blob)}")
    shape = struct.unpack(f">{ndim}I", blob[TENSOR_HEADER.size:dims_end])
    if not math.isfinite(alpha):
        raise FrameError(f"corrupt frame: non-finite alpha {alpha!r}")
    if expected_fingerprint is not None and \
            fingerprint != expected_fingerprint:
        raise KeyMismatchError(
            f"frame encrypted under key {fingerprint.hex()[:8]}, "
            f"receiver expects {expected_fingerprint.hex()[:8]}")
    # Header fields are attacker-controlled: any combination the
    # scheme, codec registry, or tensor constructors reject is a
    # framing lie, reported as such instead of leaking implementation
    # exceptions.  That covers codec-id lies (unknown registry name),
    # parameter corruption (implausible widths) and sparse-pattern lies
    # (out-of-range / duplicate / unsorted indices).
    try:
        meta = TensorMeta(
            key_fingerprint=fingerprint,
            nominal_bits=nominal_bits,
            physical_bits=physical_bits,
            scheme=QuantizationScheme(alpha=alpha, r_bits=r_bits,
                                      num_parties=num_parties),
            capacity=capacity,
            shape=tuple(shape),
            count=count,
            summands=summands,
            packed=bool(flags & 1),
            codec=codec_id,
            codec_params=codec_params,
        )
        words = [_bytes_to_int(blob[body_start + i * width:
                                    body_start + (i + 1) * width])
                 for i in range(num_words)]
        return CipherTensor(meta, words=words)
    except FrameError:
        raise
    except (ValueError, OverflowError) as error:
        raise FrameError(
            f"corrupt frame: header fields rejected "
            f"({type(error).__name__}: {error})") from error


def _parse_codec_block(blob: bytes, offset: int):
    """Parse the v3 codec block at ``offset``; returns (id, params, end).

    Every length is bounds-checked before slicing so a lying block is a
    typed :class:`FrameError`, never an index crash or a silent
    mis-slice into the ciphertext body.
    """
    if len(blob) < offset + 1:
        raise FrameError("truncated frame: missing codec block")
    id_len = blob[offset]
    if not 1 <= id_len <= MAX_CODEC_ID_LEN:
        raise FrameError(f"corrupt frame: codec id length {id_len}")
    if len(blob) < offset + 1 + id_len + 4:
        raise FrameError("truncated frame: codec block cut short")
    raw_id = blob[offset + 1:offset + 1 + id_len]
    try:
        codec_id = raw_id.decode("ascii")
    except UnicodeDecodeError:
        raise FrameError("corrupt frame: non-ascii codec id") from None
    params_at = offset + 1 + id_len
    (param_count,) = struct.unpack(">I", blob[params_at:params_at + 4])
    params_end = params_at + 4 + 8 * param_count
    if len(blob) < params_end:
        raise FrameError(
            f"truncated frame: {param_count} codec parameters need "
            f"{params_end - offset} codec-block bytes")
    params = (struct.unpack(f">{param_count}Q",
                            blob[params_at + 4:params_end])
              if param_count else ())
    return codec_id, tuple(params), params_end
