"""Pluggable packing codecs (beyond-the-paper packing layer).

The paper's batch compression (Sec. IV-C) fixes one layout: dense
fixed-width slots, MSB first.  Real federated gradients are often
~0.1% dense (RCV1/Avazu-shaped workloads), where dense packing wastes
>99% of the plaintext, and FedBit-style guard-bit layouts show that a
wider inter-slot gap buys orders of magnitude more safe summands.

This module is the *registry of codecs*.  Each one is a
:class:`~repro.quantization.packing.SlotCodec` (``BatchPacker`` in
packing.py is the default ``"dense"`` member) and supplies only what its
layout changes:

``codec_id``
    Registry name, carried in :class:`~repro.tensor.meta.TensorMeta`
    and on the FLT3 wire frame.
``codec_params() / from_meta(meta)``
    Wire round-trip: the integer tuple that, together with the scheme
    and capacity, reconstructs the codec on the receiving side.
``slot_count / _to_slots / _encodings``
    Only when the stored slots are not the logical encodings (the
    sparse pattern and bias mapping).

``pack`` / ``unpack`` / ``pack_values`` / ``decode_words`` /
``words_needed`` / ``describe()`` come from the core.  Callers never
branch on ``codec_id``: they ask the codec (``slot_shift``,
``words_needed``, ``max_safe_summands()``) or its capabilities.

Every codec decodes through ``scheme.decode_array``, so for any value
the registry guarantees ``decode(encode(x))`` is **bit-identical**
across codecs -- the layouts differ, the quantization grid does not.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker, SlotCodec

#: Widest adaptive value width the sparse codec accepts off the wire.
#: Generous (offsets fit in ~r+1 bits <= 31 for default schemes) but
#: bounded so a lying FLT3 header cannot demand absurd slot widths.
MAX_SPARSE_VALUE_BITS = 80

#: Widest guard band the interleaved codec accepts off the wire.
MAX_GUARD_BITS = 128

#: Extra guard bits the interleaved codec adds beyond the scheme's
#: Eq. 8 minimum when none are requested: 8 more bits buy 256x more
#: safe summands at a modest capacity cost.
DEFAULT_EXTRA_GUARD_BITS = 8


class InterleavedCodec(SlotCodec):
    """FedBit-style guard-banded layout, LSB-first.

    Each slot is ``r + g`` bits with ``g >= b`` guard bits *above* the
    value, and slots are laid out least-significant-first:

        word = sum_i  e_i << (i * (r + g))

    ``max_safe_summands() = 2**g`` -- the guard band, not the Eq. 8
    minimum, bounds how many words may be slot-wise summed, so a wider
    band raises summand capacity at equal key size.
    """

    codec_id = "interleave"
    slot_layout = "interleave-lsb"
    lsb_first = True

    def __init__(self, scheme: QuantizationScheme, plaintext_bits: int,
                 guard_bits: int | None = None,
                 capacity: int | None = None):
        if guard_bits is None:
            guard_bits = scheme.overflow_bits + DEFAULT_EXTRA_GUARD_BITS
        if guard_bits < scheme.overflow_bits:
            raise ValueError(
                f"{guard_bits} guard bits cannot be below the scheme's "
                f"{scheme.overflow_bits} Eq. 8 overflow bits")
        if guard_bits > MAX_GUARD_BITS:
            raise ValueError(f"guard band of {guard_bits} bits is unreasonable")
        super().__init__(scheme, plaintext_bits, scheme.r_bits, guard_bits,
                         capacity)

    def codec_params(self) -> Tuple[int, ...]:
        """Wire parameters: the guard-band width."""
        return (self.guard_bits,)

    @classmethod
    def from_meta(cls, meta) -> "InterleavedCodec":
        params = tuple(meta.codec_params)
        if len(params) != 1:
            raise ValueError(
                f"interleave codec takes one parameter (guard bits), "
                f"got {len(params)}")
        guard_bits = int(params[0])
        if not meta.scheme.overflow_bits <= guard_bits <= MAX_GUARD_BITS:
            raise ValueError(f"implausible guard band: {guard_bits} bits")
        stride = meta.scheme.r_bits + guard_bits
        return cls(meta.scheme, plaintext_bits=meta.capacity * stride,
                   guard_bits=guard_bits, capacity=meta.capacity)


class SparseCodec(SlotCodec):
    """Index + value layout for CSR-shaped gradients, adaptive width.

    For a ~0.1%-dense gradient the dense layout spends >99% of every
    plaintext on quantized zeros.  This codec pins a *support pattern*
    (the sorted indices whose values quantize away from zero) and packs
    only those positions, as grid offsets from the zero encoding:

        e0     = scheme.encode(0.0)
        offset = e_i - e0                         in [-(2^(w-1)-1), ...]
        stored = offset + 2^(w-1)                 unsigned, w bits

    ``w`` is the adaptive value width, chosen per layer from the
    observed offset range by :meth:`for_values`.  Stored values pack
    densely (MSB-first, ``b`` guard bits each), and the pattern plus
    width travel in the codec parameters -- on the FLT3 wire they ride
    the header, not the ciphertexts.

    Crucially the codec is *grid-preserving*: decode reconstructs the
    full-length encoding vector (absent slots contribute ``e0`` per
    summand) and funnels it through ``scheme.decode_array``, so its
    floats are bit-identical to the dense codec's for the same inputs.

    Homomorphic addition is well defined only between tensors sharing
    the pattern (stored sums then decode with the summand count);
    TensorMeta enforces this through codec-parameter equality.  Slot
    ``k`` holds pattern position ``k``, not logical value ``k``, so the
    layout is not ``sliceable``.
    """

    codec_id = "sparse"
    slot_layout = "sparse-pairs"
    sliceable = False
    # The sparse layout enforces its bound at capacity 1 too.
    single_slot_exempt = False
    keyed_by_count = True

    def __init__(self, scheme: QuantizationScheme, plaintext_bits: int,
                 indices: Sequence[int], value_bits: int,
                 capacity: int | None = None):
        if not 1 <= value_bits <= MAX_SPARSE_VALUE_BITS:
            raise ValueError(f"implausible value width: {value_bits} bits")
        pattern = tuple(int(i) for i in indices)
        if any(i < 0 for i in pattern):
            raise ValueError("sparse indices must be non-negative")
        if any(b <= a for a, b in zip(pattern, pattern[1:])):
            raise ValueError("sparse indices must be strictly increasing")
        self.indices = pattern
        #: Pattern size: how many positions are actually stored.
        self.nnz = len(pattern)
        self.value_bits = value_bits
        #: The zero encoding: what every absent position contributes.
        self.zero_encoding = scheme.encode(0.0)
        #: Unsigned bias applied to grid offsets before packing.
        self.offset_bias = 1 << (value_bits - 1) if value_bits > 1 else 0
        super().__init__(scheme, plaintext_bits, value_bits,
                         scheme.overflow_bits, capacity)

    @classmethod
    def for_values(cls, values: np.ndarray, scheme: QuantizationScheme,
                   plaintext_bits: int) -> "SparseCodec":
        """Derive pattern and adaptive width from one observed gradient.

        The pattern is the set of positions whose values quantize away
        from zero; the width is the smallest ``w`` whose biased range
        covers every observed grid offset (minimum 2 so the bias is a
        genuine sign split).
        """
        encoded = scheme.encode_array(np.asarray(values).reshape(-1))
        e0 = scheme.encode(0.0)
        indices = [i for i, e in enumerate(encoded) if e != e0]
        max_offset = max((abs(encoded[i] - e0) for i in indices), default=1)
        value_bits = max(2, max_offset.bit_length() + 1)
        return cls(scheme, plaintext_bits, indices=indices,
                   value_bits=value_bits)

    # ------------------------------------------------------------------
    # Layout: the support pattern and the bias mapping.
    # ------------------------------------------------------------------

    def slot_count(self, n_values: int) -> int:
        """Words are driven by the pattern size, not the logical count."""
        return self.nnz

    def _to_slots(self, encoded: Sequence[int]) -> List[int]:
        """Biased grid offsets of the pattern positions.

        Off-pattern positions must carry the zero encoding -- anything
        else would be silently dropped, so it raises instead.
        """
        if self.indices and self.indices[-1] >= len(encoded):
            raise ValueError(
                f"pattern references index {self.indices[-1]} beyond the "
                f"{len(encoded)}-value input")
        on_pattern = set(self.indices)
        for position, value in enumerate(encoded):
            if position not in on_pattern and value != self.zero_encoding:
                raise ValueError(
                    f"position {position} quantizes away from zero but is "
                    f"not in the sparse pattern")
        shift = self.offset_bias - self.zero_encoding
        stored = [encoded[i] + shift for i in self.indices]
        for value in stored:
            if not 0 <= value < (1 << self.value_bits):
                raise ValueError(
                    f"grid offset {value - self.offset_bias} does not fit "
                    f"{self.value_bits} value bits")
        return stored

    def _encodings(self, words: Sequence[int], count: int,
                   summands: int) -> List[int]:
        """Scatter stored sums back over the full-length vector.

        Absent positions each contributed ``e0`` per summand; stored
        sums shed ``summands`` copies of the bias.  The result feeds the
        standard ``decode_array`` path, so the floats match the dense
        codec bit for bit.
        """
        if self.indices and self.indices[-1] >= count:
            raise ValueError(
                f"pattern index {self.indices[-1]} out of range for "
                f"{count} values")
        absent = summands * self.zero_encoding
        encodings = [absent] * count
        unbias = absent - summands * self.offset_bias
        for position, value in zip(self.indices, self._extract(words, count)):
            encodings[position] = value + unbias
        return encodings

    # ------------------------------------------------------------------
    # Wire protocol.
    # ------------------------------------------------------------------

    def codec_params(self) -> Tuple[int, ...]:
        """Wire parameters: adaptive width, then the sorted pattern."""
        return (self.value_bits, *self.indices)

    @classmethod
    def from_meta(cls, meta) -> "SparseCodec":
        params = tuple(meta.codec_params)
        if not params:
            raise ValueError("sparse codec needs at least a value width")
        value_bits, indices = int(params[0]), params[1:]
        if any(int(i) >= meta.count for i in indices):
            raise ValueError(
                f"sparse pattern index out of range for {meta.count} values")
        slot = value_bits + meta.scheme.overflow_bits
        return cls(meta.scheme, plaintext_bits=meta.capacity * slot,
                   indices=indices, value_bits=value_bits,
                   capacity=meta.capacity)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Type] = {}


def register_codec(cls) -> Type:
    """Register a codec class under its ``codec_id`` (idempotent)."""
    codec_id = cls.codec_id
    existing = _REGISTRY.get(codec_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"codec id {codec_id!r} already registered")
    _REGISTRY[codec_id] = cls
    return cls


def get_codec(codec_id: str):
    """Look up a codec class; unknown ids raise ``ValueError``."""
    try:
        return _REGISTRY[codec_id]
    except KeyError:
        raise ValueError(f"unknown packing codec: {codec_id!r}") from None


def registered_codecs() -> Dict[str, Type]:
    """Snapshot of the registry (id -> class)."""
    return dict(_REGISTRY)


class _Layout(NamedTuple):
    """What the FLT3 codec block carries: the identity of one layout."""

    codec: str
    codec_params: Tuple[int, ...]
    scheme: QuantizationScheme
    capacity: int
    count: Optional[int]


@lru_cache(maxsize=256)
def _codec_of(layout: _Layout):
    return get_codec(layout.codec).from_meta(layout)


def build_codec(meta):
    """The codec a :class:`TensorMeta` describes.

    Duck-typed over ``meta``: anything carrying ``codec``,
    ``codec_params``, ``scheme``, ``capacity`` (and ``count`` for the
    sparse layout) works, which keeps the wire layer free to hand in a
    lightweight view during deserialization.  Equal layouts share one
    immutable codec, so only the first meta of a layout pays for (and
    can fail) its validation; a rejected layout is never cached.
    """
    keyed_by_count = get_codec(meta.codec).keyed_by_count
    return _codec_of(_Layout(
        meta.codec, tuple(meta.codec_params), meta.scheme, meta.capacity,
        meta.count if keyed_by_count else None))


register_codec(BatchPacker)
register_codec(InterleavedCodec)
register_codec(SparseCodec)
