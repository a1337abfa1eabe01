"""Encoding-quantization and batch compression (paper Sec. IV-B, IV-C).

- :mod:`repro.quantization.encoding` -- the secure encoding-quantization of
  Eqs. 6-8 (linear translation + fixed-point amplification + overflow
  bits), plus the insecure legacy ``(encrypt(significand), exponent)``
  scheme the paper contrasts against.
- :mod:`repro.quantization.packing` -- batch compression (Eq. 9): packing
  ``n = floor(k / (r + ceil(log2 p)))`` quantized gradients into one
  plaintext.  :class:`SlotCodec` is the one slot layout -- validation,
  word assembly and extraction, word counts, Eqs. 11-12, the summand
  guard -- with every derived number fixed at construction;
  :class:`BatchPacker` is its dense (paper) instance.
- :mod:`repro.quantization.codecs` -- the interleaved and sparse
  instances, the registry, and :func:`build_codec`, which hands every
  tensor of a layout the same immutable codec.  The slot layout is
  decided here and only *asked* elsewhere (``words_needed``,
  ``slot_shift``, ``describe()`` capabilities), never re-derived from a
  codec id.
"""

from repro.quantization.codecs import (
    InterleavedCodec,
    SparseCodec,
    build_codec,
    get_codec,
    register_codec,
    registered_codecs,
)
from repro.quantization.encoding import (
    QuantizationScheme,
    DEFAULT_QUANTIZATION_BITS,
    overflow_bits_for,
    slot_bits_for,
)
from repro.quantization.packing import (
    BatchPacker,
    CodecCapabilities,
    PackingPlan,
    SlotCodec,
    compression_ratio,
    plaintext_space_utilization,
)

__all__ = [
    "QuantizationScheme",
    "DEFAULT_QUANTIZATION_BITS",
    "overflow_bits_for",
    "slot_bits_for",
    "BatchPacker",
    "CodecCapabilities",
    "PackingPlan",
    "SlotCodec",
    "compression_ratio",
    "plaintext_space_utilization",
    "InterleavedCodec",
    "SparseCodec",
    "build_codec",
    "get_codec",
    "register_codec",
    "registered_codecs",
]
