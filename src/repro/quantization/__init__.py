"""Encoding-quantization and batch compression (paper Sec. IV-B, IV-C).

- :mod:`repro.quantization.encoding` -- the secure encoding-quantization of
  Eqs. 6-8 (linear translation + fixed-point amplification + overflow
  bits).
- :mod:`repro.quantization.packing` -- batch compression (Eq. 9): packing
  ``n = floor(k / (r + ceil(log2 p)))`` quantized gradients into one
  plaintext.  :class:`~repro.quantization.packing.SlotCodec` is the one
  slot layout -- validation, word assembly and extraction, word counts,
  Eqs. 11-12, the summand guard -- with every derived number fixed at
  construction; :class:`~repro.quantization.packing.BatchPacker` is its
  dense (paper) instance.
- :mod:`repro.quantization.codecs` -- the interleaved and sparse
  instances, the codec table, and
  :func:`~repro.quantization.codecs.build_codec`, which hands every
  tensor of a layout the same immutable codec.  The slot layout is
  decided here and only *asked* elsewhere (``words_needed``,
  ``slot_shift``, ``describe()`` capabilities), never re-derived from a
  codec id.
"""
