"""Typed encrypted-tensor layer (HAFLO / FedBit-style unified container).

- :class:`~repro.tensor.meta.TensorMeta` -- self-describing layout
  (key fingerprint, key geometry, scheme, capacity, shape, summands).
- :class:`~repro.tensor.plain.PlainTensor` -- the encode -> quantize ->
  pack codec (Eqs. 6-9) and its inverse.
- :class:`~repro.tensor.cipher.CipherTensor` -- immutable ciphertext
  container with lazy ``+`` / scalar ``*`` / slicing / ``sum()`` that the
  fusion planner (:mod:`repro.tensor.planner`) flushes into minimal
  batched engine calls.
"""
