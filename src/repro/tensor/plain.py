"""PlainTensor: the encode -> quantize -> pack codec (Eqs. 6-9).

One object owns the full plaintext half of the FLBooster pipeline that
used to be duplicated between ``federation/aggregator.py`` and
``models/base.py``: a real-valued array goes in, Eq. 9-packed plaintext
words (plus the metadata to invert them) come out, and ``decode`` gets
everything it needs from the attached :class:`~repro.tensor.meta.TensorMeta`
-- no caller-supplied counts or schemes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.quantization.codecs import build_codec
from repro.quantization.packing import SlotCodec
from repro.tensor.meta import TensorMeta

#: Fingerprint of "not encrypted yet / no key".
PLAINTEXT_FINGERPRINT = b"\x00" * 16


class PlainTensor:
    """An encoded-and-packed plaintext tensor.

    Immutable: ``words`` is a tuple of Eq. 9-packed plaintext integers and
    ``meta`` describes their layout.  Build one with :meth:`encode`
    (gradients in) and read it back with :meth:`decode` (gradients out);
    engines turn it into a :class:`~repro.tensor.cipher.CipherTensor` via
    ``encrypt_tensor`` and back via ``decrypt_tensor``.
    """

    __slots__ = ("words", "meta")

    def __init__(self, words: Sequence[int], meta: TensorMeta):
        if len(words) != meta.num_words:
            raise ValueError(
                f"{meta.count} values at capacity {meta.capacity} need "
                f"{meta.num_words} words, got {len(words)}")
        object.__setattr__(self, "words", tuple(words))
        object.__setattr__(self, "meta", meta)

    def __setattr__(self, name, value):
        raise AttributeError("PlainTensor is immutable")

    def __len__(self) -> int:
        return self.meta.count

    def __repr__(self) -> str:
        return (f"PlainTensor(shape={self.meta.shape}, "
                f"scheme={self.meta.scheme_id}, "
                f"capacity={self.meta.capacity}, "
                f"summands={self.meta.summands})")

    # ------------------------------------------------------------------
    # Codec.
    # ------------------------------------------------------------------

    @classmethod
    def encode(cls, values: np.ndarray, packer: SlotCodec) -> "PlainTensor":
        """Encode, quantize and pack a real-valued array (Eqs. 6-9).

        Args:
            values: Real-valued array of any shape.
            packer: Any registered packing codec (the dense Eq. 9
                ``BatchPacker``, the interleaved layout, or a
                pattern-pinned sparse codec); its identity and wire
                parameters are recorded in the metadata.  The key
                geometry stays zero until an engine encrypts the tensor.
        """
        array = np.asarray(values, dtype=np.float64)
        flat = array.ravel()
        words = packer.pack_values(flat)
        meta = TensorMeta(
            key_fingerprint=PLAINTEXT_FINGERPRINT,
            nominal_bits=0,
            physical_bits=0,
            scheme=packer.scheme,
            capacity=packer.capacity,
            shape=tuple(array.shape),
            count=flat.size,
            summands=1,
            packed=packer.capacity > 1,
            codec=packer.codec_id,
            codec_params=packer.codec_params(),
        )
        return cls(words, meta)

    def decode(self) -> np.ndarray:
        """Unpack and decode back to a real-valued array.

        The Eq. 6 translation offset is corrected with the metadata's own
        ``summands`` count, so partial aggregates and scaled tensors
        decode exactly without the caller supplying anything.  The codec
        recorded in the metadata drives the unpacking, so dense,
        interleaved and sparse payloads all come back through the same
        call.
        """
        decoded = build_codec(self.meta).decode_words(
            list(self.words), self.meta.count, summands=self.meta.summands)
        return np.asarray(decoded).reshape(self.meta.shape)

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------

    def word_list(self) -> List[int]:
        """The packed plaintext words as a fresh list."""
        return list(self.words)
