"""Self-describing layout metadata for encrypted tensors.

A raw Paillier ciphertext batch is just a list of huge integers; nothing
about it says which key it was encrypted under, how many logical values
are packed per word, which quantization scheme produced the encodings, or
how many vectors were slot-wise summed.  Historically that metadata was
threaded by hand through every producer/consumer (`encrypt_vector` /
`decrypt_vector` callers supplying ``count`` / ``summands`` / scheme) --
a standing source of mismatched-decode bugs.  :class:`TensorMeta` pins
all of it to the payload itself, so a decode can never be asked to guess.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Tuple

from repro.quantization.codecs import build_codec
from repro.quantization.encoding import QuantizationScheme


class KeyMismatchError(ValueError):
    """Two encrypted tensors under different keys were combined.

    Homomorphic operations across keys decrypt to silent garbage
    (Paillier is malleable); the key fingerprint carried by every
    :class:`TensorMeta` turns that into a loud error instead.
    """


def key_fingerprint(public_key) -> bytes:
    """16-byte fingerprint of a Paillier public key ``(n, g)``."""
    digest = hashlib.sha256()
    digest.update(public_key.n.to_bytes(
        (public_key.n.bit_length() + 7) // 8, "big"))
    digest.update(public_key.g.to_bytes(
        (public_key.g.bit_length() + 7) // 8, "big"))
    return digest.digest()[:16]


@dataclass(frozen=True)
class TensorMeta:
    """Layout of one encrypted (or encoded) tensor.

    Attributes:
        key_fingerprint: 16-byte fingerprint of the encrypting public key
            (:func:`key_fingerprint`); all-zeros for plaintext tensors.
        nominal_bits: Key size the cost model charges.
        physical_bits: Key size the mathematics actually runs at.
        scheme: The encoding-quantization scheme (Eqs. 6-8) that produced
            the slot values.
        capacity: Logical values packed per ciphertext word (Eq. 9).
        shape: Logical array shape of the values.
        count: Number of logical values (``prod(shape)``).
        summands: How many encodings each slot currently carries -- the
            Eq. 6 translation-offset multiplier the decode must subtract.
        packed: Whether the words use the Eq. 9 multi-slot layout (true
            exactly when ``capacity > 1``).
        codec: Registry id of the packing codec that laid out the words
            (``"dense"`` / ``"interleave"`` / ``"sparse"``; see
            :mod:`repro.quantization.codecs`).
        codec_params: The codec's wire parameters -- together with the
            scheme and capacity they reconstruct the exact layout on the
            receiving side (guard width for interleave; value width and
            support pattern for sparse).

    The codec the layout names and the word count it implies are
    derived once, at construction; they take no part in equality.
    """

    key_fingerprint: bytes
    nominal_bits: int
    physical_bits: int
    scheme: QuantizationScheme
    capacity: int
    shape: Tuple[int, ...]
    count: int
    summands: int = 1
    packed: bool = False
    codec: str = "dense"
    codec_params: Tuple[int, ...] = ()
    _codec: Any = field(init=False, repr=False, compare=False)
    _num_words: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.key_fingerprint) != 16:
            raise ValueError("key fingerprint must be 16 bytes")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.summands < 1:
            raise ValueError("summands must be at least 1")
        expected = 1
        for dim in self.shape:
            expected *= dim
        if expected != self.count:
            raise ValueError(
                f"shape {self.shape} holds {expected} values, not "
                f"{self.count}")
        object.__setattr__(self, "codec_params",
                           tuple(int(p) for p in self.codec_params))
        # Reject unknown codec ids and implausible parameters up front:
        # a meta that cannot rebuild its codec cannot be decoded either.
        # Only the first meta of a layout pays for the validation.
        codec = build_codec(self)
        object.__setattr__(self, "_codec", codec)
        object.__setattr__(self, "_num_words",
                           codec.words_needed(self.count))

    @property
    def scheme_id(self) -> str:
        """Compact identity of the quantization scheme."""
        return (f"eq9:a{self.scheme.alpha:g}:r{self.scheme.r_bits}"
                f":p{self.scheme.num_parties}")

    @property
    def num_words(self) -> int:
        """Ciphertext words the payload occupies (codec-dependent)."""
        return self._num_words

    def summand_capacity(self) -> int:
        """How many same-layout tensors may be slot-wise summed.

        Per-codec: the Eq. 8 guard bits for dense and sparse, the
        widened guard band for the interleaved layout.  Shard capacity
        planning and the segmented decrypt consult this instead of
        assuming ``2**overflow_bits``.
        """
        return self._codec.max_safe_summands()

    # ------------------------------------------------------------------
    # Derived metadata for the homomorphic operations.
    # ------------------------------------------------------------------

    def combine_add(self, *others: "TensorMeta") -> "TensorMeta":
        """Metadata of the slot-wise sum of this tensor and ``others``.

        One meta for the whole n-ary sum: each operand is checked
        against this one, and the summand counts add.

        Raises:
            KeyMismatchError: An operand was encrypted under a
                different key.
            ValueError: An operand's layout is incompatible.
        """
        summands = self.summands
        for other in others:
            self._check_addable(other)
            summands += other.summands
        return replace(self, summands=summands)

    def _check_addable(self, other: "TensorMeta") -> None:
        if self.key_fingerprint != other.key_fingerprint:
            raise KeyMismatchError(
                "cannot add ciphertexts under different keys "
                f"({self.key_fingerprint.hex()[:8]} vs "
                f"{other.key_fingerprint.hex()[:8]})")
        if self.scheme != other.scheme or self.capacity != other.capacity:
            raise ValueError(
                f"layout mismatch: {self.scheme_id}/cap{self.capacity} vs "
                f"{other.scheme_id}/cap{other.capacity}")
        if self.codec != other.codec:
            raise ValueError(
                f"codec mismatch: {self.codec} vs {other.codec}")
        if self.codec_params != other.codec_params:
            # For the sparse layout this is the support-pattern check:
            # adding different patterns would sum unrelated positions.
            raise ValueError(
                f"codec parameter mismatch for {self.codec!r} "
                f"(patterns/widths differ)")
        if self.count != other.count or self.shape != other.shape:
            raise ValueError(
                f"shape mismatch: {self.shape} vs {other.shape}")

    def scaled(self, scalar: int) -> "TensorMeta":
        """Metadata after multiplying every slot by a positive integer.

        Scaling an Eq. 6 encoding by ``k`` scales its ``+alpha``
        translation too, so the summand count multiplies.
        """
        if scalar < 1:
            raise ValueError(
                f"scalar must be a positive integer, got {scalar}")
        return replace(self, summands=self.summands * scalar)

    def sliced(self, start: int, stop: int) -> "TensorMeta":
        """Metadata of a word-aligned logical slice ``[start:stop]``."""
        if not self._codec.describe().sliceable:
            raise ValueError(
                f"the {self.codec!r} codec is not sliceable: word "
                f"boundaries have no aligned meaning in index space")
        if not 0 <= start <= stop <= self.count:
            raise IndexError(
                f"slice [{start}:{stop}] outside 0..{self.count}")
        if start % self.capacity != 0:
            raise IndexError(
                f"slice start {start} not aligned to the packing "
                f"capacity {self.capacity}")
        if stop % self.capacity != 0 and stop != self.count:
            raise IndexError(
                f"slice stop {stop} not aligned to the packing "
                f"capacity {self.capacity}")
        new_count = stop - start
        return replace(self, shape=(new_count,), count=new_count)

    def summed(self, num_words: int) -> "TensorMeta":
        """Metadata after homomorphically summing all words into one.

        Raises:
            ValueError: The layout cannot be summed, or the sum would
                carry more summands than :meth:`summand_capacity`.
        """
        if self.capacity != 1:
            raise ValueError(
                "sum() needs capacity 1: summing packed words mixes "
                "unrelated slots")
        if not self._codec.describe().sliceable:
            raise ValueError(
                f"sum() over the {self.codec!r} layout mixes distinct "
                f"pattern positions; decode and re-encode densely instead")
        if num_words < 1:
            raise ValueError("cannot sum an empty tensor")
        summands = self.summands * num_words
        capacity = self.summand_capacity()
        if summands > capacity:
            raise ValueError(
                f"summing {num_words} words of {self.summands} summands "
                f"each carries {summands} summands, over the "
                f"{self.codec!r} codec's capacity of {capacity}: the sum "
                f"would overflow its guard bits and decode to garbage")
        return replace(self, shape=(1,), count=1, summands=summands)
