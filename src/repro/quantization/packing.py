"""Batch compression (paper Sec. IV-C, Eqs. 9, 11-13).

Packs ``n = floor(k / (r + b))`` quantized gradients into one plaintext so
that one encryption covers ``n`` values:

    Z = [0..0][q_0] [0..0][q_1] ... [0..0][q_{n-1}]        (Eq. 9)

Because every slot reserves ``b = ceil(log2 p)`` zero bits above its value,
slot-wise sums of up to ``p`` packed plaintexts never carry across slot
boundaries -- which is exactly why multiplying the packed *ciphertexts*
(Paillier addition) yields the slot-wise sums after decryption.

The compression ratio (Eq. 11), plaintext-space utilization (Eq. 12) and
the resulting HE-operation acceleration (Eq. 13) are provided as module
functions so benchmarks can print the theoretical curves of Fig. 7 next to
measured counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.counters import CODECS_BUILT, WORK
from repro.quantization.encoding import QuantizationScheme, slot_bits_for


def packing_capacity(key_bits: int, r_bits: int, num_parties: int) -> int:
    """Values per plaintext: ``n = floor(k / (r + ceil(log2 p)))``."""
    return max(1, key_bits // slot_bits_for(r_bits, num_parties))


def _ratio(n_values: int, words: int) -> float:
    """Eq. 11: logical values carried per ciphertext."""
    return n_values / words if words else 0.0


def _psu(payload_slots: int, slot_bits: int, plaintext_bits: int,
         words: int) -> float:
    """Eq. 12: fraction of plaintext bits carrying payload."""
    if not words:
        return 0.0
    return (payload_slots * slot_bits) / (plaintext_bits * words)


def compression_ratio(n_values: int, key_bits: int, r_bits: int,
                      num_parties: int) -> float:
    """Eq. 11: achieved ciphertext-count reduction for ``n_values``."""
    capacity = packing_capacity(key_bits, r_bits, num_parties)
    return _ratio(n_values, math.ceil(n_values / capacity))


def plaintext_space_utilization(n_values: int, key_bits: int, r_bits: int,
                                num_parties: int) -> float:
    """Eq. 12: fraction of plaintext bits carrying payload."""
    capacity = packing_capacity(key_bits, r_bits, num_parties)
    return _psu(n_values, slot_bits_for(r_bits, num_parties), key_bits,
                math.ceil(n_values / capacity))


@dataclass(frozen=True)
class CodecCapabilities:
    """Capability descriptor every packing codec advertises.

    Attributes:
        slot_layout: Human-readable layout family (``"dense-msb"``,
            ``"interleave-lsb"``, ``"sparse-pairs"``).
        summand_capacity: How many packed words may be slot-wise summed
            before a carry can cross into a neighbouring slot.
        add_safe: Whether homomorphic addition of two *independently*
            encoded tensors is well defined (sparse layouts additionally
            require identical support, enforced by the TensorMeta
            algebra's codec-parameter equality check).
        sliceable: Whether slot ``k`` of the word stream carries logical
            value ``k``.  Word-aligned slicing, whole-tensor ``sum()``
            and ciphertext-side packing only mean something when it
            does; the sparse layout stores pattern positions instead.
    """

    slot_layout: str
    summand_capacity: int
    add_safe: bool = True
    sliceable: bool = True


class SlotCodec:
    """The one slot layout every packing codec is an instance of.

    A word holds ``capacity`` slots of ``value_bits + guard_bits`` bits,
    first slot most significant (Eq. 9) or least significant
    (:attr:`lsb_first`); slot-wise sums of up to ``2**guard_bits`` words
    never carry into a neighbour.  The core owns everything that follows
    from those numbers -- validation, word assembly and extraction,
    word counts, Eqs. 11-12, the summand guard, the capability
    descriptor -- and fixes all of it at construction, so a codec is an
    immutable value: :func:`~repro.quantization.codecs.build_codec`
    shares one instance per layout.

    A concrete codec supplies ``codec_id``, ``slot_layout``, a
    constructor that derives ``value_bits`` / ``guard_bits`` (setting
    its own attributes *before* calling this one, which seals the
    object), ``codec_params()`` / ``from_meta()`` for the wire, and --
    only when stored slots are not the logical encodings --
    ``slot_count`` / ``_to_slots`` / ``_encodings``.

    Args:
        scheme: The quantization scheme whose encodings are packed.
        plaintext_bits: Physical plaintext budget; packing more slots
            than fit raises at construction.
        value_bits / guard_bits: Payload and headroom bits of one slot.
        capacity: Values per plaintext.  Normally
            ``floor(plaintext_bits / slot_bits)``; pass an explicit value
            to model a *nominal* key whose capacity differs from the
            physical plaintext (scaled benchmark mode, see DESIGN.md).
    """

    codec_id: str
    slot_layout: str
    #: Slot 0 sits in the low bits (else the Eq. 9 left-to-right order).
    lsb_first = False
    #: See :class:`CodecCapabilities`.
    sliceable = True
    #: A one-slot word has no neighbour to carry into, so the summand
    #: guard of :meth:`decode_words` applies from two slots up.
    single_slot_exempt = True
    #: Whether ``from_meta`` validates against ``meta.count``, making the
    #: count part of the layout :func:`build_codec` keys on.
    keyed_by_count = False

    def __init__(self, scheme: QuantizationScheme, plaintext_bits: int,
                 value_bits: int, guard_bits: int,
                 capacity: int | None = None):
        WORK[CODECS_BUILT] += 1
        slot_bits = value_bits + guard_bits
        if plaintext_bits < slot_bits:
            raise ValueError(
                f"plaintext of {plaintext_bits} bits cannot hold one "
                f"{slot_bits}-bit {self.codec_id} slot")
        if capacity is None:
            capacity = plaintext_bits // slot_bits
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if capacity * slot_bits > plaintext_bits:
            raise ValueError(
                f"{capacity} slots of {slot_bits} bits exceed "
                f"the {plaintext_bits}-bit plaintext")
        self.scheme = scheme
        self.plaintext_bits = plaintext_bits
        self.capacity = capacity
        #: Bits per slot (``r + b`` for the paper's layout).
        self.slot_bits = slot_bits
        self.guard_bits = guard_bits
        self._mask = (1 << slot_bits) - 1
        self._max_summands = 1 << guard_bits
        # Slot ``i`` sits ``_first_shift + i * _stride`` bits up the word.
        self._stride = slot_bits if self.lsb_first else -slot_bits
        self._first_shift = 0 if self.lsb_first else slot_bits * (capacity - 1)
        self._capabilities = CodecCapabilities(
            slot_layout=self.slot_layout,
            summand_capacity=self._max_summands,
            sliceable=self.sliceable)

    def __setattr__(self, name, value):
        if "_capabilities" in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__} is immutable: one instance is "
                f"shared by every tensor of its layout")
        object.__setattr__(self, name, value)

    def slot_shift(self, position: int) -> int:
        """Bit offset of slot ``position`` within a word."""
        return self._first_shift + position * self._stride

    def max_safe_summands(self) -> int:
        """How many packed words may be summed without cross-slot carries."""
        return self._max_summands

    def describe(self) -> CodecCapabilities:
        """Capability descriptor for planners and the conformance matrix."""
        return self._capabilities

    # ------------------------------------------------------------------
    # Packing / unpacking.
    # ------------------------------------------------------------------

    def pack(self, encoded: Sequence[int]) -> List[int]:
        """Pack encodings into plaintext integers, ``capacity`` per word.

        A partial final word keeps its slots at their fixed offsets
        (left-aligned under the MSB-first order); unpack with the
        original count.
        """
        bound = 1 << self.scheme.r_bits
        for value in encoded:
            if not 0 <= value < bound:
                raise ValueError(
                    f"encoding {value} outside the {self.scheme.r_bits}-bit "
                    f"value range")
        slots = self._to_slots(encoded)
        capacity, first_shift, stride = (
            self.capacity, self._first_shift, self._stride)
        words: List[int] = []
        for start in range(0, len(slots), capacity):
            word, shift = 0, first_shift
            for value in slots[start:start + capacity]:
                word |= value << shift
                shift += stride
            words.append(word)
        # A non-empty tensor with nothing stored still ships one word.
        return words or [0] * self.words_needed(len(encoded))

    def unpack(self, words: Sequence[int], count: int) -> List[int]:
        """Extract the ``count`` encodings ``pack`` laid out.

        Safe for *aggregated* words: each slot is read with its guard
        bits included, so slot-wise sums of up to
        ``max_safe_summands()`` encodings come back exactly.
        """
        return self._encodings(words, count, 1)

    def pack_values(self, values: np.ndarray) -> List[int]:
        """Quantize a flat float array and pack it into plaintext words."""
        return self.pack(self.scheme.encode_array(np.asarray(values)))

    def decode_words(self, words: Sequence[int], count: int,
                     summands: int = 1) -> np.ndarray:
        """Unpack words and decode slot sums of ``summands`` encodings."""
        if summands > self._max_summands and not (
                self.capacity == 1 and self.single_slot_exempt):
            raise OverflowError(
                f"{summands} summands exceed the {self.guard_bits}-bit "
                f"guard band of the {self.codec_id} layout")
        return self.scheme.decode_array(
            self._encodings(words, count, summands), count=summands)

    def slot_count(self, n_values: int) -> int:
        """Slots that ``n_values`` logical values occupy."""
        return n_values

    def words_needed(self, n_values: int) -> int:
        """Plaintext words (and thus ciphertexts) for ``n_values``."""
        if n_values <= 0:
            return 0
        return max(1, math.ceil(self.slot_count(n_values) / self.capacity))

    def _to_slots(self, encoded: Sequence[int]) -> Sequence[int]:
        """The slot values stored for a full-length encoding vector."""
        return encoded

    def _encodings(self, words: Sequence[int], count: int,
                   summands: int) -> List[int]:
        """Per-position sums of ``summands`` encodings read from words."""
        return self._extract(words, count)

    def _extract(self, words: Sequence[int], count: int) -> List[int]:
        """Read the stored slots of ``count`` logical values."""
        expected = self.words_needed(count)
        if len(words) < expected:
            raise ValueError(
                f"{count} values need {expected} words, got {len(words)}")
        capacity, mask, first_shift, stride = (
            self.capacity, self._mask, self._first_shift, self._stride)
        remaining = self.slot_count(count)
        slots: List[int] = []
        for word in words:
            if remaining <= 0:
                break
            shift = first_shift
            for _ in range(min(capacity, remaining)):
                slots.append((word >> shift) & mask)
                shift += stride
            remaining -= capacity
        return slots

    # ------------------------------------------------------------------
    # Theory hooks.
    # ------------------------------------------------------------------

    def achieved_psu(self, n_values: int) -> float:
        """Eq. 12 for the slots actually stored in this plaintext size."""
        return _psu(self.slot_count(n_values), self.slot_bits,
                    self.plaintext_bits, self.words_needed(n_values))

    # ------------------------------------------------------------------
    # Wire protocol (see quantization/codecs.py).
    # ------------------------------------------------------------------

    def codec_params(self) -> Tuple[int, ...]:
        """Integer wire parameters that, with the scheme and capacity,
        rebuild this layout through ``from_meta``."""
        return ()


class BatchPacker(SlotCodec):
    """The paper's dense layout (Eq. 9): ``r + b``-bit slots, MSB first.

    Fully fixed by the scheme, so it adds nothing to the core and takes
    no wire parameters.  See :class:`SlotCodec` for the arguments.
    """

    codec_id = "dense"
    slot_layout = "dense-msb"

    def __init__(self, scheme: QuantizationScheme, plaintext_bits: int,
                 capacity: int | None = None):
        super().__init__(scheme, plaintext_bits, scheme.r_bits,
                         scheme.overflow_bits, capacity)

    @classmethod
    def from_meta(cls, meta) -> "BatchPacker":
        """Rebuild the packer a :class:`TensorMeta` describes."""
        if tuple(getattr(meta, "codec_params", ())):
            raise ValueError("the dense codec takes no wire parameters")
        return cls(meta.scheme,
                   plaintext_bits=meta.capacity * meta.scheme.slot_bits,
                   capacity=meta.capacity)


@dataclass(frozen=True)
class PackingPlan:
    """A consistent (scheme, packer) pair for a given engine and key.

    In full-fidelity mode the physical plaintext hosts the nominal
    capacity at full ``r`` bits.  In scaled mode (physical key smaller than
    nominal) the plan keeps the *nominal capacity* -- so ciphertext counts,
    compression ratios, and communication volumes match the nominal key --
    and shrinks the slot width to what the physical plaintext affords.
    """

    scheme: QuantizationScheme
    packer: BatchPacker
    nominal_key_bits: int

    @classmethod
    def for_engine(cls, engine, alpha: float = 1.0,
                   r_bits: int = 30, num_parties: int = 2) -> "PackingPlan":
        """Build the plan for an HE engine (physical vs nominal aware)."""
        nominal_scheme = QuantizationScheme(
            alpha=alpha, r_bits=r_bits, num_parties=num_parties)
        capacity = packing_capacity(engine.nominal_bits, r_bits, num_parties)
        physical_bits = engine.physical_plaintext_bits
        slot_budget = physical_bits // capacity
        if slot_budget >= nominal_scheme.slot_bits:
            scheme = nominal_scheme
        else:
            # Scaled mode: shrink the value bits, keep the overflow bits.
            reduced_r = slot_budget - nominal_scheme.overflow_bits
            if reduced_r < 2:
                raise ValueError(
                    f"physical key too small: {physical_bits} plaintext bits "
                    f"cannot host {capacity} slots")
            scheme = QuantizationScheme(
                alpha=alpha, r_bits=reduced_r, num_parties=num_parties)
        packer = BatchPacker(scheme, plaintext_bits=physical_bits,
                             capacity=capacity)
        return cls(scheme=scheme, packer=packer,
                   nominal_key_bits=engine.nominal_bits)
