"""Encoding-quantization (paper Sec. IV-B, Eqs. 6-8).

Homomorphic encryption operates on unsigned integers, so signed gradients
must be encoded first.  The paper's scheme:

1. linear translation: ``e = m + alpha`` maps ``[-alpha, alpha]`` onto
   ``[0, 2 alpha]`` (Eq. 6);
2. amplification: the translated value is scaled onto ``r`` bits (Eq. 7);
3. overflow headroom: ``b = ceil(log2 p)`` zero bits are reserved above the
   value so ``p`` participants' encodings can be *summed* under encryption
   without carrying into a neighbouring slot (Eq. 8).

Aggregated sums decode by subtracting ``count * alpha``: summing ``p``
encodings adds ``p`` copies of the translation offset.

Note on Eq. 7: the paper writes ``q = e * (2^r - 1)``, which only fills the
``r``-bit range when ``alpha = 1/2``.  We normalize by the interval width,
``q = round(e / (2 alpha) * (2^r - 1))``, which reduces to the paper's
formula at ``alpha = 1/2`` and keeps every ``alpha`` loss-minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.counters import OVERFLOW_BITS, WORK

#: The paper's default: 32 bits quantize a 32-bit float gradient, "where
#: the last two bits are used for computational overflow" (Sec. VI-B).
DEFAULT_QUANTIZATION_BITS = 30


def overflow_bits_for(num_parties: int) -> int:
    """Guard bits ``b = ceil(log2 p)`` reserved above each value (Eq. 8).

    The single source of the overflow-bit arithmetic: the quantization
    scheme, the Eq. 9/11/12 capacity formulas and every packing codec
    all derive their guard width from here, so the capacity algebra
    cannot drift between call sites.
    """
    WORK[OVERFLOW_BITS] += 1
    if num_parties < 1:
        raise ValueError("need at least one participant")
    return max(1, math.ceil(math.log2(max(num_parties, 2))))


def slot_bits_for(r_bits: int, num_parties: int) -> int:
    """Total bits per packed slot: ``r + b`` (Eq. 8)."""
    return r_bits + overflow_bits_for(num_parties)


@dataclass(frozen=True)
class QuantizationScheme:
    """The secure encoding-quantization of Eqs. 6-8.

    Attributes:
        alpha: Gradient bound; values are clipped into ``[-alpha, alpha]``.
        r_bits: Value bits ``r`` (Eq. 7).
        num_parties: Participant count ``p``; fixes the overflow bits
            ``b = ceil(log2 p)`` (Eq. 8).
    """

    alpha: float = 1.0
    r_bits: int = DEFAULT_QUANTIZATION_BITS
    num_parties: int = 2
    overflow_bits: int = field(init=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.r_bits < 2:
            raise ValueError("need at least 2 quantization bits")
        if self.num_parties < 1:
            raise ValueError("need at least one participant")
        object.__setattr__(self, "overflow_bits",
                           overflow_bits_for(self.num_parties))

    @property
    def slot_bits(self) -> int:
        """Total bits per encoded value: ``b + r`` (Eq. 8)."""
        return self.r_bits + self.overflow_bits

    @property
    def scale(self) -> float:
        """Fixed-point scale: encoded units per real unit."""
        return (2 ** self.r_bits - 1) / (2 * self.alpha)

    @property
    def quantization_step(self) -> float:
        """Real-valued width of one quantization level."""
        return 1.0 / self.scale

    # ------------------------------------------------------------------
    # Scalar interface.
    # ------------------------------------------------------------------

    def encode(self, value: float) -> int:
        """Encode one gradient into an unsigned ``r``-bit integer."""
        clipped = min(max(value, -self.alpha), self.alpha)
        translated = clipped + self.alpha                     # Eq. 6
        return int(round(translated * self.scale))            # Eq. 7

    def decode(self, encoded: int) -> float:
        """Invert :meth:`encode` for a single (non-aggregated) value."""
        return self.decode_sum(encoded, count=1)

    def decode_sum(self, encoded_sum: int, count: int) -> float:
        """Decode the sum of ``count`` encodings into the sum of values.

        Each encoding carries a ``+alpha`` translation, so the aggregate
        carries ``count * alpha``.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if count > 2 ** self.overflow_bits:
            raise OverflowError(
                f"{count} participants exceed the {self.overflow_bits} "
                f"reserved overflow bits")
        return encoded_sum / self.scale - count * self.alpha

    # ------------------------------------------------------------------
    # Vector interface (the hot path for gradient arrays).
    # ------------------------------------------------------------------

    def encode_array(self, values: np.ndarray) -> List[int]:
        """Encode a float array into Python-int encodings."""
        clipped = np.clip(np.asarray(values, dtype=np.float64),
                          -self.alpha, self.alpha)
        scaled = np.rint((clipped + self.alpha) * self.scale)
        # Encodings below 2^63 convert exactly through int64; wider
        # schemes, and a NaN (which int() rejects), go value by value.
        if self.r_bits < 63 and not np.isnan(scaled).any():
            return scaled.astype(np.int64).tolist()
        return [int(v) for v in scaled.tolist()]

    def decode_array(self, encoded: Sequence[int],
                     count: int = 1) -> np.ndarray:
        """Decode encodings (or slot-wise sums of ``count`` encodings)."""
        if count < 1:
            raise ValueError("count must be at least 1")
        values = np.asarray([float(e) for e in encoded], dtype=np.float64)
        return values / self.scale - count * self.alpha
