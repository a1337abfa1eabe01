"""Limb (word-array) representation of multi-precision integers.

The paper (Sec. IV-A1) represents an integer ``m`` as ``s = ceil(k / w)``
words of ``w`` bits each, where ``k = ceil(log2 m)``.  A GPU program with
``d`` threads assigns ``s / d`` limbs to each thread.  This module provides
the canonical little-endian word-array representation used throughout the
repository, plus conversions to and from Python integers.

Limbs are stored least-significant first (index 0 is the lowest word), the
same orientation Algorithm 2 in the paper indexes them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

#: Default word size in bits.  The paper uses ``w = 32`` on 32-bit systems
#: and ``w = 64`` on 64-bit systems; 32 keeps intermediate products within
#: a machine double-word which mirrors CUDA's ``__umulhi`` usage.
WORD_BITS = 32

#: Mask for a single word at the default width.
WORD_MASK = (1 << WORD_BITS) - 1


def limbs_for_bits(bits: int, word_bits: int = WORD_BITS) -> int:
    """Return the number of limbs needed to hold a ``bits``-bit integer.

    >>> limbs_for_bits(1024)
    32
    >>> limbs_for_bits(1, word_bits=32)
    1
    """
    if bits <= 0:
        return 1
    return -(-bits // word_bits)


def from_int(value: int, size: int | None = None,
             word_bits: int = WORD_BITS) -> List[int]:
    """Split a non-negative integer into little-endian limbs.

    Args:
        value: The integer to convert.  Must be non-negative.
        size: Optional fixed number of limbs.  The result is zero-padded to
            this length; a value too large for ``size`` limbs raises
            ``OverflowError``.
        word_bits: Width of each limb in bits.

    Returns:
        A list of limb values, least significant first.

    >>> from_int(0x1_0000_0001)
    [1, 1]
    >>> from_int(5, size=4)
    [5, 0, 0, 0]
    """
    if value < 0:
        raise ValueError(f"limb representation requires value >= 0, got {value}")
    mask = (1 << word_bits) - 1
    limbs: List[int] = []
    remaining = value
    while remaining:
        limbs.append(remaining & mask)
        remaining >>= word_bits
    if not limbs:
        limbs.append(0)
    if size is not None:
        if len(limbs) > size:
            raise OverflowError(
                f"value needs {len(limbs)} limbs but only {size} were allowed")
        limbs.extend([0] * (size - len(limbs)))
    return limbs


def to_int(limbs: Sequence[int], word_bits: int = WORD_BITS) -> int:
    """Reassemble little-endian limbs into a Python integer.

    >>> to_int([1, 1])
    4294967297
    """
    value = 0
    for limb in reversed(limbs):
        value = (value << word_bits) | (limb & ((1 << word_bits) - 1))
    return value


class LimbVector:
    """A fixed-width multi-precision integer stored as limbs.

    This is the unit of data the simulated GPU kernels operate on: a value
    plus an explicit limb count, so that thread partitioning (``s / d`` limbs
    per thread) is well defined even for small values.

    The class intentionally keeps a tiny surface: arithmetic lives in
    :mod:`repro.mpint.montgomery` as free functions over raw limb lists,
    the kernel-style code of the paper's Algorithm 2.
    """

    __slots__ = ("limbs", "word_bits")

    def __init__(self, limbs: Iterable[int], word_bits: int = WORD_BITS):
        self.limbs: List[int] = list(limbs)
        self.word_bits = word_bits
        if not self.limbs:
            self.limbs = [0]

    @classmethod
    def from_int(cls, value: int, size: int | None = None,
                 word_bits: int = WORD_BITS) -> "LimbVector":
        """Build a vector from a Python integer (see :func:`from_int`)."""
        return cls(from_int(value, size=size, word_bits=word_bits), word_bits)

    def to_int(self) -> int:
        """Return the integer value of this vector."""
        return to_int(self.limbs, self.word_bits)

    def resized(self, size: int) -> "LimbVector":
        """Return a copy padded or validated to exactly ``size`` limbs."""
        return LimbVector(
            from_int(self.to_int(), size=size, word_bits=self.word_bits),
            self.word_bits,
        )

    def split(self, threads: int) -> List[List[int]]:
        """Partition the limbs across ``threads`` GPU threads.

        Mirrors the paper's assignment of ``x = s / T`` words per thread
        (Algorithm 2 input).  The limb count must divide evenly; callers
        resize first with :meth:`resized`.
        """
        count = len(self.limbs)
        if count % threads != 0:
            raise ValueError(
                f"{count} limbs cannot be split evenly across {threads} threads")
        per_thread = count // threads
        return [
            self.limbs[i * per_thread:(i + 1) * per_thread]
            for i in range(threads)
        ]

    def __len__(self) -> int:
        return len(self.limbs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LimbVector):
            return self.to_int() == other.to_int()
        if isinstance(other, int):
            return self.to_int() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.to_int())

    def __repr__(self) -> str:
        return f"LimbVector({self.to_int():#x}, limbs={len(self.limbs)})"
