"""Montgomery modular multiplication (paper Algorithms 1 and 2).

Two implementations are provided:

- :func:`montgomery_multiply` -- the basic word-free Algorithm 1, operating
  on Python integers.  Used for reference and for the CPU (FATE) engine.
- :func:`cios_montgomery_multiply` -- the CIOS (Coarsely Integrated Operand
  Scanning) variant of Algorithm 2, operating word by word over limb arrays
  exactly as the paper's GPU threads do.  The simulated GPU executes this
  routine and charges its per-word work to the cost model.

:class:`MontgomeryContext` packages the precomputed constants (``R``,
``R^-1``, ``N'``) that the paper notes "can be reused for all Montgomery
multiplications".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.mpint.limbs import WORD_BITS, from_int, limbs_for_bits
from repro.mpint.native import powmod


def _modular_inverse(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return powmod(value, -1, modulus)


@dataclass(frozen=True)
class MontgomeryContext:
    """Precomputed constants for Montgomery arithmetic modulo ``modulus``.

    Attributes:
        modulus: The odd modulus ``N``.
        word_bits: Limb width ``w``.
        num_limbs: ``s``, the limb count of the modulus.
        r: ``R = 2**(w * s)``, the Montgomery radix (``N < R``).
        r_inverse: ``R^-1 mod N``.
        n_prime: ``N' = -N^-1 mod R`` (Algorithm 1 input).
        n0_prime: ``n0' = -N[0]^-1 mod 2**w`` (Algorithm 2 input).
    """

    modulus: int
    word_bits: int = WORD_BITS
    num_limbs: int = field(init=False)
    r: int = field(init=False)
    r_inverse: int = field(init=False)
    n_prime: int = field(init=False)
    n0_prime: int = field(init=False)

    def __post_init__(self) -> None:
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if self.modulus % 2 == 0:
            raise ValueError("Montgomery arithmetic requires an odd modulus")
        num_limbs = limbs_for_bits(self.modulus.bit_length(), self.word_bits)
        r = 1 << (self.word_bits * num_limbs)
        object.__setattr__(self, "num_limbs", num_limbs)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_inverse", _modular_inverse(r, self.modulus))
        object.__setattr__(self, "n_prime", (-_modular_inverse(self.modulus, r)) % r)
        word_radix = 1 << self.word_bits
        n0 = self.modulus & (word_radix - 1)
        object.__setattr__(
            self, "n0_prime", (-_modular_inverse(n0, word_radix)) % word_radix)

    def to_montgomery(self, value: int) -> int:
        """Map ``value`` into the Montgomery domain: ``value * R mod N``."""
        return (value * self.r) % self.modulus

    def from_montgomery(self, value: int) -> int:
        """Map a Montgomery-domain value back: ``value * R^-1 mod N``."""
        return (value * self.r_inverse) % self.modulus

    def one(self) -> int:
        """The multiplicative identity in the Montgomery domain."""
        return self.r % self.modulus


def montgomery_multiply(a: int, b: int, ctx: MontgomeryContext) -> int:
    """Basic Montgomery multiplication (paper Algorithm 1).

    Computes ``a * b * R^-1 mod N`` using only masking (mod R) and shifting
    (div R), the cheap replacements the paper highlights for division and
    modulo when ``R`` is a power of two.
    """
    r_mask = ctx.r - 1
    r_bits = ctx.word_bits * ctx.num_limbs
    t = (a * b) & r_mask                       # T <- AB mod R
    m = (t * ctx.n_prime) & r_mask             # M <- T N' mod R
    u = (a * b + m * ctx.modulus) >> r_bits    # U <- (AB + MN) / R
    if u >= ctx.modulus:
        return u - ctx.modulus
    return u


def cios_montgomery_multiply(a_limbs: Sequence[int], b_limbs: Sequence[int],
                             ctx: MontgomeryContext) -> List[int]:
    """CIOS Montgomery multiplication over limb arrays (paper Algorithm 2).

    Follows the Coarsely Integrated Operand Scanning schedule the paper
    selects as the fastest of the five Koc-Acar-Kaliski variants: for each
    word ``b[i]`` it (1) multiply-accumulates ``a * b[i]`` into the running
    result ``t``, (2) derives ``m = t[0] * n0' mod 2^w`` so that adding
    ``m * n`` zeroes the lowest word, and (3) shifts ``t`` down one word.
    A final conditional subtraction reduces into ``[0, N)``.

    The outer loop in the paper iterates threads; here each "thread slice"
    is processed in sequence, producing bit-identical results to the
    parallel schedule.

    Returns the product ``a * b * R^-1 mod N`` as ``s`` limbs.
    """
    s = ctx.num_limbs
    word_bits = ctx.word_bits
    mask = (1 << word_bits) - 1
    n_limbs = from_int(ctx.modulus, size=s, word_bits=word_bits)
    a = list(a_limbs) + [0] * (s - len(a_limbs))
    b = list(b_limbs) + [0] * (s - len(b_limbs))
    # t has s + 2 words: s result words plus the (t[x], t[x+1]) carry pair
    # of Algorithm 2 lines 8-9.
    t = [0] * (s + 2)

    for i in range(s):
        # Lines 3-9: t <- t + a * b[i] with carry chain.
        carry = 0
        b_i = b[i]
        for k in range(s):
            total = t[k] + a[k] * b_i + carry
            t[k] = total & mask
            carry = total >> word_bits
        total = t[s] + carry
        t[s] = total & mask
        t[s + 1] += total >> word_bits

        # Line 10: m <- t[0] * n0' mod 2^w.
        m = (t[0] * ctx.n0_prime) & mask

        # Lines 11-15: t <- t + m * n; lowest word becomes zero.
        carry = 0
        for k in range(s):
            total = t[k] + m * n_limbs[k] + carry
            t[k] = total & mask
            carry = total >> word_bits
        total = t[s] + carry
        t[s] = total & mask
        t[s + 1] += total >> word_bits

        # Lines 16-17: shift t down one word (divide by 2^w).
        for k in range(s + 1):
            t[k] = t[k + 1]
        t[s + 1] = 0

    # Lines 18-22: conditional subtraction when the result overflows N.
    result = t[:s]
    overflow = t[s] > 0
    if overflow or _limb_ge(result, n_limbs):
        borrow = 0
        for k in range(s):
            total = result[k] - n_limbs[k] - borrow
            if total < 0:
                total += 1 << word_bits
                borrow = 1
            else:
                borrow = 0
            result[k] = total
    return result


def _limb_ge(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when limb array ``a`` >= ``b`` (equal lengths assumed)."""
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x > y
    return True


def cios_work_estimate(num_limbs: int) -> int:
    """Word-multiplication count of one CIOS multiplication.

    CIOS performs ``2 s^2 + s`` single-word multiplications for an
    ``s``-limb modulus; the simulated GPU charges kernel time from this
    count.
    """
    return 2 * num_limbs * num_limbs + num_limbs
