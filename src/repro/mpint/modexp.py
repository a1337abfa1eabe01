"""Sliding-window modular exponentiation (paper Sec. IV-A3).

FLBooster combines its GPU Montgomery multiplier with "an extension of the
sliding window exponential method", reducing the multiplication count of
``x^e mod n`` from ``O(e)`` to ``O(log_{2^b} e)`` where ``b`` is the window
width.  This module implements that schedule on top of
:class:`repro.mpint.montgomery.MontgomeryContext` and exposes an operation
counter so the simulated GPU can charge exactly the multiplications the
schedule performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpint.montgomery import MontgomeryContext, montgomery_multiply
from repro.mpint.native import powmod

#: Default sliding-window width.  Width 5 is the classic sweet spot for
#: 1024-4096-bit exponents: 16 precomputed odd powers, ~bits/5 + bits
#: multiplications total.
DEFAULT_WINDOW_BITS = 5


@dataclass
class ModExpStats:
    """Multiplication counts of one exponentiation, for the cost model."""

    squarings: int = 0
    multiplications: int = 0
    precompute: int = 0

    @property
    def total(self) -> int:
        """All Montgomery multiplications performed."""
        return self.squarings + self.multiplications + self.precompute


def sliding_window_pow(base: int, exponent: int, ctx: MontgomeryContext,
                       window_bits: int = DEFAULT_WINDOW_BITS,
                       stats: ModExpStats | None = None) -> int:
    """Compute ``base ** exponent mod ctx.modulus`` with sliding windows.

    Args:
        base: The base, any non-negative integer.
        exponent: The non-negative exponent.
        ctx: Montgomery context for the modulus.
        window_bits: Window width ``b``; odd powers up to ``2^b - 1`` are
            precomputed.
        stats: Optional counter accumulating the multiplication schedule,
            consumed by the GPU cost model.

    Returns:
        The modular power as a Python integer.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if ctx.modulus == 1:
        return 0
    if stats is None:
        stats = ModExpStats()
    if exponent == 0:
        return 1 % ctx.modulus

    mont_base = ctx.to_montgomery(base % ctx.modulus)

    # Precompute odd powers base^1, base^3, ..., base^(2^b - 1) in the
    # Montgomery domain.
    table_size = 1 << (window_bits - 1)
    base_squared = montgomery_multiply(mont_base, mont_base, ctx)
    stats.precompute += 1
    table = [mont_base]
    for _ in range(table_size - 1):
        table.append(montgomery_multiply(table[-1], base_squared, ctx))
        stats.precompute += 1

    result = ctx.one()
    bits = bin(exponent)[2:]
    index = 0
    length = len(bits)
    started = False
    while index < length:
        if bits[index] == "0":
            if started:
                result = montgomery_multiply(result, result, ctx)
                stats.squarings += 1
            index += 1
            continue
        # Take the longest window ending in a 1 bit, at most window_bits wide.
        window_end = min(index + window_bits, length)
        while bits[window_end - 1] == "0":
            window_end -= 1
        window_value = int(bits[index:window_end], 2)
        width = window_end - index
        if started:
            for _ in range(width):
                result = montgomery_multiply(result, result, ctx)
                stats.squarings += 1
            result = montgomery_multiply(result, table[window_value >> 1], ctx)
            stats.multiplications += 1
        else:
            result = table[window_value >> 1]
            started = True
        index = window_end

    return ctx.from_montgomery(result)


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Convenience wrapper: sliding-window power for an arbitrary modulus.

    Even moduli, which the Montgomery representation cannot host, go to
    :func:`repro.mpint.native.powmod` (the builtin ``pow`` for them).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if modulus % 2 == 0:
        return powmod(base, exponent, modulus)
    ctx = MontgomeryContext(modulus)
    return sliding_window_pow(base, exponent, ctx)


def modexp_multiplication_count(exponent_bits: int) -> int:
    """Expected Montgomery multiplications for an exponent of given size.

    One squaring per exponent bit, one table multiplication per
    ``b = DEFAULT_WINDOW_BITS``-bit window (``bits / b`` on average),
    plus ``2^(b-1)`` precomputations.  Used by the
    GPU cost model to charge modular exponentiations without rerunning them.
    """
    if exponent_bits <= 0:
        return 0
    squarings = exponent_bits
    window_mults = -(-exponent_bits // DEFAULT_WINDOW_BITS)
    precompute = 1 << (DEFAULT_WINDOW_BITS - 1)
    return squarings + window_mults + precompute
