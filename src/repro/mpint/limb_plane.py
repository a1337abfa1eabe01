"""Vectorized limb-plane Montgomery arithmetic (the numpy backend).

The scalar kernels in :mod:`repro.mpint.montgomery` process one big
integer at a time, limb by limb, in Python loops.  This module stores a
whole *batch* of big integers as a ``(num_limbs, batch)`` uint64 matrix
of 32-bit limbs -- one row per limb position, one column per value --
and runs the CIOS Montgomery schedule of
:func:`repro.mpint.montgomery.cios_montgomery_multiply` across every
column per step as numpy array operations (the HAFLO batched-operator
layout: contiguous limb planes, not per-value objects).

Carry handling is *lazy*: products are accumulated into a double-width
offset accumulator without normalizing between outer iterations.  With
32-bit limbs in 64-bit lanes, each accumulator word stays bounded by
``s * 4 * 2^32`` (< 2^43 for every modulus size this repository uses),
so a single sequential carry sweep after the outer loop recovers the
canonical representation exactly.  All arithmetic is exact modular
integer math, which is why any correct schedule -- scalar or batched --
yields bit-identical results; the conformance and property suites
enforce that.

Two operating modes:

- ``headroom=0`` -- the limb geometry (and Montgomery radix ``R``) match
  :class:`~repro.mpint.montgomery.MontgomeryContext` exactly and every
  product is fully reduced into ``[0, N)``, making
  :meth:`PlaneContext.mont_mul` bit-identical to the scalar CIOS kernel.
- ``headroom=1`` (default) -- one extra limb gives a radix ``R' >= 4N``,
  so intermediates may stay in the redundant range ``[0, 2N)`` without a
  per-multiply conditional subtraction; values are fully reduced only at
  domain exit.  The exit value equals the exact modular result, so the
  speedup is observationally invisible.

numpy is an optional dependency: the module imports without it
(``HAVE_NUMPY`` is ``False``) and every array entry point raises a
clear error via :func:`require_numpy`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.mpint.limbs import WORD_BITS, from_int
from repro.mpint.montgomery import MontgomeryContext

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False

#: Default sliding-window width for batched exponentiation (matches
#: :data:`repro.mpint.modexp.DEFAULT_WINDOW_BITS`).
DEFAULT_WINDOW_BITS = 5


def require_numpy():
    """Return numpy, or raise with an actionable message when absent."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "the limb-plane backend requires numpy; install numpy or use "
            "the scalar engines (cpu-paillier / gpu-paillier)")
    return _np


# ----------------------------------------------------------------------
# Plane <-> integer conversions.
# ----------------------------------------------------------------------

def ints_to_plane(values: Sequence[int], num_limbs: int):
    """Pack integers into a ``(num_limbs, batch)`` uint64 limb matrix.

    Each column holds one value as little-endian 32-bit limbs widened to
    uint64 lanes.  Values must fit in ``num_limbs`` limbs.
    """
    np = require_numpy()
    count = len(values)
    nbytes = num_limbs * 4
    buffer = bytearray(nbytes * count)
    for column, value in enumerate(values):
        buffer[column * nbytes:(column + 1) * nbytes] = \
            int(value).to_bytes(nbytes, "little")
    flat = np.frombuffer(bytes(buffer), dtype="<u4")
    return np.ascontiguousarray(
        flat.reshape(count, num_limbs).T).astype(np.uint64)


def plane_to_ints(plane) -> List[int]:
    """Unpack a canonical limb plane back into Python integers."""
    np = require_numpy()
    num_limbs, count = plane.shape
    blob = np.ascontiguousarray(plane.T).astype("<u4").tobytes()
    nbytes = num_limbs * 4
    return [int.from_bytes(blob[i * nbytes:(i + 1) * nbytes], "little")
            for i in range(count)]


class PlaneContext:
    """Batched Montgomery arithmetic over uint64 limb planes.

    Args:
        modulus: The odd modulus ``N``.
        headroom: Extra limbs beyond the scalar context's count.  ``0``
            reproduces the scalar CIOS geometry bit-for-bit (fully
            reduced outputs); ``1`` (default) enables the redundant
            ``[0, 2N)`` representation that skips per-multiply
            conditional subtraction.
    """

    def __init__(self, modulus: int, headroom: int = 1):
        np = require_numpy()
        if headroom < 0:
            raise ValueError("headroom must be non-negative")
        self.ctx = MontgomeryContext(modulus)
        self.modulus = modulus
        self.headroom = headroom
        self.num_limbs = self.ctx.num_limbs + headroom
        #: The plane radix ``R' = 2^(w * (s + headroom))``.
        self.r = 1 << (WORD_BITS * self.num_limbs)
        self.r_mod = self.r % modulus
        self.r_squared = (self.r * self.r) % modulus
        self._mask = np.uint64((1 << WORD_BITS) - 1)
        self._shift = np.uint64(WORD_BITS)
        self._n0_prime = np.uint64(self.ctx.n0_prime)
        n_limbs = from_int(modulus, size=self.num_limbs)
        self.n_col = np.array(n_limbs, dtype=np.uint64).reshape(
            self.num_limbs, 1)
        self._n_flat = self.n_col.reshape(self.num_limbs)
        # Constant single-column planes used by the domain helpers.
        self.one_col = ints_to_plane([1], self.num_limbs)
        self.r2_col = ints_to_plane([self.r_squared], self.num_limbs)
        self.r_mod_col = ints_to_plane([self.r_mod], self.num_limbs)

    # ------------------------------------------------------------------
    # The batched CIOS kernel.
    # ------------------------------------------------------------------

    def mont_mul(self, a, b):
        """Batched CIOS Montgomery product ``a * b * R'^-1 mod N``.

        ``a`` is a ``(num_limbs, B)`` plane; ``b`` may be a plane of the
        same batch width or a broadcastable ``(num_limbs, 1)`` constant.

        With ``headroom == 0`` inputs must be canonical (``< N``) and
        the output is fully reduced into ``[0, N)`` -- bit-identical to
        :func:`repro.mpint.montgomery.cios_montgomery_multiply`.  With
        headroom, inputs may be redundant (``< 2N``) and the output
        stays in ``[0, 2N)`` (``R' >= 4N`` guarantees closure).
        """
        np = _np
        s = self.num_limbs
        batch = max(a.shape[1], b.shape[1])
        mask, shift = self._mask, self._shift
        n0p = self._n0_prime
        n_col = self.n_col
        # Offset accumulator: row i of the logical result lives at
        # acc[i + outer_iteration], so the per-iteration one-word shift
        # of Algorithm 2 is an index offset, not a data move.
        acc = np.zeros((2 * s + 2, batch), dtype=np.uint64)
        for i in range(s):
            prod = a * b[i]
            acc[i:i + s] += prod & mask
            acc[i + 1:i + s + 1] += prod >> shift
            m = (acc[i] * n0p) & mask
            prod = n_col * m
            acc[i:i + s] += prod & mask
            acc[i + 1:i + s + 1] += prod >> shift
            # Retire the (now zero mod 2^w) lowest word's carry so the
            # next iteration's m sees the exact low word.
            acc[i + 1] += acc[i] >> shift
        result = acc[s:]
        carry = np.zeros(batch, dtype=np.uint64)
        for k in range(result.shape[0]):
            total = result[k] + carry
            result[k] = total & mask
            carry = total >> shift
        if self.headroom:
            # Value < 2N < R': fits in num_limbs limbs, stays redundant.
            return np.ascontiguousarray(result[:s])
        return self._subtract_if_ge(result)

    def _subtract_if_ge(self, limbs):
        """Conditionally subtract ``N`` once from normalized limb rows.

        ``limbs`` may carry extra rows beyond ``num_limbs`` (the CIOS
        overflow words); the value must be ``< 2N``.  Returns the
        canonical ``(num_limbs, B)`` plane in ``[0, N)``.
        """
        np = _np
        s = self.num_limbs
        batch = limbs.shape[1]
        n_flat = self._n_flat
        overflow = np.zeros(batch, dtype=bool)
        for k in range(s, limbs.shape[0]):
            overflow |= limbs[k] != 0
        # Lexicographic >= against N, scanning from the top limb.
        ge = np.ones(batch, dtype=bool)
        decided = np.zeros(batch, dtype=bool)
        for k in range(s - 1, -1, -1):
            row = limbs[k]
            word = n_flat[k]
            gt = row > word
            lt = row < word
            ge = np.where(~decided & gt, True, ge)
            ge = np.where(~decided & lt, False, ge)
            decided |= gt | lt
        subtract = overflow | ge
        out = np.ascontiguousarray(limbs[:s])
        borrow = np.zeros(batch, dtype=np.uint64)
        one = np.uint64(1)
        zero = np.uint64(0)
        mask = self._mask
        for k in range(s):
            current = out[k]
            needed = n_flat[k] + borrow
            short = current < needed
            out[k] = np.where(subtract, (current - needed) & mask, current)
            borrow = np.where(subtract & short, one,
                              np.where(subtract, zero, borrow))
        return out

    # ------------------------------------------------------------------
    # Domain helpers.
    # ------------------------------------------------------------------

    def to_montgomery(self, plane):
        """Map canonical values into the (possibly redundant) domain."""
        return self.mont_mul(plane, self.r2_col)

    def exit_montgomery(self, plane):
        """Leave the Montgomery domain with a fully reduced result."""
        out = self.mont_mul(plane, self.one_col)
        if self.headroom:
            out = self._subtract_if_ge(out)
        return out

    def reduce(self, plane):
        """Fully reduce a redundant plane into canonical ``[0, N)``."""
        if self.headroom:
            return self._subtract_if_ge(plane)
        return plane

    def mod_mul(self, a, b):
        """Exact batched modular product ``a * b mod N`` (canonical)."""
        product = self.mont_mul(self.to_montgomery(a), b)
        return self.reduce(product)

    def one_plane(self, batch: int):
        """A canonical plane of ones (``1 mod N`` per column)."""
        np = _np
        return np.tile(self.one_col, (1, batch))

    # ------------------------------------------------------------------
    # Batched exponentiation.
    # ------------------------------------------------------------------

    def pow_shared(self, base_plane, exponent: int):
        """``base ** exponent mod N`` for every column, shared exponent.

        Runs the exact sliding-window schedule of
        :func:`repro.mpint.modexp.sliding_window_pow`, with
        ``DEFAULT_WINDOW_BITS``-bit windows and every Montgomery
        multiplication batched across the plane.  The output
        is canonical and bit-identical to ``pow(base, exponent, N)``.
        """
        np = _np
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        batch = base_plane.shape[1]
        if exponent == 0:
            return self.one_plane(batch)
        mont_base = self.to_montgomery(base_plane)
        table_size = 1 << (DEFAULT_WINDOW_BITS - 1)
        base_squared = self.mont_mul(mont_base, mont_base)
        table = [mont_base]
        for _ in range(table_size - 1):
            table.append(self.mont_mul(table[-1], base_squared))
        bits = bin(exponent)[2:]
        result = None
        index = 0
        length = len(bits)
        while index < length:
            if bits[index] == "0":
                if result is not None:
                    result = self.mont_mul(result, result)
                index += 1
                continue
            window_end = min(index + DEFAULT_WINDOW_BITS, length)
            while bits[window_end - 1] == "0":
                window_end -= 1
            window_value = int(bits[index:window_end], 2)
            if result is not None:
                for _ in range(window_end - index):
                    result = self.mont_mul(result, result)
                result = self.mont_mul(result, table[window_value >> 1])
            else:
                result = table[window_value >> 1]
            index = window_end
        return self.exit_montgomery(result)

    def pow_vary(self, base_plane, exponents: Sequence[int]):
        """``base[j] ** exponents[j] mod N`` with per-column exponents.

        Left-to-right square-and-multiply over the longest exponent;
        columns whose bit is clear keep the squared value via a masked
        select.  Exact, hence bit-identical to per-element ``pow``.
        """
        np = _np
        exps = [int(e) for e in exponents]
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        batch = base_plane.shape[1]
        if len(exps) != batch:
            raise ValueError("one exponent per plane column required")
        max_bits = max((e.bit_length() for e in exps), default=0)
        if max_bits == 0:
            return self.one_plane(batch)
        mont_base = self.to_montgomery(base_plane)
        result = np.tile(self.r_mod_col, (1, batch))  # Montgomery 1.
        for bit in range(max_bits - 1, -1, -1):
            result = self.mont_mul(result, result)
            select = np.array([bool((e >> bit) & 1) for e in exps])
            if select.any():
                multiplied = self.mont_mul(result, mont_base)
                result = np.where(select, multiplied, result)
        return self.exit_montgomery(result)


# ----------------------------------------------------------------------
# Convenience wrappers over int lists (used by the property suites).
# ----------------------------------------------------------------------

_CONTEXT_CACHE: Dict[int, PlaneContext] = {}


def plane_context(modulus: int) -> PlaneContext:
    """A cached :class:`PlaneContext` (constants are reusable)."""
    if modulus not in _CONTEXT_CACHE:
        if len(_CONTEXT_CACHE) > 64:
            _CONTEXT_CACHE.clear()
        _CONTEXT_CACHE[modulus] = PlaneContext(modulus)
    return _CONTEXT_CACHE[modulus]


def batched_pow(values: Sequence[int], exponent: int,
                modulus: int) -> List[int]:
    """Shared-exponent batched modexp over Python integers."""
    plane = plane_context(modulus)
    base = ints_to_plane([v % modulus for v in values], plane.num_limbs)
    return plane_to_ints(plane.pow_shared(base, exponent))
