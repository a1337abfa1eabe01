"""Batched Paillier mathematics on limb planes (numpy-optional).

The pieces of the vectorized Paillier path that are pure mathematics --
CRT-split decryption and fixed-base ``g^m`` exponentiation -- live here,
importable without numpy (and without the engine/tensor stack), so the
mpint property suites can diff-test them directly against the scalar
formulas in :mod:`repro.crypto.paillier`.  Constructing any of the
classes without numpy raises via
:func:`repro.mpint.limb_plane.require_numpy`.

:class:`repro.crypto.vector_engine.VectorPaillierEngine` composes these
helpers with the ledger/tensor plumbing of the engine abstraction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.crypto.keys import PaillierPrivateKey, PaillierPublicKey
from repro.mpint.limb_plane import (
    FIXED_BASE_WINDOW_BITS,
    FixedBaseTable,
    PlaneContext,
    ints_to_plane,
    plane_to_ints,
    require_numpy,
)


class CrtDecryptor:
    """Vectorized CRT-split Paillier decryption (Garner recombination).

    Implements exactly the arithmetic of
    :meth:`repro.crypto.paillier.Paillier.raw_decrypt` -- two half-size
    exponentiations ``c^(p-1) mod p^2`` and ``c^(q-1) mod q^2`` followed
    by the L-function and Garner's formula -- but runs both
    exponentiations across the whole batch on limb planes.  The
    exponentiations are exact, so results are bit-identical to the
    scalar path.
    """

    def __init__(self, private_key: PaillierPrivateKey):
        require_numpy()
        self.private_key = private_key
        self._p, self._q = private_key.p, private_key.q
        self._n_squared = private_key.public_key.n_squared
        self.plane_p2 = PlaneContext(private_key.p_squared)
        self.plane_q2 = PlaneContext(private_key.q_squared)

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt a batch of raw ciphertexts into integers."""
        values = [int(c) for c in ciphertexts]
        if not values:
            return []
        for c in values:
            if not 0 <= c < self._n_squared:
                raise ValueError("ciphertext outside Z_{n^2}")
        p, q = self._p, self._q
        key = self.private_key
        x_p = self._half_powers(values, self.plane_p2, p)
        x_q = self._half_powers(values, self.plane_q2, q)
        out = []
        for xp, xq in zip(x_p, x_q):
            m_p = ((xp - 1) // p * key.hp) % p
            m_q = ((xq - 1) // q * key.hq) % q
            diff = ((m_p - m_q) * key.q_inverse) % p
            out.append(m_q + diff * q)
        return out

    @staticmethod
    def _half_powers(values: List[int], plane: PlaneContext,
                     prime: int) -> List[int]:
        """``c^(prime-1) mod prime^2`` for every ciphertext."""
        reduced = [c % plane.modulus for c in values]
        base = ints_to_plane(reduced, plane.num_limbs)
        return plane_to_ints(plane.pow_shared(base, prime - 1))


class VectorEncryptor:
    """Vectorized Paillier encryption core (``g^m`` times an obfuscator).

    ``g = n + 1`` uses the binomial shortcut ``1 + m n mod n^2`` (one
    big-integer multiplication per value); any other generator goes
    through a precomputed :class:`~repro.mpint.limb_plane.FixedBaseTable`
    over ``m``'s full range.  The caller supplies the ``r^n`` obfuscator
    plane (pooled or freshly exponentiated) and gets the finished
    ciphertext batch from one batched modular multiplication.
    """

    def __init__(self, public_key: PaillierPublicKey,
                 window_bits: int = FIXED_BASE_WINDOW_BITS):
        require_numpy()
        self.public_key = public_key
        self._n = public_key.n
        self._n_squared = public_key.n_squared
        self.plane = PlaneContext(self._n_squared)
        self._fixed_base: Optional[FixedBaseTable] = None
        self._window_bits = window_bits

    def fixed_base_table(self) -> FixedBaseTable:
        """The (lazily built) ``g^m`` window table for general ``g``."""
        if self._fixed_base is None:
            self._fixed_base = FixedBaseTable(
                self.plane, self.public_key.g,
                max_exponent_bits=self._n.bit_length(),
                window_bits=self._window_bits)
        return self._fixed_base

    def g_pow_plane(self, plaintexts: Sequence[int]):
        """``g^m mod n^2`` for every plaintext, as a canonical plane."""
        n, n_squared = self._n, self._n_squared
        if self.public_key.g == n + 1:
            g_m = [(1 + m * n) % n_squared for m in plaintexts]
            return ints_to_plane(g_m, self.plane.num_limbs)
        return self.fixed_base_table().pow(plaintexts)

    def finish(self, plaintexts: Sequence[int],
               obfuscator_plane) -> List[int]:
        """Combine ``g^m`` with the obfuscators: the ciphertext batch."""
        g_plane = self.g_pow_plane(plaintexts)
        return plane_to_ints(self.plane.mod_mul(g_plane, obfuscator_plane))
