"""Vectorized limb-plane Paillier engine (``vector-paillier``).

The third CPU-side execution path, next to the scalar
:class:`~repro.crypto.cpu_engine.CpuPaillierEngine` and the simulated
:class:`~repro.crypto.gpu_engine.GpuPaillierEngine`: every batch
operation runs on ``(num_limbs, batch)`` uint64 limb planes via
:mod:`repro.mpint.limb_plane`, with the classic Paillier production
optimizations stacked on top --

- CRT-split decryption (half-size mod-``p^2``/mod-``q^2``
  exponentiations recombined via Garner),
- the binomial ``1 + m n`` shortcut for ``g^m``, and
- the ``r^n`` obfuscators of :class:`~repro.crypto.engine.HeEngine`
  (the key-holder scalar route, amortized by a
  :class:`~repro.crypto.engine.RandomizerPool` by default), which are
  faster per value than a full-width limb-plane modexp.

The engine draws randomizers in exactly the scalar order (one per
plaintext, sequentially), so its ciphertexts are bit-identical to the
scalar engines and the plain-``pow()`` reference under a shared seed --
which is what lets the conformance matrix diff-test it for free.

numpy is optional: this module imports cleanly without it, the
oracle's engine table (:func:`repro.testing.conformance.engines`) then
leaves this path out, and constructing the engine raises.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.crypto.engine import HeEngine
from repro.crypto.keys import PaillierKeypair
from repro.gpu.cost_model import DEFAULT_PROFILE, HardwareProfile
from repro.ledger import (
    CAT_HE_ADD,
    CAT_HE_DECRYPT,
    CAT_HE_ENCRYPT,
    CAT_HE_SCALAR_MUL,
    CostLedger,
)
from repro.mpint import limb_plane
from repro.mpint.primes import LimbRandom

#: Default obfuscator pool size.  The amortized pool is part of this
#: engine's design point (the r^n exponentiation is the whole cost of
#: an encryption); pass ``randomizer_pool_size=0`` for fully fresh
#: randomizers on every value (full cryptographic hygiene -- the
#: conformance oracle runs this way so randomizer streams align with
#: the reference for traces of any length).
DEFAULT_POOL_SIZE = 64


class VectorPaillierEngine(HeEngine):
    """Batched limb-plane execution of Paillier on the CPU via numpy.

    Args:
        keypair: Paillier keys.
        profile: Hardware constants for time charging (the modelled
            costs match the scalar CPU engine: same ops, same charged
            category -- only the physical wall-clock differs).
        nominal_bits: Charged key size (defaults to physical).
        ledger: Shared cost ledger.
        rng: Randomizer source (the engine's routed stream).
        randomizer_pool_size: Amortized ``r^n`` pool size; ``0``
            disables pooling.
    """

    #: Additions run on limb planes, which are built from Python
    #: integers every call: a reduction's words stay plain.
    residue_modulus = None

    def __init__(self, keypair: PaillierKeypair,
                 profile: HardwareProfile = DEFAULT_PROFILE,
                 nominal_bits: Optional[int] = None,
                 ledger: Optional[CostLedger] = None,
                 rng: Optional[LimbRandom] = None,
                 randomizer_pool_size: int = DEFAULT_POOL_SIZE):
        limb_plane.require_numpy()
        # Imported lazily: repro.crypto.vector_math is numpy-optional,
        # but the classes below require numpy at construction time.
        from repro.crypto.vector_math import CrtDecryptor, VectorEncryptor
        super().__init__(keypair, nominal_bits=nominal_bits, ledger=ledger,
                         rng=rng, randomizer_pool_size=randomizer_pool_size)
        self.profile = profile
        self._encryptor = VectorEncryptor(self.public_key)
        self._decryptor = CrtDecryptor(self.private_key)
        self._plane = self._encryptor.plane

    # ------------------------------------------------------------------
    # Batch operations.
    # ------------------------------------------------------------------

    def encrypt_batch(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt the whole batch with one limb-plane launch chain."""
        self.public_key.check_plaintexts(plaintexts)
        count = len(plaintexts)
        if count == 0:
            return []
        # The scalar engines' draws and powers, taken the same way.
        powers, _ = self._take_obfuscators(count)
        obfuscators = limb_plane.ints_to_plane(powers,
                                               self._plane.num_limbs)
        results = self._encryptor.finish(plaintexts, obfuscators)
        self._charge(CAT_HE_ENCRYPT, count,
                     self.profile.words_per_encrypt(self.nominal_bits))
        return results

    def decrypt_batch(self, ciphertexts: Sequence[int]) -> List[int]:
        """CRT-split batched decryption."""
        results = self._decryptor.decrypt(ciphertexts)
        self._charge(CAT_HE_DECRYPT, len(ciphertexts),
                     self.profile.words_per_decrypt(self.nominal_bits))
        return results

    def add_batch(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        """Homomorphic addition: one batched modular multiplication."""
        if len(c1) != len(c2):
            raise ValueError("ciphertext batches differ in length")
        if not c1:
            return []
        plane = self._plane
        a = limb_plane.ints_to_plane(list(c1), plane.num_limbs)
        b = limb_plane.ints_to_plane(list(c2), plane.num_limbs)
        results = limb_plane.plane_to_ints(plane.mod_mul(a, b))
        self._charge(CAT_HE_ADD, len(c1),
                     self.profile.words_per_homomorphic_add(self.nominal_bits))
        return results

    def scalar_mul_batch(self, ciphertexts: Sequence[int],
                         scalars: Sequence[int]) -> List[int]:
        """Per-column square-and-multiply across the batch."""
        if len(ciphertexts) != len(scalars):
            raise ValueError("ciphertext and scalar batches differ in length")
        if not ciphertexts:
            return []
        for scalar in scalars:
            if scalar < 0:
                raise ValueError("negative scalars require encoding; use "
                                 "the quantization layer")
        plane = self._plane
        base = limb_plane.ints_to_plane(list(ciphertexts), plane.num_limbs)
        results = limb_plane.plane_to_ints(plane.pow_vary(base, scalars))
        self._charge(CAT_HE_SCALAR_MUL, len(ciphertexts),
                     self.profile.words_per_scalar_mul(self.nominal_bits))
        return results

    def _charge(self, category: str, ops: int, words_per_op: int) -> None:
        seconds = self.profile.cpu_seconds(ops, words_per_op)
        self.ledger.charge(category, seconds, count=ops)
