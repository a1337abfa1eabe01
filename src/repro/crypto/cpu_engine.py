"""CPU Paillier engine: the FATE baseline path.

Operations run one at a time on the CPU; the ledger is charged the modelled
sequential time of an optimized big-integer library at the nominal key size
(the calibration note in :mod:`repro.gpu.cost_model` explains the
constants).  This is the configuration whose HE share of an epoch exceeds
50% in the paper's Fig. 1.
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
from repro.mpint.native import mulmod_batch, powmod
from repro.mpint.primes import LimbRandom


class CpuPaillierEngine(HeEngine):
    """Scalar CPU execution of Paillier batches.

    Args:
        keypair: Paillier keys.
        profile: Hardware constants for time charging.
        nominal_bits: Charged key size (defaults to physical).
        ledger: Shared cost ledger.
        rng: Randomizer source.
    """

    def __init__(self, keypair: PaillierKeypair,
                 profile: HardwareProfile = DEFAULT_PROFILE,
                 nominal_bits: Optional[int] = None,
                 ledger: Optional[CostLedger] = None,
                 rng: Optional[LimbRandom] = None,
                 randomizer_pool_size: int = 0):
        super().__init__(keypair, nominal_bits=nominal_bits, ledger=ledger,
                         rng=rng, randomizer_pool_size=randomizer_pool_size)
        self.profile = profile

    def encrypt_batch(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt by the one-product route of
        :meth:`~repro.crypto.keys.PaillierPublicKey.encrypt`, charging
        per-op CPU time."""
        results = self.public_key.encrypt(plaintexts, self._take_obfuscators)
        self._charge(CAT_HE_ENCRYPT, len(plaintexts),
                     self.profile.words_per_encrypt(self.nominal_bits))
        return results

    def decrypt_batch(self, ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt the batch by CRT, charging per-op CPU time."""
        results = self.private_key.decrypt(ciphertexts)
        self._charge(CAT_HE_DECRYPT, len(ciphertexts),
                     self.profile.words_per_decrypt(self.nominal_bits))
        return results

    def add_batch(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        """Homomorphic additions, one modular multiplication each."""
        if len(c1) != len(c2):
            raise ValueError("ciphertext batches differ in length")
        results = mulmod_batch(c1, c2, self.public_key.n_squared)
        self._charge(CAT_HE_ADD, len(c1),
                     self.profile.words_per_homomorphic_add(self.nominal_bits))
        return results

    def scalar_mul_batch(self, ciphertexts: Sequence[int],
                         scalars: Sequence[int]) -> List[int]:
        """Plaintext-scalar multiplications (short modexp each)."""
        if len(ciphertexts) != len(scalars):
            raise ValueError("ciphertext and scalar batches differ in length")
        for scalar in scalars:
            if scalar < 0:
                raise ValueError("negative scalars require encoding; use "
                                 "the quantization layer")
        n_squared = self.public_key.n_squared
        results = [powmod(c, k, n_squared)
                   for c, k in zip(ciphertexts, scalars)]
        self._charge(CAT_HE_SCALAR_MUL, len(ciphertexts),
                     self.profile.words_per_scalar_mul(self.nominal_bits))
        return results

    def _charge(self, category: str, ops: int, words_per_op: int) -> None:
        seconds = self.profile.cpu_seconds(ops, words_per_op)
        self.ledger.charge(category, seconds, count=ops)
