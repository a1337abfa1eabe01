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
from repro.crypto.paillier import Paillier
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
        """Encrypt sequentially, charging per-op CPU time.

        The standard generator ``g = n + 1`` takes the one-product route
        of :meth:`HeEngine._encrypt_standard`; any other ``g`` pays its
        ``g^m`` modexp.
        """
        self._check_plaintexts(plaintexts)
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        if self.public_key.g == n + 1:
            results = self._encrypt_standard(plaintexts)
        else:
            results = [powmod(self.public_key.g, m, n_squared)
                       * self._randomizer_power() % n_squared
                       for m in plaintexts]
        self._charge(CAT_HE_ENCRYPT, len(plaintexts),
                     self.profile.words_per_encrypt(self.nominal_bits))
        return results

    def decrypt_batch(self, ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt sequentially, charging per-op CPU time."""
        results = [Paillier.raw_decrypt(self.private_key, c)
                   for c in ciphertexts]
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
        results = [Paillier.raw_scalar_mul(self.public_key, c, k)
                   for c, k in zip(ciphertexts, scalars)]
        self._charge(CAT_HE_SCALAR_MUL, len(ciphertexts),
                     self.profile.words_per_scalar_mul(self.nominal_bits))
        return results

    def _charge(self, category: str, ops: int, words_per_op: int) -> None:
        seconds = self.profile.cpu_seconds(ops, words_per_op)
        self.ledger.charge(category, seconds, count=ops)


# ----------------------------------------------------------------------
# Conformance registration (differential oracle, repro.testing).
# ----------------------------------------------------------------------

def _cpu_conformance_factory(trace):
    """CPU Paillier vs the textbook ``pow()`` Paillier reference."""
    from repro.crypto.keys import generate_paillier_keypair
    from repro.testing.conformance import ConformancePair
    from repro.testing.parties import HeEngineParty
    from repro.testing.reference import PaillierReference
    keypair = generate_paillier_keypair(
        trace.key_bits, rng=LimbRandom(seed=trace.seed))
    engine = CpuPaillierEngine(keypair,
                               rng=LimbRandom(seed=trace.seed + 1))
    reference = PaillierReference(keypair, seed=trace.seed + 1)
    return ConformancePair(party=HeEngineParty(engine),
                           reference=reference)


_cpu_conformance_factory.capabilities = frozenset(
    {"encrypt", "decrypt", "add", "scalar_mul"})
HeEngine.register_conformance("cpu-paillier", _cpu_conformance_factory)
