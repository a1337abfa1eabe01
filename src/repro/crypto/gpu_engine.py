"""GPU Paillier engine: the HAFLO / FLBooster path (paper Sec. IV-A3).

Batches are executed by the simulated GPU kernels: encryption is the
``g^m = 1 + m n`` multiplication plus an ``r^n`` exponentiation kernel and
a final modular-multiplication kernel; decryption is the ``c^lambda`` kernel
followed by the ``L``-function and a ``mu`` multiplication kernel;
homomorphic addition is one modular-multiplication kernel.

Whether this engine models HAFLO or FLBooster is decided by the resource
manager it is given: ``managed=False`` reproduces HAFLO's fixed launch
geometry and divergent branches, ``managed=True`` the paper's resource
manager (Sec. IV-A2).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro.crypto.engine import HeEngine
from repro.crypto.keys import PaillierKeypair
from repro.gpu.kernels import GpuKernels
from repro.ledger import (
    CAT_GPU_LAUNCH,
    CAT_HE_ADD,
    CAT_HE_DECRYPT,
    CAT_HE_ENCRYPT,
    CAT_HE_SCALAR_MUL,
    CostLedger,
)
from repro.mpint.primes import LimbRandom


class GpuPaillierEngine(HeEngine):
    """Batched Paillier on the simulated GPU.

    Args:
        keypair: Paillier keys.
        kernels: Batched kernel executor (owns device + resource manager).
        nominal_bits: Charged key size (defaults to physical).
        ledger: Shared cost ledger.
        rng: Randomizer source.
    """

    def __init__(self, keypair: PaillierKeypair,
                 kernels: Optional[GpuKernels] = None,
                 nominal_bits: Optional[int] = None,
                 ledger: Optional[CostLedger] = None,
                 rng: Optional[LimbRandom] = None,
                 randomizer_pool_size: int = 0):
        super().__init__(keypair, nominal_bits=nominal_bits, ledger=ledger,
                         rng=rng, randomizer_pool_size=randomizer_pool_size)
        self.kernels = kernels if kernels is not None else GpuKernels()

    @property
    def _work_bits(self) -> int:
        """Charged modulus size: ciphertexts live modulo ``n^2``."""
        return 2 * self.nominal_bits

    def encrypt_batch(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt a batch: ``(1 + m n) * r^n mod n^2`` on the device."""
        if not plaintexts:
            return []
        with self._charging(CAT_HE_ENCRYPT, len(plaintexts)):
            # The one-product route (PaillierPublicKey.encrypt): g^m =
            # 1 + m n is never formed, and r^n comes from the (possibly
            # pooled) randomizer source.  Charged as the kernels would
            # run it: the g^m mod_mul, the r^n mod_pow, the final mod_mul.
            results = self.public_key.encrypt(plaintexts,
                                              self._take_obfuscators)
            self.kernels.charge_mod_mul(len(plaintexts), self._work_bits)
            self.kernels.charge_mod_pow(len(plaintexts), self._work_bits,
                                        self.nominal_bits)
            self.kernels.charge_mod_mul(len(plaintexts), self._work_bits)
        return results

    def decrypt_batch(self, ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt a batch: ``L(c^lambda) * mu mod n`` on the device."""
        if not ciphertexts:
            return []
        with self._charging(CAT_HE_DECRYPT, len(ciphertexts)):
            # Physical values via CRT decryption; the launch is charged as
            # the full c^lambda kernel plus the mu multiplication.
            results = self.private_key.decrypt(ciphertexts)
            self.kernels.charge_mod_pow(len(ciphertexts), self._work_bits,
                                        self.nominal_bits)
            self.kernels.charge_mod_mul(len(ciphertexts), self.nominal_bits)
        return results

    def add_batch(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        """Homomorphic addition: one modular-multiplication kernel."""
        if len(c1) != len(c2):
            raise ValueError("ciphertext batches differ in length")
        if not c1:
            return []
        with self._charging(CAT_HE_ADD, len(c1)):
            results = self.kernels.mod_mul(
                c1, c2, self.public_key.n_squared,
                work_bits=self._work_bits)
        return results

    def scalar_mul_batch(self, ciphertexts: Sequence[int],
                         scalars: Sequence[int]) -> List[int]:
        """Plaintext-scalar multiplication: a short-exponent kernel."""
        if len(ciphertexts) != len(scalars):
            raise ValueError("ciphertext and scalar batches differ in length")
        if not ciphertexts:
            return []
        for scalar in scalars:
            if scalar < 0:
                raise ValueError("negative scalars require encoding")
        with self._charging(CAT_HE_SCALAR_MUL, len(ciphertexts)):
            results = self.kernels.mod_pow(
                list(ciphertexts), list(scalars), self.public_key.n_squared,
                work_bits=self._work_bits)
        return results

    @contextmanager
    def _charging(self, category: str, ops: int) -> Iterator[None]:
        """Charge the launches made inside the block (none if it raises)."""
        with self.kernels.collect() as prices:
            yield
        # Summed in launch order, so a charge is exactly the sum of the
        # prices it covers.
        self.ledger.charge(category, sum(prices), count=ops)
        if prices:
            # Launch-count accounting: lets the ledger show how
            # many kernel launches an epoch spent, so op fusion
            # (fewer, larger launches) is measurable without
            # inspecting the device.
            self.ledger.charge(CAT_GPU_LAUNCH, 0.0, count=len(prices))
