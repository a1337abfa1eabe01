"""Homomorphic-encryption APIs (paper Table I, lower half).

``Paillier::key_gen / encrypt / decrypt / add`` and ``RSA::key_gen /
encrypt / decrypt / mul`` over *arrays* of plaintexts and ciphertexts,
with the batched operations running on the simulated GPU.
:class:`FlBooster` bundles everything into the single object the paper's
developer experience suggests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.api.ops import ArrayOps
from repro.crypto.engine import HeEngine
from repro.crypto.keys import (
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    RsaKeypair,
    RsaPrivateKey,
    RsaPublicKey,
)
from repro.crypto.paillier import Paillier
from repro.crypto.rsa import Rsa
from repro.gpu.kernels import GpuKernels
from repro.mpint.native import powmod
from repro.mpint.primes import LimbRandom
from repro.quantization.packing import PackingPlan
from repro.tensor.cipher import CipherTensor
from repro.tensor.plain import PlainTensor

Ints = Union[int, Sequence[int]]


def _as_list(values: Ints) -> List[int]:
    return [values] if isinstance(values, int) else list(values)


class PaillierApi:
    """``Paillier::*`` of Table I over arrays."""

    def __init__(self, kernels: Optional[GpuKernels] = None,
                 rng: Optional[LimbRandom] = None):
        self.kernels = kernels if kernels is not None else GpuKernels()
        self.rng = rng if rng is not None else LimbRandom()

    def key_gen(self, size: int) -> Tuple[PaillierPrivateKey,
                                          PaillierPublicKey]:
        """Generate a keypair; returns ``(pri_key, pub_key)`` like Table I."""
        keypair: PaillierKeypair = Paillier.key_gen(size, rng=self.rng)
        return keypair.private_key, keypair.public_key

    def encrypt(self, pub_key: PaillierPublicKey,
                plaintext: Ints) -> List[int]:
        """Encrypt an array of plaintexts (one GPU batch)."""
        values = _as_list(plaintext)
        n = pub_key.n
        n_squared = pub_key.n_squared
        g_m = [(1 + (m % n) * n) % n_squared if pub_key.g == n + 1
               else powmod(pub_key.g, m % n, n_squared) for m in values]
        randomizers = [self.rng.random_unit(n) for _ in values]
        r_n = self.kernels.mod_pow_scalar_exponent(randomizers, n, n_squared)
        return self.kernels.mod_mul(g_m, r_n, n_squared)

    def decrypt(self, pri_key: PaillierPrivateKey,
                ciphertext: Ints) -> List[int]:
        """Decrypt an array of ciphertexts (one GPU batch)."""
        values = _as_list(ciphertext)
        public = pri_key.public_key
        c_lambda = self.kernels.mod_pow_scalar_exponent(
            values, pri_key.lam, public.n_squared)
        l_values = [(value - 1) // public.n for value in c_lambda]
        return self.kernels.mod_mul(
            l_values, [pri_key.mu] * len(l_values), public.n)

    def add(self, pub_key: PaillierPublicKey, ciphertext1: Ints,
            ciphertext2: Ints) -> List[int]:
        """Homomorphic addition of two ciphertext arrays."""
        a = _as_list(ciphertext1)
        b = _as_list(ciphertext2)
        if len(a) != len(b):
            raise ValueError("ciphertext arrays differ in length")
        return self.kernels.mod_mul(a, b, pub_key.n_squared)


class RsaApi:
    """``RSA::*`` of Table I over arrays."""

    def __init__(self, kernels: Optional[GpuKernels] = None,
                 rng: Optional[LimbRandom] = None):
        self.kernels = kernels if kernels is not None else GpuKernels()
        self.rng = rng if rng is not None else LimbRandom()

    def key_gen(self, size: int) -> Tuple[RsaPrivateKey, RsaPublicKey]:
        """Generate a keypair; returns ``(pri_key, pub_key)``."""
        keypair: RsaKeypair = Rsa.key_gen(size, rng=self.rng)
        return keypair.private_key, keypair.public_key

    def encrypt(self, pub_key: RsaPublicKey, plaintext: Ints) -> List[int]:
        """Encrypt an array of plaintexts (one GPU batch)."""
        values = _as_list(plaintext)
        for value in values:
            if not 0 <= value < pub_key.n:
                raise ValueError(f"plaintext {value} outside [0, n)")
        return self.kernels.mod_pow_scalar_exponent(
            values, pub_key.e, pub_key.n)

    def decrypt(self, pri_key: RsaPrivateKey, ciphertext: Ints) -> List[int]:
        """Decrypt an array of ciphertexts (one GPU batch)."""
        values = _as_list(ciphertext)
        return self.kernels.mod_pow_scalar_exponent(
            values, pri_key.d, pri_key.public_key.n)

    def mul(self, pub_key: RsaPublicKey, ciphertext1: Ints,
            ciphertext2: Ints) -> List[int]:
        """Homomorphic multiplication of two ciphertext arrays."""
        a = _as_list(ciphertext1)
        b = _as_list(ciphertext2)
        if len(a) != len(b):
            raise ValueError("ciphertext arrays differ in length")
        return self.kernels.mod_mul(a, b, pub_key.n)


class FlBooster:
    """The one-stop developer object: array ops + both cryptosystems.

    All sub-APIs share one simulated GPU, so a session's kernel launches
    and utilization can be inspected at ``fl.kernels.device``.
    """

    def __init__(self, kernels: Optional[GpuKernels] = None,
                 seed: Optional[int] = None):
        self.kernels = kernels if kernels is not None else GpuKernels()
        rng = LimbRandom(seed=seed) if seed is not None else LimbRandom()
        self.ops = ArrayOps(kernels=self.kernels)
        self.paillier = PaillierApi(kernels=self.kernels, rng=rng)
        self.rsa = RsaApi(kernels=self.kernels, rng=rng)

    # Convenience pass-throughs for the Table I fundamental ops.

    def add(self, values1, values2):
        """Table I ``add``."""
        return self.ops.add(values1, values2)

    def sub(self, values1, values2):
        """Table I ``sub``."""
        return self.ops.sub(values1, values2)

    def mul(self, values1, values2):
        """Table I ``mul``."""
        return self.ops.mul(values1, values2)

    def div(self, values1, values2):
        """Table I ``div``."""
        return self.ops.div(values1, values2)

    def mod(self, x, n):
        """Table I ``mod``."""
        return self.ops.mod(x, n)

    def mod_inv(self, x, n):
        """Table I ``mod_inv``."""
        return self.ops.mod_inv(x, n)

    def mod_mul(self, values1, values2, n):
        """Table I ``mod_mul``."""
        return self.ops.mod_mul(values1, values2, n)

    def mod_pow(self, x, p, n):
        """Table I ``mod_pow``."""
        return self.ops.mod_pow(x, p, n)

    # Encrypted tensors -----------------------------------------------

    def encrypt_tensor(self, engine: HeEngine, values,
                       alpha: float = 1.0, r_bits: int = 30,
                       num_parties: int = 2) -> CipherTensor:
        """Encode, pack and encrypt a real-valued array in one call.

        The packing plan is derived from the engine's key geometry; the
        returned :class:`CipherTensor` carries everything needed to
        decrypt and decode it later.
        """
        plan = PackingPlan.for_engine(engine, alpha=alpha, r_bits=r_bits,
                                      num_parties=num_parties)
        return engine.encrypt_tensor(PlainTensor.encode(values, plan.packer))

    def decrypt_tensor(self, engine: HeEngine, tensor: CipherTensor):
        """Decrypt and decode an encrypted tensor; returns the array.

        No caller-supplied count, summand count or scheme: the tensor's
        metadata describes its own layout.
        """
        return engine.decrypt_tensor(tensor).decode()
