"""Homomorphic-encryption APIs (paper Table I, lower half).

``Paillier::key_gen / encrypt / decrypt / add`` and ``RSA::key_gen /
encrypt / decrypt / mul`` over *arrays* of plaintexts and ciphertexts,
with the batched operations running on the simulated GPU.
:class:`FlBooster` bundles everything into the single object the paper's
developer experience suggests.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

from repro.api.ops import ArrayOps
from repro.crypto.engine import HeEngine
from repro.crypto.keys import (
    PaillierPrivateKey,
    PaillierPublicKey,
    RsaPrivateKey,
    RsaPublicKey,
    draw_obfuscators,
    generate_paillier_keypair,
    generate_rsa_keypair,
)
from repro.gpu.kernels import GpuKernels
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
        keypair = generate_paillier_keypair(size, rng=self.rng)
        return keypair.private_key, keypair.public_key

    def encrypt(self, pub_key: PaillierPublicKey,
                plaintext: Ints) -> List[int]:
        """Encrypt an array of plaintexts in ``[0, n)`` (one GPU batch).

        The values come from :meth:`PaillierPublicKey.encrypt` with a
        fresh public ``r^n`` per plaintext; the launches charged are the
        ``r^n mod n^2`` kernel and the ``g^m r^n`` multiplication.
        """
        values = _as_list(plaintext)
        if not values:
            raise ValueError("cannot encrypt an empty batch")
        results = pub_key.encrypt(values, partial(
            draw_obfuscators, pub_key.obfuscators, pub_key.n, self.rng))
        n_squared_bits = pub_key.n_squared.bit_length()
        self.kernels.charge_mod_pow(len(values), n_squared_bits,
                                    pub_key.n.bit_length())
        self.kernels.charge_mod_mul(len(values), n_squared_bits)
        return results

    def decrypt(self, pri_key: PaillierPrivateKey,
                ciphertext: Ints) -> List[int]:
        """Decrypt an array of ciphertexts in ``[0, n^2)`` (one GPU batch).

        The values come from :meth:`PaillierPrivateKey.decrypt`; the
        launches charged are the ``c^lambda mod n^2`` kernel and the
        ``mu`` multiplication modulo ``n``, as the GPU engine charges
        them.
        """
        values = _as_list(ciphertext)
        if not values:
            raise ValueError("cannot decrypt an empty batch")
        results = pri_key.decrypt(values)
        public = pri_key.public_key
        self.kernels.charge_mod_pow(len(values),
                                    public.n_squared.bit_length(),
                                    pri_key.lam.bit_length())
        self.kernels.charge_mod_mul(len(values), public.n.bit_length())
        return results

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
        keypair = generate_rsa_keypair(size, rng=self.rng)
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
        """Decrypt an array of ciphertexts in ``[0, n)`` (one GPU batch)."""
        values = _as_list(ciphertext)
        n = pri_key.public_key.n
        for value in values:
            if not 0 <= value < n:
                raise ValueError(f"ciphertext {value} outside Z_n")
        return self.kernels.mod_pow_scalar_exponent(values, pri_key.d, n)

    def mul(self, pub_key: RsaPublicKey, ciphertext1: Ints,
            ciphertext2: Ints) -> List[int]:
        """Homomorphic multiplication of two ciphertext arrays."""
        a = _as_list(ciphertext1)
        b = _as_list(ciphertext2)
        if len(a) != len(b):
            raise ValueError("ciphertext arrays differ in length")
        return self.kernels.mod_mul(a, b, pub_key.n)


class FlBooster(ArrayOps):
    """The one-stop developer object: array ops + both cryptosystems.

    The Table I array operations are :class:`ArrayOps`'s own.  All
    sub-APIs share one simulated GPU, so a session's kernel launches and
    utilization can be inspected at ``fl.kernels.device``.
    """

    def __init__(self, seed: Optional[int] = None):
        super().__init__()
        rng = LimbRandom(seed=seed) if seed is not None else LimbRandom()
        self.paillier = PaillierApi(kernels=self.kernels, rng=rng)
        self.rsa = RsaApi(kernels=self.kernels, rng=rng)

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
