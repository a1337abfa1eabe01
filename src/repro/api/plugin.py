"""Drop-in plugin adapter (paper Sec. VI-B: FLBooster "wraps the crucial
operation with simple Python APIs as plugin acceleration components").

FATE (and python-paillier users generally) call an object-per-ciphertext
interface: ``keypair.encrypt(float) -> EncryptedNumber`` supporting
``+`` and ``*``.  This module provides that exact surface on top of the
accelerated batch engines, so an existing training loop switches to
FLBooster by swapping its keypair object -- no call-site changes:

>>> from repro.api.plugin import generate_accelerated_keypair
>>> public, private = generate_accelerated_keypair(key_bits=1024)
>>> a = public.encrypt(3.25)
>>> b = public.encrypt(-1.25)
>>> private.decrypt(a + b)               # 2.0 (within quantization)

Under the hood every call runs through the GPU engine, with a fresh
randomizer per ciphertext, and the Eq. 6-8 encoding; the shared
device/ledger keep the cost accounting the rest of the platform uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.keys import generate_paillier_keypair
from repro.federation.runtime import cached_keypair
from repro.gpu.kernels import GpuKernels
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme


class EncryptedNumber:
    """One encrypted float, python-paillier style.

    Supports ``+`` with another :class:`EncryptedNumber` or a plain
    float/int, and ``*`` by a non-negative plain scalar.  All arithmetic
    dispatches to the accelerated engine.
    """

    __slots__ = ("_public", "ciphertext", "_summands")

    def __init__(self, public: "AcceleratedPublicKey", ciphertext: int,
                 summands: int = 1):
        self._public = public
        self.ciphertext = ciphertext
        # Each encoded value carries a +alpha offset; sums accumulate
        # them, and decryption corrects by the count.
        self._summands = summands

    def __add__(self, other) -> "EncryptedNumber":
        public = self._public
        if isinstance(other, EncryptedNumber):
            if other._public is not public:
                raise ValueError("cannot add numbers under different keys")
            value = public._engine.add_batch([self.ciphertext],
                                             [other.ciphertext])[0]
            return EncryptedNumber(public, value,
                                   self._summands + other._summands)
        if isinstance(other, (int, float)):
            return self + public.encrypt(float(other))
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar) -> "EncryptedNumber":
        if not isinstance(scalar, int) or scalar < 0:
            raise ValueError(
                "plugin scalar multiplication takes non-negative ints "
                "(scale floats before encryption)")
        public = self._public
        value = public._engine.scalar_mul_batch([self.ciphertext],
                                                [scalar])[0]
        return EncryptedNumber(public, value,
                               self._summands * scalar if scalar else 1)

    __rmul__ = __mul__


class AcceleratedPublicKey:
    """The encrypting half of the plugin keypair."""

    def __init__(self, engine: GpuPaillierEngine,
                 scheme: QuantizationScheme):
        self._engine = engine
        self._scheme = scheme

    def encrypt(self, value: float) -> EncryptedNumber:
        """Encode (Eqs. 6-8) and encrypt one float."""
        encoded = self._scheme.encode(float(value))
        ciphertext = self._engine.encrypt_batch([encoded])[0]
        return EncryptedNumber(self, ciphertext)

    def encrypt_many(self, values) -> list:
        """Batch variant: one kernel launch for the whole vector."""
        encoded = self._scheme.encode_array(values)
        ciphertexts = self._engine.encrypt_batch(encoded)
        return [EncryptedNumber(self, c) for c in ciphertexts]

    @property
    def max_summands(self) -> int:
        """How many numbers may be summed before overflow (2^b)."""
        return 2 ** self._scheme.overflow_bits


class AcceleratedPrivateKey:
    """The decrypting half of the plugin keypair."""

    def __init__(self, engine: GpuPaillierEngine,
                 scheme: QuantizationScheme):
        self._engine = engine
        self._scheme = scheme

    def decrypt(self, number: EncryptedNumber) -> float:
        """Decrypt and decode one (possibly aggregated) number."""
        if number._summands > 2 ** self._scheme.overflow_bits:
            raise OverflowError(
                f"{number._summands} summands exceed the scheme's "
                f"{self._scheme.overflow_bits} overflow bits")
        encoded = self._engine.decrypt_batch([number.ciphertext])[0]
        return self._scheme.decode_sum(encoded, count=number._summands)

    def decrypt_many(self, numbers) -> list:
        """Batch variant: one kernel launch for the whole vector."""
        ciphertexts = [number.ciphertext for number in numbers]
        encoded = self._engine.decrypt_batch(ciphertexts)
        return [self._scheme.decode_sum(value, count=number._summands)
                for value, number in zip(encoded, numbers)]


def generate_accelerated_keypair(
        key_bits: int = 1024, alpha: float = 1024.0, r_bits: int = 40,
        max_summands: int = 64, physical_key_bits: Optional[int] = None,
        seed: Optional[int] = None,
) -> Tuple[AcceleratedPublicKey, AcceleratedPrivateKey]:
    """Build a plugin keypair backed by the accelerated engine.

    Args:
        key_bits: Nominal (charged) key size.
        alpha: Value range; floats are clipped into ``[-alpha, alpha]``.
        r_bits: Quantization bits (precision ``2 alpha / 2^r``).
        max_summands: How many numbers must be safely summable; sets the
            overflow bits.
        physical_key_bits: Mathematics key size (defaults to nominal).
        seed: Determinism seed; fresh random keys when omitted.
    """
    physical = physical_key_bits if physical_key_bits is not None \
        else key_bits
    if seed is None:
        keypair = generate_paillier_keypair(physical, rng=LimbRandom())
        rng = LimbRandom()
    else:
        keypair = cached_keypair(physical, seed=seed)
        rng = LimbRandom(seed=seed + 1)
    engine = GpuPaillierEngine(keypair, kernels=GpuKernels(),
                               nominal_bits=key_bits, rng=rng)
    scheme = QuantizationScheme(alpha=alpha, r_bits=r_bits,
                                num_parties=max_summands)
    if scheme.slot_bits > engine.physical_plaintext_bits:
        raise ValueError(
            f"r_bits={r_bits} + overflow bits exceed the "
            f"{engine.physical_plaintext_bits}-bit plaintext")
    return (AcceleratedPublicKey(engine, scheme),
            AcceleratedPrivateKey(engine, scheme))
