"""Adapters presenting each execution path to the conformance oracle.

A *party* is the minimal op surface the oracle replays traces against::

    plaintext_modulus
    encrypt(values)            -> ciphertext list
    add(c1, c2)                -> ciphertext list
    scalar_mul(c, scalars)     -> ciphertext list      (optional)
    decrypt(c)                 -> plaintext list       (optional)
    capabilities               -> frozenset of op tags

:class:`HeEngineParty` adapts any :class:`~repro.crypto.engine.HeEngine`
(CPU and simulated-GPU Paillier); :class:`DamgardJurikParty` wraps the
:class:`~repro.crypto.damgard_jurik.DamgardJurik` primitives (including
their binomial/discrete-log shortcuts -- the code actually under test);
:class:`MaskingParty` wraps the FLASHE-style
:class:`~repro.crypto.symmetric_he.MaskingScheme`.

The adapters also expose the ``*_batch`` method names of the engine
protocol, so the lazy fusion planner can flush expressions through them
-- which is how the fused-vs-eager conformance check runs on every
engine of the oracle, not just the Paillier ones.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.damgard_jurik import DamgardJurik, DamgardJurikKeypair
from repro.crypto.engine import HeEngine
from repro.crypto.symmetric_he import MaskingScheme
from repro.mpint.primes import LimbRandom


class HeEngineParty:
    """Any :class:`HeEngine` (CPU / GPU Paillier) as a conformance party."""

    capabilities = frozenset({"encrypt", "decrypt", "add", "scalar_mul"})

    def __init__(self, engine: HeEngine):
        self.engine = engine

    @property
    def plaintext_modulus(self) -> int:
        return self.engine.public_key.n

    def encrypt(self, values: Sequence[int]) -> List[int]:
        return self.engine.encrypt_batch(list(values))

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        return self.engine.decrypt_batch(list(ciphertexts))

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        return self.engine.add_batch(list(c1), list(c2))

    def scalar_mul(self, ciphertexts: Sequence[int],
                   scalars: Sequence[int]) -> List[int]:
        return self.engine.scalar_mul_batch(list(ciphertexts),
                                            list(scalars))

    # Engine-protocol aliases for the fusion planner.
    def add_batch(self, c1, c2):
        return self.add(c1, c2)

    def scalar_mul_batch(self, ciphertexts, scalars):
        return self.scalar_mul(ciphertexts, scalars)

    def sum_ciphertexts(self, ciphertexts):
        return self.engine.sum_ciphertexts(list(ciphertexts))


class DamgardJurikParty:
    """The Damgard-Jurik primitives (binomial + discrete-log paths)."""

    capabilities = frozenset({"encrypt", "decrypt", "add", "scalar_mul"})

    def __init__(self, keypair: DamgardJurikKeypair, seed: int):
        self.keypair = keypair
        self.public_key = keypair.public_key
        self.private_key = keypair.private_key
        self.rng = LimbRandom(seed=seed)

    @property
    def plaintext_modulus(self) -> int:
        return self.public_key.plaintext_modulus

    def encrypt(self, values: Sequence[int]) -> List[int]:
        out = []
        for value in values:
            r = self.rng.random_unit(self.public_key.n)
            out.append(DamgardJurik.raw_encrypt(self.public_key, value,
                                                r=r))
        return out

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        return [DamgardJurik.raw_decrypt(self.private_key, c)
                for c in ciphertexts]

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        return [DamgardJurik.raw_add(self.public_key, x, y)
                for x, y in zip(c1, c2)]

    def scalar_mul(self, ciphertexts: Sequence[int],
                   scalars: Sequence[int]) -> List[int]:
        return [DamgardJurik.raw_scalar_mul(self.public_key, c, k)
                for c, k in zip(ciphertexts, scalars)]

    # Engine-protocol aliases for the fusion planner.
    def add_batch(self, c1, c2):
        if len(c1) != len(c2):
            raise ValueError("ciphertext batches differ in length")
        return self.add(c1, c2)

    def scalar_mul_batch(self, ciphertexts, scalars):
        if len(ciphertexts) != len(scalars):
            raise ValueError("ciphertext and scalar batches differ in length")
        return self.scalar_mul(ciphertexts, scalars)

    def sum_ciphertexts(self, ciphertexts):
        values = list(ciphertexts)
        if not values:
            raise ValueError("cannot sum an empty ciphertext batch")
        total = values[0]
        for value in values[1:]:
            total = DamgardJurik.raw_add(self.public_key, total, value)
        return total


class MaskingParty:
    """The FLASHE-style symmetric masking scheme as a conformance party.

    Each ``encrypt`` call takes the next ring slot, mirroring one more
    participant joining the round; decryption is only meaningful on the
    sum of all ``num_parties`` ciphertexts, hence ``ring_decrypt``
    *instead of* the ordinary ``decrypt`` capability (round-trip traces
    would otherwise run here and see masked residues).
    """

    capabilities = frozenset({"encrypt", "add", "ring_decrypt"})

    def __init__(self, scheme: MaskingScheme):
        self.scheme = scheme
        self._next_party = 0
        self._modulus = 1 << scheme.bits

    @property
    def plaintext_modulus(self) -> int:
        return self._modulus

    def encrypt(self, values: Sequence[int]) -> List[int]:
        party = self._next_party
        self._next_party += 1
        return self.scheme.encrypt(list(values), round_index=0,
                                   party=party)

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        return [(x + y) % self._modulus for x, y in zip(c1, c2)]

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        return [c % self._modulus for c in ciphertexts]

    # Engine-protocol aliases (adds only; no scalar_mul capability).
    def add_batch(self, c1, c2):
        if len(c1) != len(c2):
            raise ValueError("ciphertext batches differ in length")
        return self.add(c1, c2)

    def sum_ciphertexts(self, ciphertexts):
        values = list(ciphertexts)
        if not values:
            raise ValueError("cannot sum an empty ciphertext batch")
        total = values[0]
        for value in values[1:]:
            total = (total + value) % self._modulus
        return total
