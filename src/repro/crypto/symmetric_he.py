"""A symmetric additive "HE" scheme, the kind the paper rejects.

Sec. II surveys symmetric homomorphic mechanisms (IHC&MRS, MORE, SFHE,
ASHE, FLASHE) and notes that "many of [them] have been proved to be
insecure and vulnerable to attacks".  :class:`MaskingScheme` is the
fast side of that argument: a FLASHE/ASHE-style additive one-time-mask
scheme, ``E(m) = m + k_i (mod 2^b)`` with per-index keystream masks
that cancel across participants during aggregation.  It is additively
homomorphic and orders of magnitude cheaper than Paillier, which is why
the systems literature keeps proposing it -- and a mask reused across
rounds falls to one known (plaintext, ciphertext) pair: ``k = c - m``
strips every other ciphertext under that mask.

It exists for the related-work benchmark; the production path stays
Paillier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence


def _keystream(key: bytes, round_index: int, index: int, bits: int) -> int:
    """Deterministic per-(round, index) mask from a shared key."""
    material = hashlib.sha256(
        key + round_index.to_bytes(8, "big") + index.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(material, "big") % (1 << bits)


@dataclass(frozen=True)
class MaskingScheme:
    """FLASHE-style additive masking over ``Z_{2^bits}``.

    Each participant ``i`` of ``p`` holds the shared key; masks are
    constructed so that summing all ``p`` ciphertexts cancels them
    (participant ``i`` adds ``k(round, i) - k(round, i+1 mod p)``).

    Attributes:
        key: Shared symmetric key.
        num_parties: Participant count (mask cancellation ring).
        bits: Word size of the modular ring.
    """

    key: bytes
    num_parties: int
    bits: int = 64

    def mask(self, round_index: int, party: int, index: int) -> int:
        """The ring mask party ``party`` adds at one vector index."""
        forward = _keystream(self.key, round_index,
                             party * 1_000_003 + index, self.bits)
        successor = (party + 1) % self.num_parties
        backward = _keystream(self.key, round_index,
                              successor * 1_000_003 + index, self.bits)
        return (forward - backward) % (1 << self.bits)

    def encrypt(self, values: Sequence[int], round_index: int,
                party: int) -> List[int]:
        """Mask a vector of non-negative integers."""
        modulus = 1 << self.bits
        out = []
        for index, value in enumerate(values):
            if not 0 <= value < modulus:
                raise ValueError(f"value {value} outside the ring")
            out.append((value + self.mask(round_index, party, index))
                       % modulus)
        return out

    def aggregate_decrypt(self, ciphertexts: Sequence[Sequence[int]],
                          round_index: int) -> List[int]:
        """Sum all parties' ciphertexts; the ring masks cancel."""
        if len(ciphertexts) != self.num_parties:
            raise ValueError(
                f"need all {self.num_parties} parties' ciphertexts")
        modulus = 1 << self.bits
        length = len(ciphertexts[0])
        totals = [0] * length
        for vector in ciphertexts:
            if len(vector) != length:
                raise ValueError("ciphertext vectors differ in length")
            for index, value in enumerate(vector):
                totals[index] = (totals[index] + value) % modulus
        return totals
