"""Symmetric additive "HE" schemes and why the paper rejects them.

Sec. II surveys symmetric homomorphic mechanisms (IHC&MRS, MORE, SFHE,
ASHE, FLASHE) and notes that "many of [them] have been proved to be
insecure and vulnerable to attacks".  This module reproduces both sides
of that argument:

- :class:`MaskingScheme` -- a FLASHE/ASHE-style additive one-time-mask
  scheme: ``E(m) = m + k_i (mod 2^b)`` with per-index keystream masks
  that cancel across participants during aggregation.  It is fast and
  additively homomorphic, which is why the systems literature keeps
  proposing it.
- :func:`known_plaintext_attack` -- the standard break when masks are
  reused across rounds: one known (plaintext, ciphertext) pair per index
  recovers the keystream and decrypts every other round.
- :class:`AffineScheme` -- a MORE-style affine cipher ``E(m) = a m + b``;
  :func:`affine_known_plaintext_attack` recovers ``(a, b)`` from two
  known pairs (Vizar & Vaudenay's observation, paper ref. [60]).

These exist for the security comparison and the related-work benchmarks;
the production path stays Paillier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.mpint.native import powmod


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


def known_plaintext_attack(scheme_bits: int, known_plaintext: int,
                           known_ciphertext: int,
                           target_ciphertext: int) -> int:
    """Break mask reuse with one known pair.

    If the same mask ``k`` encrypts two messages (mask reuse across
    rounds -- the temptation every "efficient" variant falls into), an
    adversary holding one (m, c) pair computes ``k = c - m`` and strips
    it off any other ciphertext.  Returns the recovered plaintext.
    """
    modulus = 1 << scheme_bits
    recovered_mask = (known_ciphertext - known_plaintext) % modulus
    return (target_ciphertext - recovered_mask) % modulus


@dataclass(frozen=True)
class AffineScheme:
    """MORE-style affine cipher ``E(m) = a m + b mod n`` (insecure)."""

    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        import math
        if math.gcd(self.a, self.n) != 1:
            raise ValueError("a must be invertible modulo n")

    def encrypt(self, value: int) -> int:
        """``a m + b mod n``."""
        return (self.a * value + self.b) % self.n

    def decrypt(self, ciphertext: int) -> int:
        """Invert the affine map."""
        return ((ciphertext - self.b) * powmod(self.a, -1, self.n)) % self.n

    def add(self, c1: int, c2: int) -> int:
        """Additive homomorphism (with a ``b`` correction at decrypt).

        ``E(m1) + E(m2) = a (m1 + m2) + 2b``: summing ``t`` ciphertexts
        needs the aggregator to know ``t`` -- provided here by the
        two-term case.
        """
        return (c1 + c2 - self.b) % self.n


def affine_known_plaintext_attack(
        pairs: Sequence[Tuple[int, int]], modulus: int) -> Tuple[int, int]:
    """Recover ``(a, b)`` of an affine scheme from two known pairs.

    The Vizar-Vaudenay style break (paper ref. [60]): with
    ``c1 = a m1 + b`` and ``c2 = a m2 + b``,
    ``a = (c1 - c2) / (m1 - m2)`` and ``b`` follows.  Raises
    ``ValueError`` when the pairs are degenerate.
    """
    if len(pairs) < 2:
        raise ValueError("need two known plaintext/ciphertext pairs")
    (m1, c1), (m2, c2) = pairs[0], pairs[1]
    delta_m = (m1 - m2) % modulus
    try:
        inverse = powmod(delta_m, -1, modulus)
    except ValueError as error:
        raise ValueError("degenerate pairs: m1 - m2 not invertible") \
            from error
    a = ((c1 - c2) * inverse) % modulus
    b = (c1 - a * m1) % modulus
    return a, b


# ----------------------------------------------------------------------
# Conformance registration (differential oracle, repro.testing).
# ----------------------------------------------------------------------

def _masking_conformance_factory(trace):
    """Ring masking vs an independent sha256 re-derivation.

    Ring size is the trace's encrypt count (each encrypt op takes the
    next ring slot), so a full-ring trace decrypts to cancelled masks.
    """
    from repro.testing.conformance import ConformancePair
    from repro.testing.parties import MaskingParty
    from repro.testing.reference import MaskingReference
    encrypts = sum(1 for op in trace.ops if op.op == "encrypt")
    num_parties = max(2, encrypts)
    key = hashlib.sha256(
        b"conformance-masking" + trace.seed.to_bytes(8, "big")).digest()[:16]
    scheme = MaskingScheme(key=key, num_parties=num_parties, bits=64)
    party = MaskingParty(scheme)
    reference = MaskingReference(key, num_parties, bits=64,
                                 seed=trace.seed)
    return ConformancePair(party=party, reference=reference)


def _register_masking_conformance() -> None:
    from repro.crypto.engine import HeEngine
    _masking_conformance_factory.capabilities = frozenset(
        {"encrypt", "add", "ring_decrypt"})
    HeEngine.register_conformance("symmetric-masking",
                                  _masking_conformance_factory)


_register_masking_conformance()
