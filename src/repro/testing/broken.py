"""A deliberately broken engine: the oracle's canary.

:class:`BrokenMontgomeryEngine` is a CPU Paillier engine whose scalar
multiplications run through the real sliding-window/Montgomery kernel --
but with the precomputed constant ``N' = -N^-1 mod R`` flipped in its
lowest bit.  The corrupted reductions stay *inside* the ring (values
remain < n^2 and decrypt without error), which is precisely the class of
bug plain round-trip tests miss and the bit-identity oracle catches on
the first scalar_mul op.

This is a demonstration fixture, not production code: the conformance
suite asserts that :func:`repro.testing.conformance.replay` raises
:class:`~repro.testing.conformance.ConformanceFailure` for it while all
healthy engines pass the same traces.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.mpint.montgomery import MontgomeryContext
from repro.mpint.modexp import sliding_window_pow


def corrupt_context(modulus: int) -> MontgomeryContext:
    """A :class:`MontgomeryContext` with a single-bit-flipped ``N'``.

    ``N'`` feeds Algorithm 1's quotient estimate ``q = (t mod R) * N'
    mod R``; one wrong bit silently produces a value congruent to the
    wrong residue class -- no exception, just wrong ciphertexts.
    """
    ctx = MontgomeryContext(modulus)
    object.__setattr__(ctx, "n_prime", ctx.n_prime ^ 1)
    return ctx


class BrokenMontgomeryEngine(CpuPaillierEngine):
    """CPU Paillier with a corrupted Montgomery constant in scalar_mul."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._broken_ctx = corrupt_context(self.public_key.n_squared)

    def scalar_mul_batch(self, ciphertexts: Sequence[int],
                         scalars: Sequence[int]) -> List[int]:
        if len(ciphertexts) != len(scalars):
            raise ValueError(
                "ciphertext and scalar batches differ in length")
        results = [
            sliding_window_pow(c, k, self._broken_ctx) % \
            self.public_key.n_squared
            for c, k in zip(ciphertexts, scalars)
        ]
        return results


def broken_conformance_factory(trace):
    """Factory mirroring the healthy CPU path but with the broken engine.

    Registered under no name on purpose -- the suite builds it directly
    so the broken engine never pollutes :func:`conformance_matrix`.
    """
    from repro.crypto.keys import generate_paillier_keypair
    from repro.mpint.primes import LimbRandom
    from repro.testing.conformance import ConformancePair
    from repro.testing.parties import HeEngineParty
    from repro.testing.reference import PaillierReference
    keypair = generate_paillier_keypair(
        trace.key_bits, rng=LimbRandom(seed=trace.seed))
    engine = BrokenMontgomeryEngine(keypair,
                                    rng=LimbRandom(seed=trace.seed + 1))
    reference = PaillierReference(keypair, seed=trace.seed + 1)
    return ConformancePair(party=HeEngineParty(engine),
                           reference=reference)
