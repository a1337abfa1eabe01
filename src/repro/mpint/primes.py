"""Random large-integer generation and primality testing (paper Sec. IV-A3).

FLBooster "develop[s] a random number generator for large integers
(including Miller-Rabin large prime number generator), assigning a random
number generator for each thread in a warp".  This module reproduces that
machinery:

- :class:`LimbRandom` -- the generator of uniformly random large
  integers, seeded for replay or backed by OS entropy.
- :func:`is_probable_prime` -- the Miller-Rabin test used in key generation.
- :func:`generate_prime` -- rejection sampling of probable primes with the
  paper's constraint that ``p`` and ``q`` match the working limb length.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.mpint.native import hold, powmod

#: Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)

#: Miller-Rabin round count: 2^-128 error bound for random candidates.
DEFAULT_ROUNDS = 64


class LimbRandom:
    """The random generator for multi-precision integers.

    Two modes, picked by the seed:

    - ``seed=None`` -- backed by ``random.SystemRandom`` (the OS CSPRNG).
      This is the *only* sanctioned non-deterministic random source in the
      library: production key generation must not be replayable, or a
      recorded simulation transcript would leak the keypair.  flcheck's
      determinism rule whitelists this module for exactly that reason.
    - an integer seed -- a ``random.Random`` stream derived from
      ``seed << 16``, used by tests and simulations so every keypair and
      randomizer replays bit-for-bit.
    """

    def __init__(self, seed: Optional[int] = None):
        if seed is None:
            self._rng: random.Random = random.SystemRandom()
            self.entropy_backed = True
        else:
            self._rng = random.Random(seed << 16)
            self.entropy_backed = False

    def randbits(self, bits: int) -> int:
        """Uniform random integer with at most ``bits`` bits."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        return self._rng.getrandbits(bits)

    def randint_below(self, bound: int) -> int:
        """Uniform random integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self._rng.randrange(bound)

    def random_unit(self, modulus: int) -> int:
        """Random element of ``Z_modulus^*`` (coprime with the modulus)."""
        import math
        while True:
            candidate = self.randint_below(modulus - 1) + 1
            if math.gcd(candidate, modulus) == 1:
                return candidate


def is_probable_prime(candidate: int, rounds: int = DEFAULT_ROUNDS,
                      rng: Optional[LimbRandom] = None) -> bool:
    """Miller-Rabin primality test (paper's key-generation primitive).

    Args:
        candidate: Integer to test.
        rounds: Number of random witnesses; each round quarters the error
            probability.
        rng: Random source for witnesses; a fresh system-seeded
            :class:`LimbRandom` when omitted.

    Returns:
        False when ``candidate`` is definitely composite; True when it passed
        every witness (probable prime).
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False

    if rng is None:
        rng = LimbRandom()

    # Write candidate - 1 = d * 2^r with d odd.
    r = ((candidate - 1) & (1 - candidate)).bit_length() - 1
    d = (candidate - 1) >> r

    # Every witness reuses the candidate's Montgomery context, which the
    # test owns: a secret prime's, if it passes, is cleared on return.
    _owned = hold(candidate)
    for _ in range(rounds):
        witness = rng.randint_below(candidate - 3) + 2
        x = powmod(witness, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Optional[LimbRandom] = None,
                   rounds: int = DEFAULT_ROUNDS) -> int:
    """Generate a probable prime of exactly ``bits`` bits.

    The top bit is forced so the prime has full length (the paper keeps
    ``p`` and ``q`` the same length as the other large integers so limb
    partitioning stays consistent), and the bottom bit is forced so the
    candidate is odd.
    """
    if bits < 2:
        raise ValueError("a prime needs at least 2 bits")
    if rng is None:
        rng = LimbRandom()
    while True:
        candidate = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rounds=rounds, rng=rng):
            return candidate


def generate_distinct_primes(bits: int, count: int = 2,
                             rng: Optional[LimbRandom] = None) -> List[int]:
    """Generate ``count`` distinct probable primes of the same bit length."""
    primes: List[int] = []
    while len(primes) < count:
        prime = generate_prime(bits, rng=rng)
        if prime not in primes:
            primes.append(prime)
    return primes
