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

The paper's per-thread Miller-Rabin maps onto this host's parallel
units: the two lanes of libcrypto's AVX-512 IFMA ladder and the second
core (:func:`repro.mpint.native.powmods`).  A candidate that passes its
first witness draws its remaining witnesses at once and tests them as
one batch of powers; where a batch of candidates would split over two
cores (1024-bit candidates: twelve), that many candidates' first
witnesses are tested as one batch too, speculatively.  One stream of
draws serves both: each draw is the serial loop's, and a seeded
generator is rewound to where the serial loop would stand when a tested
candidate passes or a batched witness fails, so every prime -- and
every draw after it -- is the serial search's
(:func:`repro.testing.reference.serial_prime` is that search, with
``pow()``).  An entropy-backed generator is not rewound: its draws do
not replay by design.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Tuple

from repro.mpint.native import powmods, split_worthwhile

#: Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)

#: Their product: one gcd with it is the whole trial division.
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

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
        while True:
            candidate = self.randint_below(modulus - 1) + 1
            if math.gcd(candidate, modulus) == 1:
                return candidate


def _trial_division(candidate: int) -> Optional[bool]:
    """True for one of the small primes, False below 2 or for a multiple
    of one, ``None`` when Miller-Rabin must decide."""
    if candidate < 2:
        return False
    if math.gcd(candidate, _SMALL_PRIMORIAL) == 1:
        return None
    return candidate in _SMALL_PRIMES


def _odd_part(candidate: int) -> Tuple[int, int]:
    """``(d, r)`` with ``candidate - 1 = d * 2^r`` and ``d`` odd."""
    r = ((candidate - 1) & (1 - candidate)).bit_length() - 1
    return (candidate - 1) >> r, r


def _witness(candidate: int, rng: LimbRandom) -> int:
    """A Miller-Rabin witness for ``candidate``, uniform in ``[2, c - 2]``."""
    return rng.randint_below(candidate - 3) + 2


def _passes(power: int, candidate: int) -> bool:
    """Whether a witness whose ``d``-th power is ``power`` leaves
    ``candidate`` a probable prime."""
    last = candidate - 1
    if power == 1 or power == last:
        return True
    for _ in range(_odd_part(candidate)[1] - 1):
        power = power * power % candidate
        if power == last:
            return True
    return False


def _mark(rng: LimbRandom) -> Optional[tuple]:
    """Where ``rng``'s stream stands, to rewind to; ``None`` for an
    entropy-backed generator."""
    return None if rng.entropy_backed else rng._rng.getstate()


def _rewind(rng: LimbRandom, mark: Optional[tuple],
            redraw: Callable[[], object]) -> None:
    """Put a seeded ``rng`` back at ``mark``, then ``redraw()`` the
    draws the serial search made from there."""
    if mark is not None:
        rng._rng.setstate(mark)
        redraw()


def is_probable_prime(candidate: int, rounds: int = DEFAULT_ROUNDS,
                      rng: Optional[LimbRandom] = None) -> bool:
    """Miller-Rabin primality test (paper's key-generation primitive).

    The ``rounds`` witnesses are drawn first and tested as one batch of
    powers (:func:`repro.mpint.native.powmods`); on a failure ``rng`` is
    rewound to just after the failing witness's draw, so it ends where a
    witness-by-witness test, which stops there, leaves it.

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
    verdict = _trial_division(candidate)
    if verdict is not None:
        return verdict
    if rng is None:
        rng = LimbRandom()
    mark = _mark(rng)
    d = _odd_part(candidate)[0]
    powers = powmods([(_witness(candidate, rng), d, candidate)
                      for _ in range(rounds)])
    for index, power in enumerate(powers):
        if not _passes(power, candidate):
            _rewind(rng, mark, lambda: [_witness(candidate, rng)
                                        for _ in range(index + 1)])
            return False
    return True


def _first_witnesses(bits: int, rng: LimbRandom, rounds: int, count: int
                     ) -> Tuple[List[Tuple[int, int]], Optional[int]]:
    """The next ``count`` candidates past trial division, each with its
    first witness: the serial loop's draws while every first witness
    fails.  Stops early at a candidate trial division alone accepts (a
    small prime, or any survivor of a test of no rounds), returned
    second."""
    top = 1 << (bits - 1)
    tested: List[Tuple[int, int]] = []
    while len(tested) < count:
        candidate = rng.randbits(bits) | top | 1
        verdict = _trial_division(candidate)
        if verdict is None and rounds > 0:
            tested.append((candidate, _witness(candidate, rng)))
        elif verdict is not False:
            return tested, candidate
    return tested, None


def _speculation_width(bits: int, rounds: int) -> int:
    """Candidates whose first witnesses are tested as one batch: the
    fewest whose powers split over two cores, if that is no more than a
    confirmation batch (``rounds - 1`` witnesses); else one, the serial
    loop -- which 512-bit candidates keep, where a wider batch cost more
    than it saved."""
    return next((width for width in range(2, rounds)
                 if split_worthwhile(width // 2, bits)), 1)


def generate_prime(bits: int, rng: Optional[LimbRandom] = None) -> int:
    """Generate a probable prime of exactly ``bits`` bits.

    The top bit is forced so the prime has full length (the paper keeps
    ``p`` and ``q`` the same length as the other large integers so limb
    partitioning stays consistent), and the bottom bit is forced so the
    candidate is odd.  The prime, and ``rng``'s state after it, are those
    of drawing one candidate at a time and testing it with
    :func:`is_probable_prime`; only the powers are batched.
    """
    if bits < 2:
        raise ValueError("a prime needs at least 2 bits")
    if rng is None:
        rng = LimbRandom()
    rounds = DEFAULT_ROUNDS
    width = _speculation_width(bits, rounds)
    while True:
        # A batch of one already ends where the serial loop stands.
        mark = _mark(rng) if width > 1 else None
        tested, accepted = _first_witnesses(bits, rng, rounds, width)
        powers = powmods([(witness, _odd_part(candidate)[0], candidate)
                          for candidate, witness in tested])
        for index, ((candidate, _), power) in enumerate(zip(tested,
                                                            powers)):
            if _passes(power, candidate):
                _rewind(rng, mark, lambda: _first_witnesses(
                    bits, rng, rounds, index + 1))
                # Its other witnesses, as one batch.
                if is_probable_prime(candidate, rounds - 1, rng):
                    return candidate
                break
        else:
            if accepted is not None:
                return accepted


def generate_distinct_primes(bits: int, count: int = 2,
                             rng: Optional[LimbRandom] = None) -> List[int]:
    """Generate ``count`` distinct probable primes of the same bit length."""
    primes: List[int] = []
    while len(primes) < count:
        prime = generate_prime(bits, rng=rng)
        if prime not in primes:
            primes.append(prime)
    return primes
