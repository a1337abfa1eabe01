"""Multi-precision integer substrate (paper Sec. IV-A1, IV-A3).

FLBooster represents large integers (keys, ciphertexts) as arrays of
fixed-width *limbs* so that arithmetic can be split across GPU threads.
This package implements that FRNS-style radix representation together with
the arithmetic the paper builds on it:

- :mod:`repro.mpint.limbs` -- the word-array representation and conversions.
- :mod:`repro.mpint.montgomery` -- Algorithm 1 (basic Montgomery) and
  Algorithm 2 (CIOS parallel Montgomery multiplication).
- :mod:`repro.mpint.modexp` -- sliding-window modular exponentiation.
- :mod:`repro.mpint.primes` -- Miller-Rabin testing and prime generation.
- :mod:`repro.mpint.limb_plane` -- batched limb-matrix (numpy) CIOS
  multiplication and shared/varying modexp; optional, degrades to :data:`~repro.mpint.limb_plane.HAVE_NUMPY` =
  ``False`` without numpy.
"""

from repro.mpint.limbs import (
    LimbVector,
    from_int,
    to_int,
    limbs_for_bits,
)
from repro.mpint.montgomery import (
    MontgomeryContext,
    montgomery_multiply,
    cios_montgomery_multiply,
)
from repro.mpint.modexp import mod_pow, sliding_window_pow
from repro.mpint.primes import is_probable_prime, generate_prime, LimbRandom
from repro.mpint.limb_plane import (
    HAVE_NUMPY,
    PlaneContext,
    batched_pow,
    ints_to_plane,
    plane_to_ints,
)

__all__ = [
    "LimbVector",
    "from_int",
    "to_int",
    "limbs_for_bits",
    "MontgomeryContext",
    "montgomery_multiply",
    "cios_montgomery_multiply",
    "mod_pow",
    "sliding_window_pow",
    "is_probable_prime",
    "generate_prime",
    "LimbRandom",
    "HAVE_NUMPY",
    "PlaneContext",
    "batched_pow",
    "ints_to_plane",
    "plane_to_ints",
]
