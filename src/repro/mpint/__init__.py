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
  multiplication and shared/varying modexp; optional, it imports without
  numpy and its array entry points then raise.
- :mod:`repro.mpint.native` -- ``pow``-compatible modular powers and
  products through the system's bignum library.
"""
