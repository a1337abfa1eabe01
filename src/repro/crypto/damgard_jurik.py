"""Damgard-Jurik generalized Paillier (paper ref. [21]).

The Damgard-Jurik cryptosystem works modulo ``n^(s+1)`` with plaintext
space ``Z_{n^s}``: at ``s = 1`` it *is* Paillier, and larger ``s`` grows
the plaintext space ``s``-fold for roughly the same key.  For FLBooster
this is the natural extension the paper's batch compression points at --
with ``s = 4`` a 1024-bit key packs 4x the gradients of Eq. 9 into one
(larger) ciphertext, trading ciphertext size for ciphertext *count*.

Implementation follows Damgard, Jurik & Nielsen (Int. J. Inf. Sec. 2010):

- encryption: ``E(m) = (1 + n)^m * r^(n^s) mod n^(s+1)``;
- decryption: ``c^d mod n^(s+1)`` with ``d = 1 (mod n^s)``,
  ``d = 0 (mod lambda)``, followed by the paper's iterative discrete-log
  extraction of ``m`` from ``(1 + n)^m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.keys import generate_paillier_keypair
from repro.mpint.native import hold, powmod
from repro.mpint.primes import LimbRandom


@dataclass(frozen=True)
class DamgardJurikPublicKey:
    """Public key ``(n, s)``: plaintext space ``n^s``."""

    n: int
    s: int
    key_bits: int
    #: The Montgomery context of ``n^(s+1)``, both keys' power modulus.
    montgomery: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "montgomery", hold(self.ciphertext_modulus))

    @property
    def plaintext_modulus(self) -> int:
        """``n^s``."""
        return self.n ** self.s

    @property
    def ciphertext_modulus(self) -> int:
        """``n^(s+1)``."""
        return self.n ** (self.s + 1)

    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext."""
        return -(-self.ciphertext_modulus.bit_length() // 8)

    @property
    def plaintext_bits(self) -> int:
        """Usable plaintext bits (for the packing layer)."""
        return self.plaintext_modulus.bit_length() - 1


@dataclass(frozen=True)
class DamgardJurikPrivateKey:
    """Private key: the factorization plus the decryption exponent."""

    p: int
    q: int
    public_key: DamgardJurikPublicKey
    d: int = field(init=False)

    def __post_init__(self) -> None:
        if self.p * self.q != self.public_key.n:
            raise ValueError("private primes do not match the modulus")
        lam = math.lcm(self.p - 1, self.q - 1)
        n_s = self.public_key.plaintext_modulus
        if math.gcd(lam, n_s) != 1:
            raise ValueError("lambda shares a factor with n^s")
        # d = 0 (mod lambda), d = 1 (mod n^s) via CRT.
        d = lam * powmod(lam, -1, n_s)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class DamgardJurikKeypair:
    """A generated (public, private) pair."""

    public_key: DamgardJurikPublicKey
    private_key: DamgardJurikPrivateKey

    def __iter__(self):
        return iter((self.private_key, self.public_key))


def generate_damgard_jurik_keypair(
        key_bits: int, s: int = 2,
        rng: Optional[LimbRandom] = None) -> DamgardJurikKeypair:
    """Generate a Damgard-Jurik keypair of degree ``s``.

    Args:
        key_bits: Bit length of ``n``.
        s: Plaintext-space degree (``s = 1`` reduces to Paillier).
        rng: Deterministic random source.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    base = generate_paillier_keypair(key_bits, rng=rng)
    public = DamgardJurikPublicKey(n=base.public_key.n, s=s,
                                   key_bits=key_bits)
    private = DamgardJurikPrivateKey(p=base.private_key.p,
                                     q=base.private_key.q,
                                     public_key=public)
    return DamgardJurikKeypair(public_key=public, private_key=private)


class DamgardJurik:
    """Namespace of Damgard-Jurik primitives over raw integers."""

    @staticmethod
    def key_gen(key_bits: int, s: int = 2,
                rng: Optional[LimbRandom] = None) -> DamgardJurikKeypair:
        """Generate a keypair (``(pri, pub)`` iteration order)."""
        return generate_damgard_jurik_keypair(key_bits, s=s, rng=rng)

    @staticmethod
    def raw_encrypt(public_key: DamgardJurikPublicKey, plaintext: int,
                    rng: Optional[LimbRandom] = None,
                    r: Optional[int] = None) -> int:
        """Encrypt: ``(1 + n)^m * r^(n^s) mod n^(s+1)``."""
        n_s = public_key.plaintext_modulus
        modulus = public_key.ciphertext_modulus
        if not 0 <= plaintext < n_s:
            raise ValueError(f"plaintext outside [0, n^{public_key.s})")
        if r is None:
            if rng is None:
                rng = LimbRandom()
            r = rng.random_unit(public_key.n)
        g_m = _one_plus_n_power(plaintext, public_key)
        return (g_m * powmod(r, n_s, modulus)) % modulus

    @staticmethod
    def raw_decrypt(private_key: DamgardJurikPrivateKey,
                    ciphertext: int) -> int:
        """Decrypt via ``c^d`` and iterative discrete-log extraction."""
        public = private_key.public_key
        modulus = public.ciphertext_modulus
        if not 0 <= ciphertext < modulus:
            raise ValueError("ciphertext outside Z_{n^(s+1)}")
        a = powmod(ciphertext, private_key.d, modulus)
        return _extract_discrete_log(a, public)

    @staticmethod
    def raw_add(public_key: DamgardJurikPublicKey, c1: int, c2: int) -> int:
        """Homomorphic addition: ciphertext multiplication."""
        return (c1 * c2) % public_key.ciphertext_modulus

    @staticmethod
    def raw_scalar_mul(public_key: DamgardJurikPublicKey, c: int,
                       scalar: int) -> int:
        """Plaintext-scalar multiplication: ``c^scalar``."""
        if scalar < 0:
            raise ValueError("negative scalars require encoding")
        return powmod(c, scalar, public_key.ciphertext_modulus)


def _one_plus_n_power(exponent: int,
                      public_key: DamgardJurikPublicKey) -> int:
    """``(1 + n)^exponent mod n^(s+1)`` via the binomial expansion.

    ``(1 + n)^m = sum_k C(m, k) n^k`` truncates at ``k = s`` modulo
    ``n^(s+1)``, which is much faster than a generic modexp for large
    ``m``.
    """
    n = public_key.n
    modulus = public_key.ciphertext_modulus
    total = 1
    term = 1
    for k in range(1, public_key.s + 1):
        # term = C(exponent, k), built incrementally; n^k < n^(s+1).
        term = term * (exponent - (k - 1)) // k
        total = (total + term * n ** k) % modulus
    return total


def _extract_discrete_log(a: int,
                          public_key: DamgardJurikPublicKey) -> int:
    """Recover ``m`` from ``a = (1 + n)^m mod n^(s+1)``.

    The iterative algorithm of Damgard-Jurik: build ``m mod n^j`` for
    ``j = 1..s``, correcting with binomial terms at each step.
    """
    n = public_key.n
    s = public_key.s
    i = 0
    for j in range(1, s + 1):
        n_j = n ** j
        n_j_plus = n ** (j + 1)
        # L_j(a) = (a mod n^(j+1) - 1) / n
        t1 = ((a % n_j_plus) - 1) // n
        t2 = i
        k_factorial = 1
        for k in range(2, j + 1):
            i -= 1
            k_factorial *= k
            t2 = (t2 * i) % n_j
            correction = (t2 * n ** (k - 1)  # below n_j: k <= j
                          * powmod(k_factorial, -1, n_j)) % n_j
            t1 = (t1 - correction) % n_j
        i = t1 % n_j
    return i
