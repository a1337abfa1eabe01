"""Key material for the Paillier and RSA cryptosystems (paper Sec. III-B).

Key generation follows the paper exactly: two large primes ``p`` and ``q``
of equal length from the Miller-Rabin generator, ``n = p * q``,
``lambda = lcm(p - 1, q - 1)``, and a generator ``g`` in ``Z*_{n^2}``.
The default generator is ``g = n + 1``, the standard choice that turns
``g^m`` into the single multiplication ``1 + m n``; arbitrary generators
are supported for faithfulness to Eq. 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.mpint.native import powmod
from repro.mpint.primes import LimbRandom, generate_distinct_primes


@dataclass(frozen=True)
class PaillierPublicKey:
    """Paillier public key ``(g, n)``.

    Attributes:
        n: The modulus ``p * q``.
        g: Generator in ``Z*_{n^2}``; ``n + 1`` unless specified.
        key_bits: Bit length of ``n`` at generation time.
    """

    n: int
    g: int
    key_bits: int
    #: The ciphertext modulus ``n^2``, computed once (derived from ``n``,
    #: so it takes no part in equality, hashing or repr).
    n_squared: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_squared", self.n * self.n)

    def obfuscator(self, r: int) -> int:
        """``r^n mod n^2``, the randomizing factor of Eq. 3.

        This is the definition, and the only route open to a party that
        holds no private key; a key holder gets the same integer faster
        from :meth:`PaillierPrivateKey.obfuscator`.
        """
        return powmod(r, self.n, self.n_squared)

    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext (an element of ``Z_{n^2}``)."""
        return -(-self.n_squared.bit_length() // 8)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Paillier private key ``(p, q)`` with the derived constants.

    Besides the textbook ``(lambda, mu)`` of Eq. 4, the key precomputes
    the CRT constants (``hp``, ``hq``, ``q^-1 mod p``) that let
    decryption run two half-size exponentiations instead of one full-size
    one -- the standard production-Paillier optimization -- and the
    per-prime constants of the key-holder :meth:`obfuscator`.
    """

    p: int
    q: int
    public_key: PaillierPublicKey
    lam: int = field(init=False)
    mu: int = field(init=False)
    hp: int = field(init=False)
    hq: int = field(init=False)
    q_inverse: int = field(init=False)
    # Derived from (p, q) alone: kept out of equality, hashing and repr.
    p_squared: int = field(init=False, repr=False, compare=False)
    q_squared: int = field(init=False, repr=False, compare=False)
    #: ``q mod (p-1)`` and ``p mod (q-1)``: the obfuscator's exponents.
    obfuscator_exp_p: int = field(init=False, repr=False, compare=False)
    obfuscator_exp_q: int = field(init=False, repr=False, compare=False)
    #: ``(q^2)^-1 mod p^2`` for Garner recombination modulo ``n^2``.
    q_squared_inverse: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p * self.q != self.public_key.n:
            raise ValueError("private primes do not match the public modulus")
        lam = math.lcm(self.p - 1, self.q - 1)
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        g_lambda = powmod(self.public_key.g, lam, n_squared)
        l_value = (g_lambda - 1) // n
        mu = powmod(l_value, -1, n)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        # CRT constants: hp = L_p(g^(p-1) mod p^2)^-1 mod p, and
        # symmetrically for q.
        p, q = self.p, self.q
        g = self.public_key.g
        p_squared = p * p
        q_squared = q * q
        hp = powmod((powmod(g, p - 1, p_squared) - 1) // p, -1, p)
        hq = powmod((powmod(g, q - 1, q_squared) - 1) // q, -1, q)
        object.__setattr__(self, "hp", hp)
        object.__setattr__(self, "hq", hq)
        object.__setattr__(self, "q_inverse", powmod(q, -1, p))
        object.__setattr__(self, "p_squared", p_squared)
        object.__setattr__(self, "q_squared", q_squared)
        object.__setattr__(self, "obfuscator_exp_p", q % (p - 1))
        object.__setattr__(self, "obfuscator_exp_q", p % (q - 1))
        object.__setattr__(self, "q_squared_inverse",
                           powmod(q_squared, -1, p_squared))

    def obfuscator(self, r: int) -> int:
        """``r^n mod n^2`` for a key holder: the same integer as
        :meth:`PaillierPublicKey.obfuscator`, from half-width modexps.

        Modulo ``p^2``: ``(a + kp)^p = a^p``, so ``r^p`` depends only on
        ``a = r mod p`` and is the Teichmuller lift of ``a`` -- a
        ``(p-1)``-th root of unity, multiplicative in ``a``.  Hence
        ``r^n = (r^p)^q = lift(a^q mod p) = lift(a^(q mod (p-1)) mod p)``
        and ``lift(b) = b^p mod p^2``.  The same holds modulo ``q^2``;
        Garner recombines the two residues modulo ``n^2``.  Non-units
        need no special case (``p | r`` gives 0 on both sides).
        """
        p, q = self.p, self.q
        p_squared, q_squared = self.p_squared, self.q_squared
        x_p = powmod(powmod(r % p, self.obfuscator_exp_p, p), p, p_squared)
        x_q = powmod(powmod(r % q, self.obfuscator_exp_q, q), q, q_squared)
        diff = ((x_p - x_q) * self.q_squared_inverse) % p_squared
        return x_q + q_squared * diff


@dataclass(frozen=True)
class PaillierKeypair:
    """A generated (public, private) Paillier pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    def __iter__(self):
        # Matches the paper's API ordering: key_gen(size) -> (pri, pub).
        return iter((self.private_key, self.public_key))


def generate_paillier_keypair(key_bits: int,
                              rng: Optional[LimbRandom] = None,
                              generator: Optional[int] = None) -> PaillierKeypair:
    """Generate a Paillier keypair of ``key_bits`` modulus length.

    Args:
        key_bits: Target bit length of ``n``; each prime gets half.
        rng: Deterministic random source (per-thread generator).
        generator: Explicit ``g``; defaults to ``n + 1``.
    """
    if key_bits < 16:
        raise ValueError("key_bits must be at least 16")
    if rng is None:
        rng = LimbRandom()
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        n = p * q
        # gcd(n, (p-1)(q-1)) == 1 holds for equal-length primes, but the
        # check is cheap and guards tiny test keys.
        if math.gcd(n, (p - 1) * (q - 1)) == 1:
            break
    g = generator if generator is not None else n + 1
    if math.gcd(g, n) != 1:
        raise ValueError("generator must be a unit modulo n^2")
    public = PaillierPublicKey(n=n, g=g, key_bits=key_bits)
    private = PaillierPrivateKey(p=p, q=q, public_key=public)
    return PaillierKeypair(public_key=public, private_key=private)


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(e, n)``."""

    n: int
    e: int
    key_bits: int

    def ciphertext_bytes(self) -> int:
        """Serialized size of one RSA ciphertext."""
        return -(-self.n.bit_length() // 8)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key ``d`` with its public counterpart."""

    d: int
    public_key: RsaPublicKey


@dataclass(frozen=True)
class RsaKeypair:
    """A generated (public, private) RSA pair."""

    public_key: RsaPublicKey
    private_key: RsaPrivateKey

    def __iter__(self):
        return iter((self.private_key, self.public_key))


#: Standard RSA public exponent.
RSA_PUBLIC_EXPONENT = 65537


def generate_rsa_keypair(key_bits: int,
                         rng: Optional[LimbRandom] = None,
                         public_exponent: int = RSA_PUBLIC_EXPONENT) -> RsaKeypair:
    """Generate a textbook-RSA keypair (multiplicatively homomorphic)."""
    if key_bits < 16:
        raise ValueError("key_bits must be at least 16")
    if rng is None:
        rng = LimbRandom()
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        phi = (p - 1) * (q - 1)
        if math.gcd(public_exponent, phi) == 1:
            break
    n = p * q
    d = powmod(public_exponent, -1, phi)
    public = RsaPublicKey(n=n, e=public_exponent, key_bits=key_bits)
    return RsaKeypair(public_key=public,
                      private_key=RsaPrivateKey(d=d, public_key=public))
