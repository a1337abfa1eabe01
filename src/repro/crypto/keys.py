"""Key material for the Paillier and RSA cryptosystems (paper Sec. III-B).

Key generation follows the paper exactly: two large primes ``p`` and ``q``
of equal length from the Miller-Rabin generator, ``n = p * q``,
``lambda = lcm(p - 1, q - 1)``, and the generator ``g = n + 1``, the
standard choice (FATE's too) that turns ``g^m`` into the single
multiplication ``1 + m n``.  It is the only generator: the private
constants below follow from it in closed form.

Paillier encryption (Eq. 3) is :meth:`PaillierPublicKey.encrypt` and
decryption (Eq. 4) :meth:`PaillierPrivateKey.decrypt`: the engines and
the Table I API (:mod:`repro.api.he`) call them and charge their costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.counters import OBFUSCATORS, WORK
from repro.mpint.native import hold, powmod, powmods
from repro.mpint.primes import LimbRandom, generate_distinct_primes


@dataclass(frozen=True)
class PaillierPublicKey:
    """Paillier public key ``(g, n)`` with ``g = n + 1``.

    Attributes:
        n: The modulus ``p * q``.
        key_bits: The size asked of :func:`generate_paillier_keypair`,
            not the exact width: ``n`` has ``key_bits - 1`` or
            ``key_bits`` bits (two ``key_bits / 2``-bit primes), so read
            ``n.bit_length()`` where the width matters.
    """

    n: int
    key_bits: int
    #: The ciphertext modulus ``n^2``, computed once (derived from ``n``,
    #: so it takes no part in equality, hashing or repr).
    n_squared: int = field(init=False, repr=False, compare=False)
    #: ``n^2``'s Montgomery context (:func:`repro.mpint.native.hold`).
    montgomery: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_squared", self.n * self.n)
        object.__setattr__(self, "montgomery", hold(self.n_squared))

    @property
    def g(self) -> int:
        """The generator ``n + 1``, so ``g^m = 1 + m n mod n^2``."""
        return self.n + 1

    def obfuscator(self, r: int) -> int:
        """``r^n mod n^2``, the randomizing factor of Eq. 3.

        This is the definition, and the only route open to a party that
        holds no private key; a key holder draws from the same
        distribution with two half-width powers
        (:meth:`PaillierPrivateKey.obfuscators`).
        """
        WORK[OBFUSCATORS] += 1
        return powmod(r, self.n, self.n_squared)

    def obfuscators(self, randomizers: Sequence[int]) -> List[int]:
        """:meth:`obfuscator` of each randomizer, in order."""
        return [self.obfuscator(r) for r in randomizers]

    def check_plaintexts(self, plaintexts: Sequence[int]) -> None:
        """Raise ``ValueError`` unless every plaintext is in ``[0, n)``."""
        bound = self.n
        for value in plaintexts:
            if not 0 <= value < bound:
                raise ValueError(
                    f"plaintext {value} outside [0, {bound}); encode first")

    def encrypt(self, plaintexts: Sequence[int],
                take_obfuscators: Callable[[int], Tuple[List[int],
                                                        List[int]]]
                ) -> List[int]:
        """Encrypt under the generator ``g = n + 1`` (Eq. 3).

        ``take_obfuscators(count)`` returns ``count`` obfuscators and
        their residues modulo ``n`` -- fresh powers or a pool's -- and is
        called once, after the range check, so a rejected batch draws no
        randomizer.  ``g^m r^n`` is ``(1 + m n) r^n mod n^2 = r^n + n (m
        r^n mod n)`` (because ``m n x mod n^2 = n (m x mod n)``): one
        product modulo ``n``, taken against ``r^n mod n``.  The sum is
        below ``2 n^2``, so its reduction modulo ``n^2`` is one
        conditional subtraction.
        """
        self.check_plaintexts(plaintexts)
        n = self.n
        n_squared = self.n_squared
        powers, residues = take_obfuscators(len(plaintexts))
        results = []
        for m, power, residue in zip(plaintexts, powers, residues):
            word = power + n * (m * residue % n)
            results.append(word - n_squared if word >= n_squared else word)
        return results

    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext (an element of ``Z_{n^2}``)."""
        return -(-self.n_squared.bit_length() // 8)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Paillier private key ``(p, q)`` with the derived constants.

    Besides the textbook ``(lambda, mu)`` of Eq. 4, the key precomputes
    the CRT constants (``hp``, ``hq``, ``q^-1 mod p``) that let
    :meth:`decrypt` run two half-size exponentiations instead of one
    full-size one -- the standard production-Paillier optimization -- and
    the Garner constant of the key-holder :meth:`obfuscators`.  It holds
    the Montgomery contexts of its secret moduli ``p^2`` and ``q^2``
    (:func:`repro.mpint.native.hold`), cleared with the last equal key.
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
    #: ``(q^2)^-1 mod p^2`` for Garner recombination modulo ``n^2``.
    q_squared_inverse: int = field(init=False, repr=False, compare=False)
    #: The Montgomery contexts of ``p^2`` and ``q^2``.
    montgomery: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p * self.q != self.public_key.n:
            raise ValueError("private primes do not match the public modulus")
        p, q = self.p, self.q
        lam = math.lcm(p - 1, q - 1)
        # With g = n + 1, g^k = 1 + k n mod n^2, so the textbook
        # mu = L(g^lambda mod n^2)^-1 mod n is lambda^-1 mod n, and
        # hp = L_p(g^(p-1) mod p^2)^-1 mod p is (-q mod p)^-1 mod p
        # (symmetrically hq): no modexp at all.
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", powmod(lam, -1, self.public_key.n))
        object.__setattr__(self, "hp", powmod(-q % p, -1, p))
        object.__setattr__(self, "hq", powmod(-p % q, -1, q))
        p_squared = p * p
        q_squared = q * q
        object.__setattr__(self, "q_inverse", powmod(q, -1, p))
        object.__setattr__(self, "p_squared", p_squared)
        object.__setattr__(self, "q_squared", q_squared)
        object.__setattr__(self, "q_squared_inverse",
                           powmod(q_squared, -1, p_squared))
        object.__setattr__(self, "montgomery",
                           (hold(p_squared), hold(q_squared)))

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt integer ciphertexts (Eq. 4), via CRT.

        Computes ``m mod p`` and ``m mod q`` with half-size
        exponentiations and recombines -- numerically identical to the
        textbook formula (:class:`repro.testing.reference.PaillierReference`,
        checked by the property tests) at a quarter of the cost.  The
        ``c^(p-1) mod p^2`` and ``c^(q-1) mod q^2`` powers are
        independent: they are one batch of powers
        (:func:`repro.mpint.native.powmods`), whose ``p`` half a large
        enough batch runs on a second core; the range checks come
        before, and the recombination after, on the calling thread.
        """
        ciphertexts = list(ciphertexts)
        n_squared = self.public_key.n_squared
        for ciphertext in ciphertexts:
            if not 0 <= ciphertext < n_squared:
                raise ValueError("ciphertext outside Z_{n^2}")
        p, q = self.p, self.q
        count = len(ciphertexts)
        powers = powmods(
            [(c, p - 1, self.p_squared) for c in ciphertexts]
            + [(c, q - 1, self.q_squared) for c in ciphertexts])
        hp, hq, q_inverse = self.hp, self.hq, self.q_inverse
        results = []
        for u_p, u_q in zip(powers[:count], powers[count:]):
            m_p = (u_p - 1) // p * hp % p
            m_q = (u_q - 1) // q * hq % q
            # Garner recombination.
            results.append(m_q + (m_p - m_q) * q_inverse % p * q)
        return results

    def obfuscator(self, r: int) -> int:
        """The key holder's obfuscator of ``r``: :meth:`obfuscators` of one."""
        return self.obfuscators([r])[0]

    def obfuscators(self, randomizers: Sequence[int]) -> List[int]:
        """``sigma(r)^n mod n^2`` of each randomizer, in order, from one
        half-width power per prime.

        ``sigma`` is the map ``r -> r^(q^-1 mod (p-1))`` modulo ``p`` and
        ``r -> r^(p^-1 mod (q-1))`` modulo ``q``, joined by the CRT.  A
        key is valid only if ``gcd(n, lambda) = 1``, i.e. ``gcd(q, p-1) =
        gcd(p, q-1) = 1``, so both exponents exist and each is a
        bijection of its prime's units: ``sigma`` permutes ``Z_n*``.  A
        uniform unit ``r`` therefore gives a uniform ``sigma(r)`` and an
        obfuscator distributed exactly as the textbook ``r^n``: the
        ciphertexts are textbook Paillier's, under no new assumption.
        The public route (:meth:`PaillierPublicKey.obfuscators`) stays
        ``r^n``.

        Modulo ``p^2``: ``(a + kp)^p = a^p``, so ``x^p`` depends only on
        ``x mod p`` (the Teichmuller lift of ``a = x mod p``).  Hence
        ``sigma(r)^n = (sigma(r)^q)^p = lift(sigma(r)^q mod p) =
        lift(r mod p) = a^p mod p^2``, and symmetrically ``b^q mod q^2``
        with ``b = r mod q``; Garner recombines the two modulo ``n^2``.
        Library powers per fresh obfuscator: 4 -> 2 (the textbook
        ``r^n`` taken by CRT needs ``a^(q mod (p-1)) mod p`` before each
        lift); a short-exponent obfuscator (ROADMAP item 17c) is to be
        measured against this route.  A non-unit ``r`` gives the power
        of ``sigma`` extended by ``0 -> 0`` on its prime.  The p-lifts
        and the q-lifts are one batch of independent powers
        (:func:`repro.mpint.native.powmods`), as in :meth:`decrypt`.
        """
        count = len(randomizers)
        WORK[OBFUSCATORS] += count
        p, q = self.p, self.q
        p_squared, q_squared = self.p_squared, self.q_squared
        lifts = powmods([(r % p, p, p_squared) for r in randomizers]
                        + [(r % q, q, q_squared) for r in randomizers])
        inverse = self.q_squared_inverse
        return [x_q + q_squared * ((x_p - x_q) * inverse % p_squared)
                for x_p, x_q in zip(lifts[:count], lifts[count:])]


def draw_obfuscators(obfuscators: Callable[[List[int]], List[int]], n: int,
                     rng: LimbRandom, count: int
                     ) -> Tuple[List[int], List[int]]:
    """``count`` obfuscators and their residues modulo ``n``.

    The ``count`` randomizers are drawn from ``rng`` first, in order,
    and ``obfuscators`` -- a key's :meth:`PaillierPublicKey.obfuscators`
    or :meth:`PaillierPrivateKey.obfuscators` -- raises them all in one
    call.  Bound to all but ``count``, it is a ``take_obfuscators`` of
    :meth:`PaillierPublicKey.encrypt`.
    """
    powers = obfuscators([rng.random_unit(n) for _ in range(count)])
    return powers, [power % n for power in powers]


@dataclass(frozen=True)
class PaillierKeypair:
    """A generated (public, private) Paillier pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    def __iter__(self):
        # Matches the paper's API ordering: key_gen(size) -> (pri, pub).
        return iter((self.private_key, self.public_key))


def generate_paillier_keypair(key_bits: int,
                              rng: Optional[LimbRandom] = None) -> PaillierKeypair:
    """Generate a Paillier keypair from two ``key_bits // 2``-bit primes.

    The product of two ``b``-bit primes has ``2b - 1`` or ``2b`` bits,
    so for an even ``key_bits``, ``n`` has ``key_bits - 1`` or
    ``key_bits`` bits: at seed 7 (the default of ``cached_keypair``) a
    1024-bit key's ``n`` has 1023.

    Args:
        key_bits: Nominal size of ``n``; each prime gets half.
        rng: Deterministic random source (per-thread generator).
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
    public = PaillierPublicKey(n=n, key_bits=key_bits)
    private = PaillierPrivateKey(p=p, q=q, public_key=public)
    return PaillierKeypair(public_key=public, private_key=private)


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(e, n)``."""

    n: int
    e: int
    key_bits: int
    #: ``n``'s Montgomery context (both keys' powers run modulo ``n``).
    montgomery: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "montgomery", hold(self.n))

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
                         rng: Optional[LimbRandom] = None) -> RsaKeypair:
    """Generate a textbook-RSA keypair (multiplicatively homomorphic)."""
    if key_bits < 16:
        raise ValueError("key_bits must be at least 16")
    if rng is None:
        rng = LimbRandom()
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        phi = (p - 1) * (q - 1)
        if math.gcd(RSA_PUBLIC_EXPONENT, phi) == 1:
            break
    n = p * q
    d = powmod(RSA_PUBLIC_EXPONENT, -1, phi)
    public = RsaPublicKey(n=n, e=RSA_PUBLIC_EXPONENT, key_bits=key_bits)
    return RsaKeypair(public_key=public,
                      private_key=RsaPrivateKey(d=d, public_key=public))
